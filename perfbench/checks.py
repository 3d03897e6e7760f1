"""Output checks for each command, and the reference outputs they compare to.

A check returns a list of problems; an empty list means the output is
correct. The checks read only the files a command wrote, plus the reference
scorer `erbound.matching.score_pair` for sampled pairs. At the default seed
the outputs must also match the references recorded in `reference.json`.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SAMPLED_PAIRS = 2000
REL_TOL = 1e-9
# summary keys compared exactly; every other value within REL_TOL
EXACT = {"exit_code", "partition_sha256", "clusters", "r_pairs", "tm_pairs", "threshold",
         "test_records", "test_ids_sha256", "n_pairs", "n_positive", "n_predicted_match",
         "n_true_match"}


def read_ids(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


def read_sweep(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_clustering(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["id", "cluster_id"]:
        raise ValueError(f"clustering header {rows[0]}")
    return {rid: label for rid, label in rows[1:]}


def partition_digest(labels: dict[str, str]) -> str:
    groups: dict[str, list[str]] = {}
    for rid, label in labels.items():
        groups.setdefault(label, []).append(rid)
    canon = sorted(sorted(g) for g in groups.values())
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def cluster_stats(labels: dict[str, str]) -> tuple[int, float]:
    sizes: dict[str, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return len(sizes), max(sizes.values()) / len(labels)


def _close(a, b) -> bool:
    if a is None or b is None or a == "" or b == "":
        return a in (None, "") and b in (None, "")
    return math.isclose(float(a), float(b), rel_tol=REL_TOL)


def check_reference(prefix: str, got: dict, want: dict) -> list[str]:
    """Compare a summary with its reference by key; keys only in `got`, such
    as an added sweep column, are ignored."""
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{prefix}: {key} missing")
        elif isinstance(value, dict):
            problems += check_reference(f"{prefix}.{key}", got[key], value)
        elif isinstance(value, list):
            if len(got[key]) != len(value) or not all(
                    _close(g, w) for g, w in zip(got[key], value)):
                problems.append(f"{prefix}: {key}={got[key]} != reference {value}")
        elif key in EXACT:
            if str(got[key]) != str(value):
                problems.append(f"{prefix}: {key}={got[key]} != reference {value}")
        elif not _close(got[key], value):
            problems.append(f"{prefix}: {key}={got[key]} != reference {value}")
    return problems


def train_summary(out: Path) -> dict:
    stats = json.loads((out / "validation_stats.json").read_text())["stats"]
    test_ids = read_ids(out / "test_records.csv")
    return {
        "test_records": len(test_ids),
        "test_ids_sha256": hashlib.sha256("\n".join(sorted(test_ids)).encode()).hexdigest(),
        "validation": {k: stats[k] for k in
                       ("n_pairs", "n_positive", "n_predicted_match", "n_true_match")},
    }


def check_train(out: Path, data: Path) -> list[str]:
    problems = []
    for name in ("model.json", "validation_stats.json", "test_records.csv", "test_gold.csv"):
        if not (out / name).is_file():
            problems.append(f"train: {name} not written")
    if problems:
        return problems
    test_ids = read_ids(out / "test_records.csv")
    if len(set(test_ids)) != len(test_ids) or not set(test_ids) <= set(read_ids(data / "records.csv")):
        problems.append("train: test ids are not distinct input ids")
    return problems


def check_sweep(out: Path, grid_steps: int) -> list[str]:
    rows = read_sweep(out / "sweep.csv")
    problems = []
    if len(rows) != grid_steps:
        problems.append(f"sweep: {len(rows)} rows, expected {grid_steps}")
    r = [int(row["r_pairs"]) for row in rows]
    tm = [int(row["tm_pairs"]) for row in rows]
    if any(b > a for a, b in zip(r, r[1:])) or any(b > a for a, b in zip(tm, tm[1:])):
        problems.append("sweep: r_pairs or tm_pairs increase with the threshold")
    if any(t > p for t, p in zip(tm, r)):
        problems.append("sweep: tm_pairs exceeds r_pairs")
    return problems


def check_resolve(out: Path, train_out: Path, sweep_out: Path, threshold: float,
                  gates: dict[str, float], code: int, expected_code: int | None,
                  seed: tuple[int, int]) -> list[str]:
    """Partition, gate outcome, agreement with the sweep row at the same
    threshold, and sampled pairs at or above the threshold sharing a cluster."""
    from erbound import dataset, matching

    problems = []
    labels = read_clustering(out / "clustering.csv")
    test_ids = read_ids(train_out / "test_records.csv")
    if sorted(labels) != sorted(test_ids) or len(labels) != len(test_ids):
        problems.append("resolve: clustering does not partition the test ids")
    report = json.loads((out / "bound_report.json").read_text())
    gate_fails = any(report[f"{name}_lower_bound"] < floor for name, floor in gates.items())
    want = 4 if gate_fails else 0
    if code != want or expected_code not in (None, code):
        problems.append(f"resolve: exit {code}, gate outcome says {want}, "
                        f"workload expects {expected_code}")
    row = next((r for r in read_sweep(sweep_out / "sweep.csv")
                if math.isclose(float(r["threshold"]), threshold, abs_tol=1e-9)), None)
    if row is None:
        problems.append(f"resolve: no sweep row at threshold {threshold}")
    elif (int(row["r_pairs"]), int(row["tm_pairs"])) != (report["r_pairs"], report["tm_pairs"]):
        problems.append(f"resolve: counts {report['r_pairs']},{report['tm_pairs']} differ "
                        f"from the sweep row {row['r_pairs']},{row['tm_pairs']}")

    model = matching.load_model(train_out / "model.json")
    records = dataset.load_records_csv(train_out / "test_records.csv", model.schema)
    gold = dataset.load_gold(train_out / "test_gold.csv")
    rng = np.random.default_rng(seed)
    n = len(records)
    pairs = [tuple(rng.choice(n, size=2, replace=False)) for _ in range(SAMPLED_PAIRS // 2)]
    by_label: dict[str, list[int]] = {}
    index = {r.record_id: k for k, r in enumerate(records)}
    for rid, label in gold.labels.items():
        by_label.setdefault(label, []).append(index[rid])
    groups = [g for g in by_label.values() if len(g) > 1]
    for k in rng.integers(0, len(groups), size=SAMPLED_PAIRS // 2):
        pairs.append(tuple(rng.choice(groups[k], size=2, replace=False)))
    above = 0
    for i, j in pairs:
        a, b = records[i], records[j]
        if matching.score_pair(model, a, b) >= threshold:
            above += 1
            if labels.get(a.record_id) != labels.get(b.record_id):
                problems.append(f"resolve: {a.record_id},{b.record_id} match but are "
                                "in different clusters")
                break
    if above == 0:
        problems.append("resolve: no sampled pair reached the threshold")
    return problems


def resolve_summary(out: Path, code: int) -> dict:
    labels = read_clustering(out / "clustering.csv")
    report = json.loads((out / "bound_report.json").read_text())
    return {"exit_code": code, "partition_sha256": partition_digest(labels),
            "clusters": cluster_stats(labels)[0], "report": report}


def sweep_summary(out: Path) -> dict:
    return {"rows": {row["threshold"]: row for row in read_sweep(out / "sweep.csv")}}


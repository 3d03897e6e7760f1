"""Workload definitions and the benchmark's own seeded input generators.

The generators live here, not in `erbound.dataset`, so that a change to the
program cannot change what the benchmark feeds it. Each writes the three
input files the CLI reads (`records.csv`, `gold.csv`, `schema.json`) in the
formats documented in `erbound/dataset.py`.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str          # "numeric" or "people"
    size: int               # entities (numeric) or records (people)
    datasets: int           # datasets per run, so one run averages over inputs
    train_pairs: int        # labeled training pairs drawn by `train`
    sweep_args: tuple[str, ...]
    resolve_args: tuple[str, ...]
    resolve_threshold: float
    # expected exit code of resolve; None: 4 exactly when bound_report.json
    # has a bound below its gate floor, else 0
    resolve_code: int | None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="numeric-snowball",
            generator="numeric", size=400, datasets=6, train_pairs=1000,
            sweep_args=("--grid-start", "0.02", "--grid-stop", "0.96",
                        "--grid-steps", "48"),
            # the snowball: the precision bound sees it and the gate fails (exit 4)
            resolve_args=("--min-precision-lb", "0.5"),
            resolve_threshold=0.5, resolve_code=4,
        ),
        Workload(
            name="mixed-text",
            generator="people", size=420, datasets=12, train_pairs=100,
            sweep_args=("--grid-start", "0.05", "--grid-stop", "0.95",
                        "--grid-steps", "19"),
            # most datasets pass this gate; a few draw a weak model and fail it
            resolve_args=("--threshold", "0.9", "--min-f1-lb", "0.5"),
            resolve_threshold=0.9, resolve_code=None,
        ),
        Workload(
            name="numeric-deploy-10k",
            generator="numeric", size=1000, datasets=3, train_pairs=100,
            # one grid point at the deploy threshold: the bound check before deploying
            sweep_args=("--grid-start", "0.95", "--grid-stop", "0.95",
                        "--grid-steps", "1"),
            resolve_args=("--threshold", "0.95", "--min-precision-lb", "0.9"),
            resolve_threshold=0.95, resolve_code=0,
        ),
    )
}


def _write_inputs(out: Path, schema: list[tuple[str, str]], rows: list[dict],
                  labels: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "schema.json").write_text(json.dumps(
        {"features": [{"name": n, "kind": k} for n, k in schema]}, indent=2) + "\n")
    names = [n for n, _ in schema]
    with open(out / "records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *names])
        for row in rows:
            writer.writerow([row["id"], *("|".join(row.get(n, ())) for n in names)])
    with open(out / "gold.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for rid in sorted(labels):
            writer.writerow([rid, labels[rid]])


RECORDS_PER_ENTITY, DIMS, NOISE_SIGMA = 10, 10, 0.02


def numeric_inputs(out: Path, n_entities: int, seed) -> None:
    """Noisy numeric records around per-entity latent vectors drawn from the
    unit cube; every record has one value per dimension."""
    rng = np.random.default_rng(seed)
    latents = rng.uniform(size=(n_entities, DIMS))
    total = n_entities * RECORDS_PER_ENTITY
    noise = rng.normal(0.0, NOISE_SIGMA, size=(total, DIMS))
    schema = [(f"f{j:02d}", "numeric") for j in range(DIMS)]
    rows, labels = [], {}
    for k in range(total):
        e = k // RECORDS_PER_ENTITY
        rid = f"r{k:05d}"
        vals = latents[e] + noise[k]
        rows.append({"id": rid, **{n: [repr(float(v))] for (n, _), v in zip(schema, vals)}})
        labels[rid] = f"e{e:04d}"
    _write_inputs(out, schema, rows, labels)


FIRST = ("james john robert michael william david richard joseph thomas charles "
         "mary patricia jennifer linda elizabeth barbara susan jessica sarah karen "
         "daniel matthew anthony mark donald steven paul andrew joshua kenneth "
         "nancy lisa betty margaret sandra ashley kimberly emily donna michelle "
         "kevin brian george timothy ronald edward jason jeffrey ryan jacob "
         "dorothy carol amanda melissa deborah stephanie rebecca sharon laura cynthia").split()
LAST = ("smith johnson williams brown jones garcia miller davis rodriguez martinez "
        "hernandez lopez gonzalez wilson anderson thomas taylor moore jackson martin "
        "lee perez thompson white harris sanchez clark ramirez lewis robinson "
        "walker young allen king wright scott torres nguyen hill flores "
        "green adams nelson baker hall rivera campbell mitchell carter roberts "
        "gomez phillips evans turner diaz parker cruz edwards collins reyes "
        "stewart morris morales murphy cook rogers gutierrez ortiz morgan cooper").split()
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _typo(rng: np.random.Generator, word: str) -> str:
    """One random edit: substitute, delete, insert or swap neighbours."""
    k = int(rng.integers(0, len(word)))
    op = int(rng.integers(0, 4))
    c = LETTERS[int(rng.integers(0, 26))]
    if op == 0:
        return word[:k] + c + word[k + 1:]
    if op == 1 and len(word) > 2:
        return word[:k] + word[k + 1:]
    if op == 2:
        return word[:k] + c + word[k:]
    if k + 1 < len(word):
        return word[:k] + word[k + 1] + word[k] + word[k + 2:]
    return word + c


def _phone(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(200, 1000))}-{int(rng.integers(0, 10000)):04d}"


def people_inputs(out: Path, n_records: int, seed) -> None:
    """People records: first and last name (text, with typos and initials),
    phone (categorical, often missing, sometimes two values) and age
    (numeric, +-1 noise). Entity sizes are geometric, so most entities are
    small and a few are large; the total is exactly `n_records`."""
    rng = np.random.default_rng(seed)
    schema = [("name1", "text"), ("name2", "text"), ("phone", "categorical"),
              ("age", "numeric")]
    rows, labels = [], {}
    e = 0
    while len(rows) < n_records:
        size = min(int(rng.geometric(0.35)), n_records - len(rows))
        first = FIRST[int(rng.integers(0, len(FIRST)))]
        last = LAST[int(rng.integers(0, len(LAST)))]
        phone = _phone(rng)
        age = int(rng.integers(18, 90))
        for _ in range(size):
            rid = f"p{len(rows):05d}"
            row = {"id": rid}
            u = rng.random(6)
            if u[0] < 0.15:
                row["name1"] = [first[0] + "."]
            elif u[0] < 0.95:
                row["name1"] = [_typo(rng, first) if u[1] < 0.2 else first]
            if u[2] < 0.95:
                row["name2"] = [_typo(rng, last) if u[3] < 0.2 else last]
            if u[4] < 0.45:
                row["phone"] = [phone]
            elif u[4] < 0.55:
                row["phone"] = [phone, _phone(rng)]
            if u[5] < 0.9:
                row["age"] = [str(age + int(rng.integers(-1, 2)))]
            rows.append(row)
            labels[rid] = f"e{e:05d}"
        e += 1
    _write_inputs(out, schema, rows, labels)


def generate(workload: Workload, out: Path, seed) -> None:
    if workload.generator == "numeric":
        numeric_inputs(out, workload.size, seed)
    else:
        people_inputs(out, workload.size, seed)


def input_properties(data: Path, train_out: Path) -> dict:
    """Shape of the generated inputs and of the test set `train` carved."""
    with open(data / "records.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cells = [c for row in rows[1:] for c in row[1:]]
    with open(data / "gold.csv", newline="", encoding="utf-8") as fh:
        labels = [row[1] for row in list(csv.reader(fh))[1:]]
    sizes: dict[str, int] = {}
    for lab in labels:
        sizes[lab] = sizes.get(lab, 0) + 1
    with open(train_out / "test_records.csv", newline="", encoding="utf-8") as fh:
        n_test = sum(1 for _ in fh) - 1
    return {
        "records": len(rows) - 1,
        "test_records": n_test,
        "test_pairs": n_test * (n_test - 1) // 2,
        "entities": len(sizes),
        "max_entity_size": max(sizes.values()),
        "mean_entity_size": round((len(rows) - 1) / len(sizes), 3),
        "missing_cell_share": round(sum(1 for c in cells if not c) / len(cells), 4),
        "multi_valued_cell_share": round(sum(1 for c in cells if "|" in c) / len(cells), 4),
    }

"""Every output byte of `train`, `sweep` and `resolve`, pinned.

Runs the three commands on one small generated numeric set and one small
people set (from `perfbench/workloads.people_inputs`, imported read-only)
and compares the SHA-256 of every output file, and of each command's
stdout and stderr, with the digests in `golden_outputs.json`, together with
the exit codes. `*.effective.cfg` holds the run's paths and is left out.

A change that is meant to move an output re-records the file: the failure
message prints the new digests in the file's format.
"""

import hashlib
import json
from pathlib import Path

from erbound.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(name: str, data: Path, root: Path, capsys, resolve_gate: list[str],
                 outputs: dict, codes: dict) -> None:
    run = root / name
    common = ["--model", str(run / "train" / "model.json"),
              "--records", str(run / "train" / "test_records.csv"),
              "--validation-stats", str(run / "train" / "validation_stats.json")]
    commands = {
        "train": ["train", "--records", str(data / "records.csv"),
                  "--gold", str(data / "gold.csv"), "--schema", str(data / "schema.json"),
                  "--n-train-pairs", "60", "--n-validation-pairs", "60", "--seed", "0"],
        "sweep": ["sweep", *common, "--gold", str(run / "train" / "test_gold.csv"),
                  "--write-clusterings"],
        "resolve": ["resolve", *common, *resolve_gate],
    }
    for command, argv in commands.items():
        out = run / command
        codes[f"{name}/{command}"] = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        outputs[f"{name}/{command}/stdout"] = digest(captured.out.encode())
        outputs[f"{name}/{command}/stderr"] = digest(captured.err.encode())
        for path in sorted(out.iterdir()):
            if not path.name.endswith(".effective.cfg"):
                outputs[f"{name}/{command}/{path.name}"] = digest(path.read_bytes())


def test_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    numeric, people = tmp_path / "numeric-data", tmp_path / "people-data"
    assert main(["generate", "--out", str(numeric), "--seed", "0", "--n-entities", "30",
                 "--records-per-entity", "5", "--noise-sigma", "0.05"]) == 0
    workloads.people_inputs(people, 150, (0, 0))
    capsys.readouterr()
    outputs, codes = {}, {}
    run_commands("numeric", numeric, tmp_path, capsys, ["--min-precision-lb", "0.95"],
                 outputs, codes)
    run_commands("people", people, tmp_path, capsys,
                 ["--threshold", "0.9", "--min-f1-lb", "0.5"], outputs, codes)
    actual = {"exit_codes": codes, "sha256": outputs}
    assert actual == json.loads(GOLDEN.read_text()), (
        f"outputs changed; if intended, write this to {GOLDEN.name}:\n"
        + json.dumps(actual, indent=2, sort_keys=True))

"""The benchmark's traced run must reach every per-layer metric that
`BENCHMARK.json` names; a run that misses one reports an incomplete result.

Runs `perfbench/run.py`'s traced flow in-process on two tiny datasets, one
per generator. Reads `perfbench/` and `BENCHMARK.json` and changes neither.
"""

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_run(monkeypatch):
    """Import `perfbench/run.py` with `perfbench/` on the path, as it runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # run.py pins BLAS threads on import
        spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("generator,size", [("numeric", 20), ("people", 200)])
def test_traced_run_reaches_every_per_layer_metric(monkeypatch, tmp_path, generator, size):
    run = load_run(monkeypatch)
    import workloads

    workload = workloads.Workload(
        name=f"contract-{generator}", generator=generator, size=size, datasets=1,
        train_pairs=60,
        sweep_args=("--grid-start", "0.1", "--grid-stop", "0.9", "--grid-steps", "5"),
        resolve_args=("--threshold", "0.5", "--min-precision-lb", "0.5"),
        resolve_threshold=0.5, resolve_code=None)
    flow = run.Flow(workload, 0, 0, tmp_path, None)
    workloads.generate(workload, flow.data, flow.data_seed)
    samples, _, _ = run.traced([flow], 0.0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [spec["name"] for spec in per_layer if not samples.get(spec["name"])] == []
    assert flow.failed == 0

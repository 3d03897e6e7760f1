#!/usr/bin/env python3
"""erbound benchmark: the train -> sweep -> resolve CLI flow, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload numeric-snowball --seed 0 --seconds 60 --trace 0

The benchmark generates the workload's inputs from the seed, then repeats the
user flow `python -m erbound.cli train|sweep|resolve` as child processes,
one at a time, until `--seconds` is used up, cycling through several
datasets. Each child's wall time, scaled by a speed probe, and its peak RSS
(from its own rusage) are one sample; a metric is the median of each
dataset's samples, averaged over the datasets. Every output is checked; the
checks are not timed.

With `--trace 1` the flow runs in-process instead, through
`erbound.cli.main(argv)`, once untraced and once with the tracer of
`tracer.py` wrapping every public function, and the per-layer metrics are
reported. End-to-end and traced runs never share a process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names, units and
bounds are those of `BENCHMARK.json` at the root of the checkout.
"""

import os

# one process, one thread: numpy's BLAS must not start a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, generate, input_properties

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
COMMANDS = ("train", "sweep", "resolve")
METRIC_OF = {"train": "setup", "sweep": "sweep", "resolve": "resolve"}
GATE_FLAGS = {"--min-precision-lb": "precision", "--min-recall-lb": "recall",
              "--min-f1-lb": "f1"}
VALIDATION_PAIRS = "100"
# SpeedProbe time on a quiet 2.1 GHz Xeon core; the unit of the reported times
PROBE_REFERENCE_S = 0.045

# metric name -> (dataset index, value) samples
Samples = dict[str, list[tuple[int, float]]]


def _flag(args: tuple[str, ...], flag: str) -> str | None:
    return args[args.index(flag) + 1] if flag in args else None


class Flow:
    """The three commands on one of a workload's datasets: their arguments,
    expected exit codes and output checks."""

    def __init__(self, workload, seed: int, index: int, work: Path, reference: dict | None):
        self.w, self.seed, self.index = workload, seed, index
        # dataset `index` of benchmark seed `seed`; also seeds train's split
        self.data_seed = (seed, index)
        self.work = work / f"d{index}"
        self.data = self.work / "data"
        self.out = {cmd: self.work / cmd for cmd in COMMANDS}
        self.gates = {name: float(_flag(workload.resolve_args, flag))
                      for flag, name in GATE_FLAGS.items()
                      if flag in workload.resolve_args}
        self.grid_steps = int(_flag(workload.sweep_args, "--grid-steps"))
        self.reference = reference
        self.failed = 0

    def argv(self, cmd: str) -> list[str]:
        t = self.out["train"]
        if cmd == "train":
            return ["train", "--out", str(t), "--records", str(self.data / "records.csv"),
                    "--gold", str(self.data / "gold.csv"),
                    "--schema", str(self.data / "schema.json"),
                    "--n-train-pairs", str(self.w.train_pairs),
                    "--n-validation-pairs", VALIDATION_PAIRS,
                    "--threshold", "0.5", "--seed", str(1000 * self.seed + self.index)]
        common = ["--out", str(self.out[cmd]), "--model", str(t / "model.json"),
                  "--records", str(t / "test_records.csv"),
                  "--validation-stats", str(t / "validation_stats.json")]
        if cmd == "sweep":
            return ["sweep", *common, "--gold", str(t / "test_gold.csv"), *self.w.sweep_args]
        return ["resolve", *common, *self.w.resolve_args]

    def expected_code(self, cmd: str) -> int | None:
        return self.w.resolve_code if cmd == "resolve" else 0

    def summary(self, cmd: str, code: int) -> dict:
        if cmd == "train":
            return checks.train_summary(self.out["train"])
        if cmd == "sweep":
            return checks.sweep_summary(self.out["sweep"])
        return checks.resolve_summary(self.out["resolve"], code)

    def check(self, cmd: str, code: int) -> bool:
        """Check one command's outputs; record and report any problem."""
        problems = []
        if cmd != "resolve" and code != self.expected_code(cmd):
            problems.append(f"{cmd}: exit code {code}, expected {self.expected_code(cmd)}")
        try:
            if cmd == "train":
                problems += checks.check_train(self.out["train"], self.data)
            elif cmd == "sweep":
                problems += checks.check_sweep(self.out["sweep"], self.grid_steps)
            else:
                problems += checks.check_resolve(
                    self.out["resolve"], self.out["train"], self.out["sweep"],
                    self.w.resolve_threshold, self.gates, code,
                    self.expected_code(cmd), self.data_seed)
            if self.reference is not None:
                problems += checks.check_reference(cmd, self.summary(cmd, code),
                                                   self.reference[cmd])
        except Exception as exc:  # a broken output fails the check, not the run
            problems.append(f"{cmd}: checking the outputs raised {exc!r}")
        for p in problems:
            print(f"CHECK FAILED dataset {self.index}: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return not problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run `python -m erbound.cli argv`; return exit code, wall seconds and
    the child's own peak RSS in MB."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "erbound.cli", *argv],
                                stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class SpeedProbe:
    """A fixed CPU task, independent of erbound, timed right before and right
    after each command. On a shared machine the speed available to one
    process drifts by tens of percent over seconds; scaling each command's
    wall time by PROBE_REFERENCE_S / (probe time) reports it at the
    reference speed, so a slow phase of the machine does not read as a slow
    program."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.w = rng.random((20_000, 10)), rng.random(10)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(150_000):        # interpreter-bound arithmetic
            acc += i * i
        for _ in range(150):            # list-based DP, like the Python edit distance
            prev = list(range(13))
            for a in "jonathan.smith":
                cur = [prev[0] + 1]
                for j, b in enumerate("johnathan.smyth"[:12]):
                    cur.append(min(cur[j] + 1, prev[j + 1] + 1, prev[j] + (a != b)))
                prev = cur
            acc += prev[-1]
        for i in range(0, 20_000, 200):  # numpy over rows, like the vectorized scorer
            acc += float((np.abs(self.x[i + 1:] - self.x[i]) @ self.w).sum())
        return time.perf_counter() - t0


def timed_cycles(seconds: float, cycle) -> int:
    """Run cycle(k) until the next one would end after `seconds`; at least once."""
    start, longest, k = time.perf_counter(), 0.0, 0
    while True:
        c0 = time.perf_counter()
        cycle(k)
        k += 1
        longest = max(longest, time.perf_counter() - c0)
        if time.perf_counter() - start + longest > seconds:
            return k


def end_to_end(flows: list[Flow], seconds: float) -> tuple[Samples, int]:
    """Run the flow as child processes, cycling through the datasets."""
    samples: Samples = {}
    attempted = 0
    probe = SpeedProbe()

    def cycle(k: int) -> None:
        nonlocal attempted
        flow = flows[k % len(flows)]
        for cmd in COMMANDS:
            before = probe()
            code, wall, rss = run_child(flow.argv(cmd), flow.work / f"{cmd}.log")
            speed = PROBE_REFERENCE_S / ((before + probe()) / 2)
            attempted += 1
            if not flow.check(cmd, code):
                print((flow.work / f"{cmd}.log").read_text()[-2000:], file=sys.stderr)
            name = METRIC_OF[cmd]
            for key, value in ((f"{name}_s", wall * speed), (f"{name}_wall_s", wall),
                               (f"{name}_speed", speed), (f"{name}_rss_mb", rss)):
                samples.setdefault(key, []).append((flow.index, value))

    timed_cycles(seconds, cycle)
    return samples, attempted


def _in_process(cli, argv: list[str]) -> tuple[int, float]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        return code, time.perf_counter() - t0


def traced(flows: list[Flow], seconds: float) -> tuple[Samples, int, dict]:
    """Alternate untraced and traced in-process runs of each command,
    cycling through the datasets. Returns per-layer samples, attempted
    commands, and the spans of the last traced run of each command."""
    from erbound import cli
    from tracer import Tracer

    tracer = Tracer()
    samples: Samples = {}
    spans: dict[str, list] = {}
    attempted = 0

    def cycle(k: int) -> None:
        nonlocal attempted
        flow = flows[k % len(flows)]
        for cmd in COMMANDS:
            argv = flow.argv(cmd)
            times = {}
            for mode in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                if mode == "traced":
                    tracer.install()
                    tracer.reset()
                    try:
                        code, times[mode] = _in_process(cli, argv)
                    finally:
                        tracer.uninstall()
                else:
                    code, times[mode] = _in_process(cli, argv)
                attempted += 1
                flow.check(cmd, code)
            m = layer_metrics(cmd, tracer, flow)
            m[f"{cmd}.trace_overhead_s"] = times["traced"] - times["plain"]
            for key, value in m.items():
                samples.setdefault(key, []).append((flow.index, value))
            spans[cmd] = list(tracer.spans)

    timed_cycles(seconds, cycle)
    return samples, attempted, spans


def layer_metrics(cmd: str, tracer, flow: Flow) -> dict[str, float]:
    m: dict[str, float] = {f"{cmd}.total_s": tracer.root_duration()}
    for name, (self_s, calls) in tracer.self_times().items():
        layer = name.partition(".")[0]
        m[f"{cmd}.{name}.self_s"] = self_s
        m[f"{cmd}.{name}.calls"] = calls
        m[f"{cmd}.{layer}.self_s"] = m.get(f"{cmd}.{layer}.self_s", 0.0) + self_s
    for key, value in tracer.counts.items():
        m[f"{cmd}.{key}"] = value
    if cmd == "train":
        return m
    n = len(checks.read_ids(flow.out["train"] / "test_records.csv"))
    pairs = m.get(f"{cmd}.matching.condensed_pairwise_scores.pairs")
    self_s = m.get(f"{cmd}.matching.condensed_pairwise_scores.self_s")
    if pairs and self_s is not None:
        m[f"{cmd}.matching.condensed_pairwise_scores.ns_per_pair"] = self_s / pairs * 1e9
        m[f"{cmd}.matching.score_passes"] = pairs / (n * (n - 1) // 2)
    if cmd == "sweep":
        m["sweep.pipeline.sweep_thresholds.grid_points"] = len(
            checks.read_sweep(flow.out["sweep"] / "sweep.csv"))
    else:
        labels = checks.read_clustering(flow.out["resolve"] / "clustering.csv")
        m["resolve.resolver.clusters"], m["resolve.resolver.largest_cluster_share"] = (
            checks.cluster_stats(labels))
    return m


def run_value(samples: list[tuple[int, float]]) -> float:
    """The median of each dataset's samples, averaged over the datasets, so
    a dataset that got one more cycle than another does not tilt the value."""
    by_dataset: dict[int, list[float]] = {}
    for index, value in samples:
        by_dataset.setdefault(index, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_dataset.values())


def spread(samples: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Minimum, first and third quartile of all samples."""
    values = [v for _, v in samples]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return min(values), q1, q3


def print_layer_shares(samples: Samples) -> None:
    from tracer import LAYERS

    for cmd in COMMANDS:
        total = samples.get(f"{cmd}.total_s")
        if not total:
            continue
        total_s = run_value(total)
        parts = []
        for layer in LAYERS:
            v = samples.get(f"{cmd}.{layer}.self_s")
            if v:
                parts.append(f"{layer} {run_value(v) / total_s:.1%}")
        print(f"{cmd}: total {total_s:.3f} s; self time by layer: " + ", ".join(parts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run the flow once per dataset and record its outputs "
                             "as the workload's reference for this seed")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "erbound" / "cli.py").is_file():
        print(f"error: no erbound sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import erbound
    if Path(erbound.__file__).resolve().parent != SRC / "erbound":
        print(f"error: imported erbound from {erbound.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = refs.get(workload.name)
    if args.write_reference or not ref or ref["seed"] != args.seed:
        ref = [None] * workload.datasets
    elif len(ref["datasets"]) != workload.datasets:
        print(f"error: {REFERENCE.name} holds {len(ref['datasets'])} datasets of "
              f"{workload.name}, the workload has {workload.datasets}", file=sys.stderr)
        return 2
    else:
        ref = ref["datasets"]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        flows = [Flow(workload, args.seed, j, work, ref[j]) for j in range(workload.datasets)]
        t0 = time.perf_counter()
        for flow in flows:
            generate(workload, flow.data, flow.data_seed)
        # compile erbound's bytecode once, so no timed child pays for it
        run_child(["--help"], work / "warmup.log")
        print(f"workload {workload.name} seed {args.seed}: {len(flows)} datasets "
              f"generated in {time.perf_counter() - t0:.2f} s")

        if args.write_reference:
            return write_reference(flows, refs)
        if args.trace:
            samples, attempted, spans = traced(flows, args.seconds)
            wanted = bench["per_layer"]
        else:
            samples, attempted = end_to_end(flows, args.seconds)
            wanted = bench["end_to_end"]
        for flow in flows:
            if (flow.out["train"] / "test_records.csv").is_file():
                print(f"inputs d{flow.index} " + json.dumps(
                    input_properties(flow.data, flow.out["train"])))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_failed = sum(flow.failed for flow in flows)
    metrics, missing = {}, []
    for spec in wanted:
        values = samples.get(spec["name"])
        if not values:
            missing.append(spec["name"])
            continue
        value = run_value(values)
        lo, q1, q3 = spread(values)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<58} {value:>14.6g} {spec['unit']:<6} "
              f"(n={len(values)}, min={lo:.6g}, q1={q1:.6g}, q3={q3:.6g})")
    if not args.trace:
        for key in sorted(set(samples) - set(metrics)):
            lo, q1, q3 = spread(samples[key])
            print(f"  {key:<56} {run_value(samples[key]):>14.6g}        "
                  f"(q1={q1:.6g}, q3={q3:.6g})")
    else:
        print_layer_shares(samples)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"{workload.name}-seed{args.seed}.spans.json").write_text(json.dumps(
            {cmd: [list(s) for s in cmd_spans] for cmd, cmd_spans in spans.items()}))
    if missing:
        print("missing (never reached or absent): " + ", ".join(missing))
    print(f"ops_failed {n_failed / attempted:.4f} share ({n_failed} of {attempted} "
          "command invocations)")
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


def write_reference(flows: list[Flow], refs: dict) -> int:
    """Run each dataset's flow once and record its outputs as the reference."""
    entries = []
    for flow in flows:
        entry = {}
        for cmd in COMMANDS:
            code, _, _ = run_child(flow.argv(cmd), flow.work / f"{cmd}.log")
            if flow.expected_code(cmd) not in (None, code):
                print(f"error: {cmd} exited {code}", file=sys.stderr)
                return 1
            entry[cmd] = flow.summary(cmd, code)
        entries.append(entry)
    refs[flows[0].w.name] = {"seed": flows[0].seed, "datasets": entries}
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded the {flows[0].w.name} reference at seed {flows[0].seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

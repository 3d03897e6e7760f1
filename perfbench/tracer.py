"""In-process tracer that wraps erbound's public functions from outside.

Every public function of a layer module is replaced at every binding site
(`pipeline` imports `condensed_pairwise_scores` by name, so patching
`matching` alone would miss it). Most wrappers record a span: name, start,
end and parent span. Hot leaf helpers, called once per pair or per record,
only count their calls, so their time stays in the caller's self time and
the tracing cost stays small.

Counts a wrapper derives from arguments or results are taken after the
wrapped call returns, and that interval is itself recorded as a `trace.count`
span, so it is subtracted from the parent's self time.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

LAYERS = ("cli", "pipeline", "dataset", "matching", "resolver", "metrics", "bounds",
          "records")

# leaf helpers called per pair, per record or per descent step: counted, not spanned
COUNT_ONLY = {
    "matching.levenshtein", "matching.normalized_levenshtein", "matching.featurize_pair",
    "matching.score_pair", "matching.sigmoid", "matching.logistic_loss",
    "matching.logistic_gradient", "matching.base_match", "matching.wrapper_match",
    "records.canonical_value", "records.base_record", "records.merge_records",
    "records.validate_record", "metrics.ordered_pair", "bounds.normal_quantile",
}

COUNT_SPAN = "trace.count"


def _count_condensed(counts, args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs["records"]
    pairs = len(records) * (len(records) - 1) // 2
    counts["matching.condensed_pairwise_scores.pairs"] += pairs
    key = "matching.condensed_bytes"
    counts[key] = max(counts[key], 8 * pairs)


def _count_edges(counts, args, kwargs, result):
    scores = args[1] if len(args) > 1 else kwargs["scores"]
    threshold = args[2] if len(args) > 2 else kwargs["threshold"]
    counts["resolver.components_from_condensed.edges"] += int((scores >= threshold).sum())


def _count_loaded(counts, args, kwargs, result):
    counts["dataset.load_records_csv.records"] += len(result)


# qualified name -> counter run after the call, outside its span
COUNTERS = {
    "matching.condensed_pairwise_scores": _count_condensed,
    "resolver.components_from_condensed": _count_edges,
    "dataset.load_records_csv": _count_loaded,
}


class Tracer:
    """Spans and counts of one traced call, kept in memory.

    `install` patches the package; `uninstall` restores every binding.
    `spans` holds (name, start, end, parent index) tuples, parent -1 for a
    root span."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counted: set[str] = set()

    def reset(self) -> None:
        """Forget spans and counts; a counted helper starts at 0 calls, which
        is its true count when it is never called."""
        self.spans, self._stack = [], []
        self.counts = Counter({f"{qual}.calls": 0 for qual in self.counted})

    def _wrap_span(self, qual, fn):
        counter = COUNTERS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (qual, t0, t1, parent)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
                self.spans.append((COUNT_SPAN, t1, time.perf_counter(), parent))
            return result
        return wrapper

    def _wrap_count(self, qual, fn):
        key = qual + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        pkg = importlib.import_module("erbound")
        modules = [pkg] + [importlib.import_module(f"erbound.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    if qual in COUNT_ONLY:
                        wrappers[id(fn)] = (fn, self._wrap_count(qual, fn))
                        self.counted.add(qual)
                    else:
                        wrappers[id(fn)] = (fn, self._wrap_span(qual, fn))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched = []

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time, number of spans). Self time is a
        span's duration minus the duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = {}
        for k, (name, t0, t1, parent) in enumerate(self.spans):
            if name == COUNT_SPAN:
                continue
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += (t1 - t0) - child[k]
            acc[1] += 1
        return {name: (v[0], v[1]) for name, v in out.items()}

    def root_duration(self) -> float:
        return sum(t1 - t0 for name, t0, t1, parent in self.spans
                   if parent < 0 and name != COUNT_SPAN)

"""Pairwise featurization and the thresholded logistic match function.

Two records are compared feature by feature: categorical features by set
intersection, numeric features by the smallest absolute difference across
the two value sets, text features by the smallest normalized Levenshtein
distance. A logistic model over those features gives a match probability,
and a single cut-off threshold turns it into a boolean match decision.

Records live in one form, the record table `PairColumns`, which codes each
feature column once. Every pair is featurized by one gather on it,
`PairColumns.slots`, which returns the value slots of any index pairs.
Training, validation (`score_pairs`) and test pairs all go through it, and
every score comes from one formula, the logistic function of a logit. The
test pairs are gathered in blocks of rows, each block a view of a range of
rows against the later records, and every block of a call takes its
differences, logits and keep mask in the same three buffers. Of each block
only the pairs scoring at or above a floor are kept, as (rows, cols,
scores) edge arrays from which the resolver and the bounds read every
threshold at or above it. Only the pairs whose logit clears a cut just
below the floor's are passed through the logistic function, and the
n(n-1)/2 scores of all pairs are never held at once. The text edit
distances a gather needs are computed in one vectorized Levenshtein DP
over the value pairs not yet known, and cached as sorted keys. The
per-pair definition the gather reproduces is
`erbound.reference.featurize_pair`, kept there with the scalar edit
distance as their oracles.
"""

import copy
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, asdict, field
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError, SchemaError
from .records import CATEGORICAL, NUMERIC, TEXT, FeatureSchema, Record

MODEL_FORMAT_VERSION = 1


# row blocks of the condensed scores take their (F, k, k, pairs) differences
# in one buffer of about this many elements, 512 KiB of float64, that every
# block of a call reuses. Fresh temporaries per block cost page faults, and
# each block costs a fixed overhead. First call in a fresh process on the
# seed-0 snowball test set at floor 0.5 (medians of 9, shared 2-core host):
# 46 ms at 2^15, 33 ms at 2^16 and 28 ms at 2^17. A 2,000-point sweep of
# 176 records peaks at 856 kB with 2^16; with 2^17 it peaks at 1.47 MB.
# A block of r > 1 rows spans at least r columns, so r is at most the square
# root of this over F k^2: the side of the one triangular mask a call builds.
BLOCK_ELEMENTS = 1 << 16

# the ufunc buffer, in elements, while a gather takes its differences.
# numpy 2.4 copies an operand that broadcasts along the innermost axis (a
# block's row values, against its columns) into the buffer whenever that
# holds two of its rows, and the copy costs more than the subtract: on a
# shared 2-core host the subtract of a 20 x 2,329 block took 60 us with the
# default 8,192 and 15 us with 16, the least numpy accepts, which holds two
# rows only of a block 8 columns wide or less
UFUNC_BUFFER = 16

# bytes that scoring may hold in kept edges and cached edit distances: a
# quarter of physical memory, since labelling and sweeping the edges takes
# further copies of them
try:
    MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 4
except (AttributeError, ValueError, OSError):  # no sysconf: memory unknown
    MEMORY_BUDGET = sys.maxsize


def _code_points(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(U, L) code points of U strings, zero past each end, and their lengths."""
    lengths = np.array([len(s) for s in strings], dtype=np.intp)
    chars = np.zeros((len(strings), lengths.max(initial=0)), dtype=np.uint32)
    chars[np.arange(chars.shape[1]) < lengths[:, None]] = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    return chars, lengths


def _batch_levenshtein(chars: np.ndarray, lengths: np.ndarray,
                       s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Levenshtein distances (unit insert/delete/substitute costs) of the
    strings s[p] and t[p], given as rows of `_code_points`, each divided by
    the longer length (0 for two empty strings). One DP runs over all pairs:
    each step turns every pair's row of distances from a prefix of s to each
    prefix of t into the row for one more character of s."""
    m, n = lengths[s], lengths[t]
    a, b = chars[s, :m.max(initial=0)], chars[t, :n.max(initial=0)]
    steps = np.arange(b.shape[1] + 1)
    row = np.tile(steps, (len(s), 1))
    dist = n.copy()  # s empty: insert all of t
    for i in range(a.shape[1]):
        cost = row[:, :-1] + (a[:, i, None] != b)  # substitute or keep
        np.minimum(cost, row[:, 1:] + 1, out=cost)  # delete s[i]
        row[:, 0], row[:, 1:] = i + 1, cost
        row -= steps  # insertions: row[j] = min over k <= j of row[k] + j - k
        np.minimum.accumulate(row, axis=1, out=row)
        row += steps
        ended = m == i + 1
        dist[ended] = row[ended, n[ended]]
    return dist / np.maximum(np.maximum(m, n), 1)


class PairColumns(Sequence):
    """The record table: record ids, and every feature column coded once
    into one NaN-padded (F, k, n) array, numeric values as they are and
    categorical and text values as indices into `values`, the sorted
    distinct values of each such feature in turn. Records are the last axis,
    so a range of them is a view. `slots` gathers the value slots of any
    index pairs, `table[i]` decodes record i, and `take` keeps some records.

    Text values are also held as code points. The edit distances a gather
    needs and no earlier gather computed are computed in one vectorized DP
    and kept as sorted value-pair keys beside their distances, which every
    gather reads by binary search. `complete` says whether every record
    holds a value of every feature, so that no slot can be missing.
    """

    def __init__(self, schema: FeatureSchema, ids: Sequence[str],
                 columns: Sequence[Sequence[tuple]]):
        """The table of records ids[i] with distinct canonical values
        columns[f][i]; a numeric column may instead be a float array of at
        most one value per record, NaN where it has none."""
        self.schema = schema
        self.ids = list(ids)
        kinds = [feat.kind for feat in schema.features]
        self.categorical = [f for f, kind in enumerate(kinds) if kind == CATEGORICAL]
        self.text = [f for f, kind in enumerate(kinds) if kind == TEXT]
        self.values = []
        strings = []  # the text of each value, "" for a categorical one
        codes = []  # per feature, value -> code
        for kind, column in zip(kinds, columns):
            distinct = [] if kind == NUMERIC else sorted(set().union(*set(column)))
            codes.append({v: len(self.values) + u for u, v in enumerate(distinct)})
            self.values += distinct
            strings += distinct if kind == TEXT else [""] * len(distinct)
        self.chars, self.lengths = _code_points(strings)
        # key lo * U + hi of the codes lo < hi; the int64 maximum ends the
        # array so that a binary search never runs past it
        self.keys, self.distances = np.array([np.iinfo(np.int64).max]), np.array([np.nan])
        sizes = np.array([~np.isnan(column) if isinstance(column, np.ndarray)
                          else [len(v) for v in column] for column in columns], dtype=np.intp)
        self.complete = bool(sizes.all())
        self.cells = np.full((len(kinds), max(1, sizes.max(initial=0)), len(self.ids)), np.nan)
        for f, (kind, column) in enumerate(zip(kinds, columns)):
            if isinstance(column, np.ndarray):  # at most one value per record
                self.cells[f, 0] = column
                continue
            held = np.repeat(np.arange(len(self.ids)), sizes[f])  # the record of each value
            slot = np.arange(len(held)) - np.repeat(np.cumsum(sizes[f]) - sizes[f], sizes[f])
            flat = chain.from_iterable(column)
            self.cells[f, slot, held] = np.fromiter(
                flat if kind == NUMERIC else map(codes[f].__getitem__, flat), float, len(held))
        if np.isfinite(self.cells).sum() != sizes.sum():
            raise DataError("numeric feature values must be finite")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Record:
        """Record i, decoded."""
        slots = ([v for v in slot if v == v] for slot in self.cells[:, :, i].tolist())
        return Record(frozenset({self.ids[i]}), tuple(
            frozenset(slot if feat.kind == NUMERIC else [self.values[int(v)] for v in slot])
            for feat, slot in zip(self.schema.features, slots)))

    def take(self, indices) -> "PairColumns":
        """The table of the records at `indices` in order, under the same codes."""
        table = copy.copy(self)
        table.ids = [self.ids[i] for i in indices]
        held = np.isfinite(self.cells[:, :, indices])
        k = max(1, int(held.sum(axis=1).max(initial=0)))
        table.cells = np.ascontiguousarray(self.cells[:, :k, indices])
        table.complete = bool(held[:, 0].all())
        return table

    def edit_distances(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Normalized edit distances between the text values coded lo and hi."""
        keys = lo * len(self.lengths) + hi
        at = np.searchsorted(self.keys, keys)
        new = np.sort(keys[self.keys[at] != keys])
        if new.size:
            new = new[np.append(True, new[1:] != new[:-1])]  # np.unique imports numpy.ma
            where = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, where, new)
            self.distances = np.insert(self.distances, where, _batch_levenshtein(
                self.chars, self.lengths, *np.divmod(new, len(self.lengths))))
            at = np.searchsorted(self.keys, keys)
        return self.distances[at]

    def slots(self, rows, cols, out: np.ndarray | None = None) -> np.ndarray:
        """(..., F) value slots of the pairs (rows[p], cols[p]) in schema
        order, NaN exactly where a side is missing. `rows` and `cols` index
        the record axis, by index arrays or slices, and `rows` also by a
        tuple such as `np.s_[i:j, None]`, a range of rows on a new axis. Their
        gathers broadcast: equal lengths give (P, F), and rows of shape
        (r, 1), or that range of r rows as a view, against C columns give
        the (r, C, F) grid of every row against every column. A slot is the
        closest match over the two value sets: the least absolute difference
        or edit distance, or for a categorical feature 1 when the sets share
        a value and 0 when not. The slots lie feature-major in memory. With
        `out`, a flat float array of at least F k^2 values per pair, the
        differences are taken in it, and with one value per cell (k = 1) the
        slots are a view of it. The differences are one broadcast subtract
        with the ufunc buffer at `UFUNC_BUFFER`."""
        a = self.cells[(slice(None), slice(None)) + (rows if isinstance(rows, tuple) else (rows,))]
        b = self.cells[:, :, cols]
        # rows on a new axis against columns: (F, k, r, 1) and (F, k, 1, C)
        b = b.reshape(b.shape[:2] + (1,) * (a.ndim - b.ndim) + b.shape[2:])
        a, b = a[:, :, None], b[:, None]
        shape = tuple(map(max, a.shape, b.shape))
        out = np.empty(shape) if out is None else out[:math.prod(shape)].reshape(shape)
        size = np.setbufsize(UFUNC_BUFFER)
        try:  # (F, k, k, ...), NaN at padding; 0 between equal codes
            diff = np.subtract(b, a, out=out)
        finally:
            np.setbufsize(size)
        np.abs(diff, out=diff)
        if shape[1] == 1:  # the least over one value is that value
            closest = diff.reshape(shape[:1] + shape[3:])
        else:
            closest = np.fmin.reduce(diff, axis=(1, 2), out=np.empty(shape[:1] + shape[3:]))
        if self.categorical:  # codes of two different values lie at least 1 apart
            closest[self.categorical] = 1.0 - np.minimum(closest[self.categorical], 1.0)
        if self.text:
            dist = diff[self.text]
            apart = dist > 0
            lo = np.minimum(a[self.text], b[self.text])[apart]  # lo + dist is the other code
            dist[apart] = self.edit_distances(lo.astype(np.int64),
                                              (lo + dist[apart]).astype(np.int64))
            closest[self.text] = np.fmin.reduce(dist, axis=(1, 2))
        return closest.transpose(*range(1, closest.ndim), 0)


@dataclass(frozen=True)
class TrainConfig:
    # l2 near 1/n_pairs keeps scores spread over (0, 1); much weaker
    # regularization saturates them and threshold sweeps lose resolution
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.l2 < np.inf:
            raise ValueError(f"l2 must be nonnegative and finite, got {self.l2}")


@dataclass(frozen=True, eq=False)
class MatchModel:
    """Trained logistic match function plus its decision threshold.

    Standardization (per-slot mean and scale) is stored so scoring is
    self-contained: score = sigmoid(w . (x - mean)/scale + bias).
    """

    schema: FeatureSchema
    weights: np.ndarray
    bias: float
    threshold: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        n = 2 * len(self.schema)
        for name in ("weights", "feature_means", "feature_scales"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != (n,):
                raise SchemaError(f"{name} must have shape ({n},)")
        for name in ("weights", "bias", "feature_means", "feature_scales"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        if not np.all(self.feature_scales > 0):
            raise ValueError("feature scales must be positive")

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "schema": self.schema.to_dict(),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "threshold": float(self.threshold),
            "standardization": {
                "mean": [float(m) for m in self.feature_means],
                "scale": [float(s) for s in self.feature_scales],
            },
            "config": asdict(self.config),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MatchModel":
        if not isinstance(d, Mapping):
            raise DataError("model document is not a JSON object")
        if d.get("format_version") != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {d.get('format_version')!r}")
        try:
            standardization = d["standardization"]
            return cls(
                schema=FeatureSchema.from_dict(d["schema"]),
                weights=[_number(w, "weights") for w in d["weights"]],
                bias=_number(d["bias"], "bias"),
                threshold=_number(d["threshold"], "threshold"),
                feature_means=[_number(m, "standardization.mean")
                               for m in standardization["mean"]],
                feature_scales=[_number(s, "standardization.scale")
                                for s in standardization["scale"]],
                config=TrainConfig(**{k: _number(v, f"config.{k}", k in ("epochs", "seed"))
                                      for k, v in d["config"].items()}),
            )
        except KeyError as exc:
            raise DataError(f"model document has no field {exc}") from exc
        except (TypeError, ValueError, IndexError, AttributeError) as exc:
            raise DataError(f"malformed model document: {exc}") from exc


def _number(value, name: str, integer: bool = False) -> float | int:
    """A JSON number as a float, or with `integer` a JSON integer as an int.
    A JSON string or boolean is no number, though `float` reads "0.5" and
    true as one."""
    if type(value) not in ((int,) if integer else (int, float)):
        kind = "integer" if integer else "number"
        raise DataError(f"model field {name!r} must be a JSON {kind}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise DataError(f"model field {name} must be finite, got an integer "
                        "beyond the float range") from None


def save_model(path, model: MatchModel) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_model(path) -> MatchModel:
    try:
        return MatchModel.from_dict(json.loads(Path(path).read_text(encoding="utf-8-sig")))
    except (DataError, SchemaError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def sigmoid(z, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) of z clipped to [-500, 500], computed in `out`
    (which may be z itself) or in one new array."""
    out = np.empty(np.shape(z)) if out is None else out
    np.clip(z, -500.0, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _loss(z: np.ndarray, weights: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean L2-regularized logistic loss at the logits z = X @ weights + bias.
    The bias is not regularized. Its oracle is `reference.logistic_loss`."""
    # log(1 + exp(-s)) with s = z for y=1 and -z for y=0, computed stably
    s = np.where(y > 0.5, z, -z)
    nll = np.logaddexp(0.0, -s).mean()
    return float(nll + 0.5 * l2 * float(weights @ weights))


def _gradient(z: np.ndarray, weights: np.ndarray, X: np.ndarray,
              y: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """The analytic gradient of `_loss` in (weights, bias) at the logits
    z = X @ weights + bias. Its oracle is `reference.logistic_gradient`."""
    resid = sigmoid(z) - y
    grad_w = X.T @ resid / len(y) + l2 * weights
    grad_b = float(resid.mean())
    return grad_w, grad_b


def fit_logistic(X: np.ndarray, y: np.ndarray,
                 config: TrainConfig) -> tuple[np.ndarray, float, list[float]]:
    """Full-batch gradient descent from zero weights.

    The step size starts at config.learning_rate and is halved whenever a
    step would increase the loss, so the returned per-epoch loss history is
    non-increasing. Each epoch's gradient reads the logits that the loss of
    the accepted step computed. Deterministic.
    """
    w = np.zeros(X.shape[1])
    b = 0.0
    lr = config.learning_rate
    z = X @ w + b
    loss = _loss(z, w, y, config.l2)
    losses = [loss]
    for _ in range(config.epochs):
        grad_w, grad_b = _gradient(z, w, X, y, config.l2)
        for _ in range(60):
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            z_new = X @ w_new + b_new
            new_loss = _loss(z_new, w_new, y, config.l2)
            if new_loss <= loss:
                w, b, z, loss = w_new, b_new, z_new, new_loss
                break
            lr *= 0.5
        losses.append(loss)
    return w, b, losses


def train_match_model(table: PairColumns, pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
                      config: TrainConfig | None = None,
                      threshold: float = 0.5) -> MatchModel:
    """Train the logistic match function on labeled pairs of a record table.

    `pairs` holds (rows, cols, labels) index arrays: pair k is the records
    rows[k] and cols[k], with label 1 for a match and 0 for a mismatch; both
    labels must be present. Features are standardized to zero mean and unit
    scale before the descent, and the standardization is stored in the
    returned model, whose schema is the table's.
    """
    config = config or TrainConfig()
    rows, cols, labels = pairs
    if not len(labels):
        raise DegenerateDataError("no training pairs")
    slots = np.ascontiguousarray(table.slots(rows, cols))  # column sums in pair order
    missing = np.isnan(slots)
    X = np.hstack([np.where(missing, 0.0, slots), missing])
    y = np.asarray(labels, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("labels must be 0 or 1")
    if y.min() == y.max():
        raise DegenerateDataError("training pairs contain only one label")
    if not np.isfinite(X).all():
        raise DataError("non-finite pairwise feature encountered")
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    scales = np.where(stds > 1e-12, stds, 1.0)
    Z = (X - means) / scales
    w, b, _ = fit_logistic(Z, y, config)
    return MatchModel(schema=table.schema, weights=w, bias=b, threshold=threshold,
                      feature_means=means, feature_scales=scales, config=config)


def _scorer(model: MatchModel, table: PairColumns):
    """The logit of the match function of (P, F) value slots of the
    table's pairs, NaN where missing, with the standardization folded into
    the weights: x . w/scale + bias - w . mean/scale, x the slots (0 where
    missing) and missing indicators; `sigmoid` of it is the score. It zeroes
    the missing slots in place, and writes the logits to `out` when given.
    When the table is complete, no slot is missing and the indicator term,
    an exact 0.0, is left out."""
    if table.schema != model.schema:
        raise SchemaError("the records' schema is not the model's")
    w = model.weights / model.feature_scales
    offset = model.bias - float(w @ model.feature_means)
    w_slot, w_missing = w.reshape(2, -1)

    def logit(slots: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = slots.T  # feature-major, as the gather lays its slots out
        if table.complete:
            z = np.matmul(w_slot, x, out=out)
        else:
            missing = np.isnan(x)
            np.copyto(x, 0.0, where=missing)
            z = np.matmul(w_slot, x, out=out)
            z += w_missing @ missing
        z += offset
        return z
    return logit


def score_pairs(model: MatchModel, table: PairColumns, rows, cols) -> np.ndarray:
    """Match probabilities of the pairs (rows[p], cols[p]) of a record table."""
    return sigmoid(_scorer(model, table)(table.slots(rows, cols)))


def score_pair(model: MatchModel, a: Record, b: Record) -> float:
    """Match probability in [0, 1]; symmetric in (a, b)."""
    if len(a.values) != len(model.schema) or len(b.values) != len(model.schema):
        raise SchemaError("record does not conform to the schema (feature count)")
    table = PairColumns(model.schema, [a.record_id, b.record_id], list(zip(a.values, b.values)))
    return float(score_pairs(model, table, [0], [1])[0])


def _logit_cut(floor: float) -> float:
    """A logit below which no score reaches `floor`. `sigmoid` clips the
    logit at -500, so a floor that it reaches there admits every logit.
    Otherwise the cut lies below logit(floor / (1 + 1e-12)), a margin far
    wider than the rounding of `sigmoid` and of this logit, so no pair whose
    score reaches the floor falls below it."""
    if not floor > sigmoid(-500.0):
        return -math.inf
    p = floor / (1.0 + 1e-12)
    return math.log(p / (1.0 - p)) - 1e-9 if p < 1.0 else math.inf


def condensed_pairwise_scores(model: MatchModel, records: PairColumns,
                              floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges (rows, cols, scores) of all unordered pairs of a record
    table that score at or above `floor`: pair k is the records rows[k] <
    cols[k], scoring scores[k], in condensed order (by row, then column).

    Each gather is a block of rows i..i+r-1 against the columns i+1..n-1,
    both read as views of the coded array (the rows as `np.s_[i:i + r,
    None]`), with r chosen so that the gather's differences hold about
    `BLOCK_ELEMENTS` values. Every block takes its differences, logits and
    keep mask in the same three buffers, allocated once per call, and
    appends its pairs j > i whose logit clears `_logit_cut(floor)` to edge
    arrays that grow in place. Every block keeps the (r, width) layout, and
    the logits read the slots feature-major, since the last bit of a
    pair's logit depends on its place in the block. Row i + m meets a
    column at or before it only among the block's first r columns, so one
    upper-triangular mask, built once per call, drops those pairs from
    that r x r corner alone. Once every block is scanned, `sigmoid` turns
    the kept logits into scores in place, and the few pairs scoring below
    the floor are dropped.
    Raises ConfigError once the edge arrays and the cached edit distances
    pass `MEMORY_BUDGET` bytes.
    """
    n = len(records)
    logit = _scorer(model, records)
    cut = _logit_cut(floor)
    n_features, k = records.cells.shape[:2]
    per_pair = n_features * k * k
    # the widest block is one row, or as many rows as fill BLOCK_ELEMENTS
    pairs = max(n - 1, min(BLOCK_ELEMENTS // per_pair, (n - 1) ** 2))
    work, z, above = np.empty(per_pair * pairs), np.empty(pairs), np.empty(pairs, bool)
    # r <= width and r * width <= BLOCK_ELEMENTS // per_pair bound a block of r > 1 rows
    side = max(1, min(n - 1, math.isqrt(BLOCK_ELEMENTS // per_pair)))
    tri = np.triu(np.ones((side, side), dtype=bool))  # tri[m, j]: column j pairs with row m
    edges = [np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0)]
    held = i = 0
    while i < n - 1:
        width = n - 1 - i
        r = min(width, max(1, BLOCK_ELEMENTS // (per_pair * width)))
        slots = records.slots(np.s_[i:i + r, None], np.s_[i + 1:n], work)
        block = logit(slots.reshape(-1, n_features), out=z[:r * width])
        keep = np.greater_equal(block, cut, out=above[:r * width])
        if r > 1:  # row i + m pairs with the columns from i + m + 1
            keep.reshape(r, width)[:, :r] &= tri[:r, :r]
        at = np.flatnonzero(keep)
        if held + len(at) > len(edges[2]):  # grow in place, so no copy coexists
            # by half, but never past every pair still to come
            size = min(len(edges[2]) * 3 // 2, held + width * (width + 1) // 2)
            for part in edges:
                part.resize(max(held + len(at), size), refcheck=False)
        row = at // width
        edges[0][held:held + len(at)] = row + i
        edges[1][held:held + len(at)] = at - row * width + (i + 1)
        edges[2][held:held + len(at)] = block[at]  # logits, until the scan ends
        held += len(at)
        if 16 * len(edges[2]) + records.keys.nbytes + records.distances.nbytes > MEMORY_BUDGET:
            raise ConfigError(
                f"scoring {n} records at or above {floor:g} holds more than "
                f"{MEMORY_BUDGET} bytes of edges and edit distances; a higher "
                f"--threshold or --grid-start keeps fewer pairs")
        i += r
    work = z = above = slots = block = keep = None  # free the workspace before the trim
    for part in edges:
        part.resize(held, refcheck=False)
    sigmoid(edges[2], out=edges[2])
    passed = edges[2] >= floor
    if not passed.all():  # logits just above the cut, scores just below the floor
        for part in edges:
            kept = part[passed]
            part.resize(len(kept), refcheck=False)
            part[:] = kept
    return tuple(edges)

"""Pairwise featurization and the thresholded logistic match function.

Two records are compared feature by feature: categorical features by set
intersection, numeric features by the smallest absolute difference across
the two value sets, text features by the smallest normalized Levenshtein
distance. A logistic model over those features gives a match probability,
and a single cut-off threshold turns it into a boolean match decision.

Every pair is featurized by one gather: `PairColumns` codes each feature
column of a record list once, and `PairColumns.slots` returns the value
slots of any index pairs. Training pairs, validation pairs (`score_pairs`)
and the condensed scores of all test pairs, from which the resolver and the
bounds read every threshold's edges, all go through it, and every score
comes from one formula. The per-pair definition the gather reproduces is
`erbound.reference.featurize_pair`, kept there as its oracle.
"""

import functools
import json
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, DegenerateDataError, SchemaError
from .records import CATEGORICAL, NUMERIC, TEXT, FeatureSchema, Record

MODEL_FORMAT_VERSION = 1


def levenshtein(s: str, t: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    if s == t:
        return 0
    if not s:
        return len(t)
    if not t:
        return len(s)
    prev = list(range(len(t) + 1))
    cur = [0] * (len(t) + 1)
    for i, cs in enumerate(s):
        cur[0] = i + 1
        for j, ct in enumerate(t):
            cost = 0 if cs == ct else 1
            cur[j + 1] = min(cur[j] + 1, prev[j + 1] + 1, prev[j] + cost)
        prev, cur = cur, prev
    return prev[len(t)]


def normalized_levenshtein(s: str, t: str) -> float:
    """Edit distance divided by the longer length, in [0, 1]. Two empty
    strings are identical (0.0)."""
    longest = max(len(s), len(t))
    if longest == 0:
        return 0.0
    return levenshtein(s, t) / longest


class PairColumns:
    """A record list coded once as one NaN-padded (F, k, n) array: numeric
    values as they are, categorical and text values as integer codes into
    their sorted distinct values. Records are the last axis, so a range of
    them is a view. `slots` gathers the value slots of any index pairs; each
    text edit distance is computed the first time a gathered pair needs it.
    """

    def __init__(self, records: Sequence[Record], schema: FeatureSchema):
        if any(len(r.values) != len(schema) for r in records):
            raise SchemaError("record does not conform to the schema (feature count)")
        kinds = [feat.kind for feat in schema.features]
        self.categorical = [f for f, kind in enumerate(kinds) if kind == CATEGORICAL]
        self.text = [f for f, kind in enumerate(kinds) if kind == TEXT]
        coded = sorted({(f, v) for f in self.categorical + self.text
                        for r in records for v in r.values[f]})
        distinct, code = [v for _, v in coded], {fv: u for u, fv in enumerate(coded)}
        self.edit_distance = functools.cache(
            lambda x, y: normalized_levenshtein(distinct[x], distinct[y]))
        sizes = [len(v) for r in records for v in r.values]
        pad = [np.nan] * max([1] + sizes)
        cells = np.empty((len(records), len(kinds), len(pad)))
        for i, r in enumerate(records):
            cells[i] = [(list(v) if kinds[f] == NUMERIC else [code[f, x] for x in v])
                        + pad[len(v):] for f, v in enumerate(r.values)]
        self.cells = np.ascontiguousarray(cells.transpose(1, 2, 0))
        if np.isfinite(self.cells).sum() != sum(sizes):
            raise DataError("numeric feature values must be finite")

    def slots(self, rows, cols) -> np.ndarray:
        """(P, F) value slots of the pairs (rows[p], cols[p]) in schema order,
        NaN exactly where a side is missing; `rows` and `cols` are index arrays
        or slices. A slot is the closest match over the two value sets: the
        least absolute difference or edit distance, or for a categorical
        feature 1 when the sets share a value and 0 when not."""
        a, b = self.cells[:, :, rows][:, :, None], self.cells[:, :, cols][:, None]
        diff = np.abs(b - a)  # (F, k, k, P), NaN at padding; 0 between equal codes
        closest = np.fmin.reduce(diff, axis=(1, 2))
        if self.categorical:  # codes of two different values lie at least 1 apart
            closest[self.categorical] = 1.0 - np.minimum(closest[self.categorical], 1.0)
        if self.text:
            dist = diff[self.text]
            apart = dist > 0
            lo = np.minimum(a[self.text], b[self.text])[apart]  # lo + dist is the other code
            dist[apart] = list(map(self.edit_distance, lo.astype(int).tolist(),
                                   (lo + dist[apart]).astype(int).tolist()))
            closest[self.text] = np.fmin.reduce(dist, axis=(1, 2))
        return closest.T


def _pair_list_slots(pairs: Sequence[tuple], schema: FeatureSchema) -> np.ndarray:
    """Value slots of a list of (a, b, ...) record pairs, in one gather."""
    p = len(pairs)
    columns = PairColumns([pair[0] for pair in pairs] + [pair[1] for pair in pairs], schema)
    return columns.slots(slice(0, p), slice(p, 2 * p))


@dataclass(frozen=True)
class TrainConfig:
    # l2 near 1/n_pairs keeps scores spread over (0, 1); much weaker
    # regularization saturates them and threshold sweeps lose resolution
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


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

    def with_threshold(self, threshold: float) -> "MatchModel":
        return replace(self, threshold=threshold)

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
            return cls(
                schema=FeatureSchema.from_dict(d["schema"]),
                weights=np.array(d["weights"], dtype=float),
                bias=float(d["bias"]),
                threshold=float(d["threshold"]),
                feature_means=np.array(d["standardization"]["mean"], dtype=float),
                feature_scales=np.array(d["standardization"]["scale"], dtype=float),
                config=TrainConfig(**d["config"]),
            )
        except KeyError as exc:
            raise DataError(f"model document has no field {exc}") from exc
        except (TypeError, ValueError, IndexError) as exc:
            raise DataError(f"malformed model document: {exc}") from exc


def save_model(path, model: MatchModel) -> None:
    Path(path).write_text(json.dumps(model.to_dict(), indent=2, sort_keys=True) + "\n")


def load_model(path) -> MatchModel:
    try:
        return MatchModel.from_dict(json.loads(Path(path).read_text()))
    except (DataError, SchemaError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def sigmoid(z):
    z = np.clip(z, -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


def logistic_loss(weights: np.ndarray, bias: float, X: np.ndarray,
                  y: np.ndarray, l2: float) -> float:
    """Mean L2-regularized logistic loss. The bias is not regularized."""
    z = X @ weights + bias
    # log(1 + exp(-s)) with s = z for y=1 and -z for y=0, computed stably
    s = np.where(y > 0.5, z, -z)
    nll = np.logaddexp(0.0, -s).mean()
    return float(nll + 0.5 * l2 * float(weights @ weights))


def logistic_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                      y: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """Analytic gradient of `logistic_loss` in (weights, bias)."""
    resid = sigmoid(X @ weights + bias) - y
    grad_w = X.T @ resid / len(y) + l2 * weights
    grad_b = float(resid.mean())
    return grad_w, grad_b


def fit_logistic(X: np.ndarray, y: np.ndarray,
                 config: TrainConfig) -> tuple[np.ndarray, float, list[float]]:
    """Full-batch gradient descent from zero weights.

    The step size starts at config.learning_rate and is halved whenever a
    step would increase the loss, so the returned per-epoch loss history is
    non-increasing. Deterministic.
    """
    w = np.zeros(X.shape[1])
    b = 0.0
    lr = config.learning_rate
    loss = logistic_loss(w, b, X, y, config.l2)
    losses = [loss]
    for _ in range(config.epochs):
        grad_w, grad_b = logistic_gradient(w, b, X, y, config.l2)
        for _ in range(60):
            w_new = w - lr * grad_w
            b_new = b - lr * grad_b
            new_loss = logistic_loss(w_new, b_new, X, y, config.l2)
            if new_loss <= loss:
                break
            lr *= 0.5
        else:
            losses.append(loss)
            continue
        w, b, loss = w_new, b_new, new_loss
        losses.append(loss)
    return w, b, losses


def train_match_model(pairs: Sequence[tuple[Record, Record, int]],
                      schema: FeatureSchema,
                      config: TrainConfig | None = None,
                      threshold: float = 0.5) -> MatchModel:
    """Train the logistic match function on labeled record pairs.

    `pairs` holds (record, record, label) triples with label 1 for a match
    and 0 for a mismatch; both labels must be present. Features are
    standardized to zero mean and unit scale before the descent, and the
    standardization is stored in the returned model.
    """
    config = config or TrainConfig()
    if not pairs:
        raise DegenerateDataError("no training pairs")
    slots = np.ascontiguousarray(_pair_list_slots(pairs, schema))  # column sums in pair order
    missing = np.isnan(slots)
    X = np.hstack([np.where(missing, 0.0, slots), missing])
    y = np.array([label for _, _, label in pairs], dtype=float)
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
    return MatchModel(schema=schema, weights=w, bias=b, threshold=threshold,
                      feature_means=means, feature_scales=scales, config=config)


def _scorer(model: MatchModel):
    """The match function of (P, F) value slots, NaN where missing, with the
    standardization folded into the weights: sigmoid(x . w/scale + bias -
    w . mean/scale), x the slots (0 where missing) and missing indicators."""
    w = model.weights / model.feature_scales
    offset = model.bias - float(w @ model.feature_means)
    w_slot, w_missing = w.reshape(2, -1)

    def score(slots: np.ndarray) -> np.ndarray:
        x = slots.T  # feature-major, as the gather lays its slots out
        missing = np.isnan(x)
        return sigmoid(w_slot @ np.where(missing, 0.0, x) + w_missing @ missing + offset)
    return score


def score_pairs(model: MatchModel, pairs: Sequence[tuple]) -> np.ndarray:
    """Match probabilities of the (a, b, ...) record pairs in a list."""
    return _scorer(model)(_pair_list_slots(pairs, model.schema))


def score_pair(model: MatchModel, a: Record, b: Record) -> float:
    """Match probability in [0, 1]; symmetric in (a, b)."""
    return float(score_pairs(model, [(a, b)])[0])


def condensed_pairwise_scores(model: MatchModel,
                              records: Sequence[Record]) -> np.ndarray:
    """Scores for all unordered record pairs, in condensed order: pair
    (i, j) with i < j sits at index i*n - i*(i+1)/2 + (j - i - 1).

    The records are coded once, and each row i is one gather of the pairs
    (i, j), j > i, from views of the coded array.
    """
    n = len(records)
    out = np.empty(n * (n - 1) // 2)
    columns, score = PairColumns(records, model.schema), _scorer(model)
    pos = 0
    for i in range(n - 1):
        out[pos:pos + n - 1 - i] = score(columns.slots(slice(i, i + 1), slice(i + 1, n)))
        pos += n - 1 - i
    return out

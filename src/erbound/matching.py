"""Pairwise featurization and the thresholded logistic match function.

Two records are compared feature by feature: categorical features by set
intersection, numeric features by the smallest absolute difference across
the two value sets, text features by the smallest normalized Levenshtein
distance. A logistic model over those features gives a match probability,
and a single cut-off threshold turns it into a boolean match decision.
Scoring every pair of a record set once yields a condensed score array,
from which the resolver and the bounds read every threshold's edges.
Every schema is scored by one vectorized pass, with each column's distinct
values coded once; `featurize_pair` and `score_pair` stay the per-pair
definition that training and validation use.
"""

import json
from dataclasses import dataclass, asdict, field, replace
from itertools import combinations, product
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


def featurize_pair(a: Record, b: Record, schema: FeatureSchema) -> np.ndarray:
    """Pairwise feature vector of length 2F: F similarity/distance slots in
    schema order, then F missing indicators in schema order.

    Multi-valued features use the closest match across the cross product of
    the two value sets. A feature missing on either side gets slot 0 and
    indicator 1. Symmetric in (a, b).
    """
    n = len(schema)
    if len(a.values) != n or len(b.values) != n:
        raise SchemaError("record does not conform to the schema (feature count)")
    slots = np.zeros(2 * n)
    for i, feat in enumerate(schema.features):
        va, vb = a.values[i], b.values[i]
        if not va or not vb:
            slots[n + i] = 1.0
            continue
        if feat.kind == CATEGORICAL:
            slots[i] = 1.0 if (va & vb) else 0.0
        elif feat.kind == NUMERIC:
            slots[i] = min(abs(x - y) for x, y in product(va, vb))
        else:  # TEXT
            slots[i] = min(normalized_levenshtein(x, y) for x, y in product(va, vb))
    return slots


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
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "feature_means", np.asarray(self.feature_means, dtype=float))
        object.__setattr__(self, "feature_scales", np.asarray(self.feature_scales, dtype=float))
        n = 2 * len(self.schema)
        for name in ("weights", "feature_means", "feature_scales"):
            if getattr(self, name).shape != (n,):
                raise SchemaError(f"{name} must have shape ({n},)")
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
    X = np.stack([featurize_pair(a, b, schema) for a, b, _ in pairs])
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
    return MatchModel(
        schema=schema,
        weights=w,
        bias=b,
        threshold=threshold,
        feature_means=means,
        feature_scales=scales,
        config=config,
    )


def score_pair(model: MatchModel, a: Record, b: Record) -> float:
    """Match probability in [0, 1]; symmetric in (a, b)."""
    z = (featurize_pair(a, b, model.schema) - model.feature_means) / model.feature_scales
    return float(sigmoid(model.weights @ z + model.bias))


def _slot_order(schema: FeatureSchema) -> list[int]:
    """Schema indices in `_pair_slots` column order: numeric features first."""
    return sorted(range(len(schema)), key=lambda f: schema.features[f].kind != NUMERIC)


def _pair_slots(records: Sequence[Record], schema: FeatureSchema):
    """Yield, for each i < n - 1, the `featurize_pair` value slots of the
    pairs (i, j), j > i: an (n - 1 - i, F) array in `_slot_order` columns,
    NaN exactly where a side is missing.

    Each column is encoded once: numeric features as one NaN-padded
    (n, F_num, k) array; each categorical or text feature as codes into its
    sorted distinct values, padded with code U. A text feature also gets a
    (U+1)x(U+1) edit-distance table whose padding row and column are NaN;
    categorical codes are compared for equality. A slot is the NaN-ignoring
    minimum over the cross product of the two value sets.
    """
    n, m = len(records), len(schema)
    if any(len(r.values) != m for r in records):
        raise SchemaError("record does not conform to the schema (feature count)")
    numeric = [f for f, feat in enumerate(schema.features) if feat.kind == NUMERIC]
    width = max([1] + [len(r.values[f]) for r in records for f in numeric])
    values = np.full((n, len(numeric), width), np.nan)
    for i, r in enumerate(records):
        for c, f in enumerate(numeric):
            values[i, c, :len(r.values[f])] = list(r.values[f])
    coded = []
    for f in _slot_order(schema)[len(numeric):]:
        distinct = sorted(set().union(*(r.values[f] for r in records)))
        code = {v: u for u, v in enumerate(distinct)}
        u_pad = len(distinct)
        codes = np.full((n, max([1] + [len(r.values[f]) for r in records])), u_pad)
        for i, r in enumerate(records):
            codes[i, :len(r.values[f])] = [code[v] for v in r.values[f]]
        table = None
        if schema.features[f].kind == TEXT:  # one edit distance per distinct pair
            table = np.zeros((u_pad + 1, u_pad + 1))
            table[u_pad] = table[:, u_pad] = np.nan
            for a, b in combinations(range(u_pad), 2):
                table[a, b] = table[b, a] = normalized_levenshtein(distinct[a], distinct[b])
        coded.append((codes, u_pad, table))
    for i in range(n - 1):
        slots = np.empty((n - 1 - i, m))
        diffs = np.abs(values[i + 1:, :, :, None] - values[i, :, None, :])
        slots[:, :len(numeric)] = np.fmin.reduce(diffs, axis=(2, 3))
        for c, (codes, u_pad, table) in enumerate(coded, start=len(numeric)):
            if table is None:  # categorical: 0 at record i's values, else 1
                nearest = np.full(u_pad + 1, np.nan if codes[i, 0] == u_pad else 1.0)
                nearest[codes[i]] = 0.0
                nearest[u_pad] = np.nan
            else:
                nearest = np.fmin.reduce(table[codes[i]], axis=0)
            closest = np.fmin.reduce(nearest[codes[i + 1:]], axis=1)
            slots[:, c] = closest if table is not None else 1.0 - closest
        yield slots


def condensed_pairwise_scores(model: MatchModel,
                              records: Sequence[Record]) -> np.ndarray:
    """Scores for all unordered record pairs, in condensed order: pair
    (i, j) with i < j sits at index i*n - i*(i+1)/2 + (j - i - 1).

    One vectorized pass for every schema: each row's slots come from
    `_pair_slots`, and the standardization is folded into the weights, so
    score = sigmoid(x . w/scale + bias - w . mean/scale).
    """
    out = np.empty(len(records) * (len(records) - 1) // 2)
    w = model.weights / model.feature_scales
    offset = model.bias - float(w @ model.feature_means)
    w_slot, w_missing = w.reshape(2, -1)[:, _slot_order(model.schema)]
    pos = 0
    for slots in _pair_slots(records, model.schema):
        missing = np.isnan(slots)
        slots[missing] = 0.0
        out[pos:pos + len(slots)] = sigmoid(slots @ w_slot + missing @ w_missing + offset)
        pos += len(slots)
    return out

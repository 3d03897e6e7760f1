"""Record model: multi-valued features with provenance.

A `Record` is a bundle of per-feature value *sets* plus the set of
base-record ids it stands for. No command builds one: the commands keep
records in the record table `matching.PairColumns`. `Record` stays here
because `table[i]` decodes into one and `matching.score_pair` scores two,
which the benchmark's checker uses to re-score sampled pairs; the
engines in `erbound.reference` build, merge and resolve them.
"""

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import SchemaError

CATEGORICAL = "categorical"
NUMERIC = "numeric"
TEXT = "text"
KINDS = (CATEGORICAL, NUMERIC, TEXT)


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("feature name must be a nonempty string")
        if self.kind not in KINDS:
            raise SchemaError(
                f"unknown kind {self.kind!r} for feature {self.name!r}; "
                f"expected one of {KINDS}"
            )


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations. Order is load-bearing: featurization
    and the positional layout of Record.values both follow it."""

    features: tuple[Feature, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def to_dict(self) -> dict:
        return {"features": [{"name": f.name, "kind": f.kind} for f in self.features]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "FeatureSchema":
        try:
            feats = tuple(Feature(f["name"], f["kind"]) for f in d["features"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema document: {exc}") from exc
        if not feats:
            raise SchemaError("schema has no features")
        return cls(feats)


def canonical_value(raw, kind: str):
    """Canonicalize one atomic value for set-equality comparison.

    Text and categorical values are trimmed and case-folded; numeric values
    are parsed to finite floats. Raises SchemaError on a value that cannot
    conform to the kind.
    """
    if kind == NUMERIC:
        try:
            v = float(raw)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"not a numeric value: {raw!r}") from exc
        if not math.isfinite(v):
            raise SchemaError(f"numeric value must be finite, got {raw!r}")
        return v
    if kind in (CATEGORICAL, TEXT):
        if not isinstance(raw, str):
            raise SchemaError(f"expected a string for {kind} value, got {raw!r}")
        return raw.strip().casefold()
    raise SchemaError(f"unknown feature kind {kind!r}")


@dataclass(frozen=True)
class Record:
    """An immutable record: provenance ids plus one value set per schema
    feature, positionally aligned with the schema. An empty value set means
    the feature is missing."""

    base_ids: frozenset[str]
    values: tuple[frozenset, ...]

    @property
    def record_id(self) -> str:
        if len(self.base_ids) != 1:
            raise ValueError("composite record has no single id")
        return next(iter(self.base_ids))

"""Reference engines: slow, direct implementations that the tests hold the
production path to, and the code only tests and examples use. No
production module imports this one.

- `base_record`, which canonicalizes raw values into a `Record`, and
  `record_table`, which codes `Record`s into a `matching.PairColumns`.
- The per-pair featurization and score, which the production gather
  `matching.PairColumns` and its one scoring formula reproduce, and the
  scalar edit distance, which its batch Levenshtein DP reproduces.
- R-Swoosh, the iterative match/merge fixpoint (Benjelloun et al.,
  "Swoosh: a generic approach to entity resolution", VLDB J. 2009), with
  set-union merge of records.
- Connected components of a match predicate evaluated on every pair,
  collected by graph search.
- The thresholded base-record match predicate, and a dict score table with
  a predicate backed by it.
- Pairwise precision, recall and F1 by set algebra on materialized pairs.
- The snowball experiment, read from `pipeline.sweep_thresholds` rows.

With the max-over-constituents match rule and set-union merge, the fixpoint
equals the connected components of the direct-match graph, which is what
`resolver.components_from_condensed` labels from the scored edge list. Both
resolvers here return that partition of the record ids as a frozenset of
frozensets. The dict score table takes every pair's score from the edge
list at floor 0, which every score clears.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bounds import f1_lower_bound
from .dataset import GoldTruth, Pair, SplitSpec, generate_synthetic
from .errors import DataError, DegenerateDataError, SchemaError
from .matching import MatchModel, PairColumns, condensed_pairwise_scores, sigmoid
from .pipeline import SweepRow, select_best_row, sweep_thresholds, train_pipeline
from .records import CATEGORICAL, NUMERIC, FeatureSchema, Record, canonical_value


def base_record(schema: FeatureSchema, record_id: str,
                values: Mapping[str, Iterable] | None = None) -> Record:
    """Build a canonicalized base record. `values` maps feature names to
    iterables of raw values; omitted features are missing."""
    if not isinstance(record_id, str) or not record_id:
        raise SchemaError("record id must be a nonempty string")
    values = values or {}
    unknown = set(values) - set(schema.names)
    if unknown:
        raise SchemaError(f"values for features not in schema: {sorted(unknown)}")
    slots = []
    for feat in schema.features:
        raw = values.get(feat.name, ())
        try:
            slots.append(frozenset(canonical_value(v, feat.kind) for v in raw))
        except SchemaError as exc:
            raise SchemaError(f"feature {feat.name!r}: {exc}") from exc
    return Record(frozenset({record_id}), tuple(slots))


def record_table(records: Sequence[Record], schema: FeatureSchema) -> PairColumns:
    """The record table of base records, in order: each feature's column
    is the records' value sets of it."""
    if any(len(r.values) != len(schema) for r in records):
        raise SchemaError("record does not conform to the schema (feature count)")
    return PairColumns(schema, [r.record_id for r in records],
                       [[r.values[f] for r in records] for f in range(len(schema))])


def levenshtein(s: str, t: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
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
    """Pairwise feature vector of length 2F: F slots in schema order, each
    the closest match across the cross product of the two value sets (0
    where a side is missing), then F missing indicators. Symmetric in (a, b).
    """
    n = len(schema)
    if len(a.values) != n or len(b.values) != n:
        raise SchemaError("record does not conform to the schema (feature count)")
    slots = np.zeros(2 * n)
    for i, feat in enumerate(schema.features):
        va, vb = a.values[i], b.values[i]
        if not va or not vb:
            slots[n + i] = 1.0
        elif feat.kind == CATEGORICAL:
            slots[i] = 1.0 if (va & vb) else 0.0
        elif feat.kind == NUMERIC:
            slots[i] = min(abs(x - y) for x, y in product(va, vb))
        else:  # TEXT
            slots[i] = min(normalized_levenshtein(x, y) for x, y in product(va, vb))
    return slots


def pair_score(model: MatchModel, a: Record, b: Record) -> float:
    """Match probability of one pair from `featurize_pair`, standardized
    before the weights: sigmoid(w . (x - mean)/scale + bias)."""
    z = (featurize_pair(a, b, model.schema) - model.feature_means) / model.feature_scales
    return float(sigmoid(model.weights @ z + model.bias))


def merge_records(o1: Record, o2: Record) -> Record:
    """Set-union merge: union the provenance ids and every feature's values.

    Commutative, associative, and idempotent; never discards a value.
    """
    if len(o1.values) != len(o2.values):
        raise SchemaError(
            f"cannot merge records with {len(o1.values)} and "
            f"{len(o2.values)} features"
        )
    return Record(
        o1.base_ids | o2.base_ids,
        tuple(a | b for a, b in zip(o1.values, o2.values)),
    )


def base_match(model: MatchModel, a: Record, b: Record) -> bool:
    """Thresholded match between two base records. Identical records match
    at any threshold, which makes the predicate idempotent."""
    if len(a.base_ids) != 1 or len(b.base_ids) != 1:
        raise ValueError("base_match takes base records, not merged ones")
    if a == b:
        return True
    return pair_score(model, a, b) >= model.threshold


def pairwise_scores(model: MatchModel,
                    records: Sequence[Record]) -> dict[tuple[str, str], float]:
    """Score every unordered pair of base records, keyed by the sorted id
    pair. All inputs must be base records with distinct ids."""
    table = record_table(records, model.schema)
    if len(set(table.ids)) != len(table):
        raise DataError("duplicate record ids")
    condensed = iter(condensed_pairwise_scores(model, table, 0.0)[2].tolist())
    return {(a, b) if a < b else (b, a): next(condensed)
            for a, b in combinations(table.ids, 2)}


def matcher_from_scores(scores: Mapping[tuple[str, str], float], threshold: float,
                        ) -> Callable[[Record, Record], bool]:
    """Base-record match predicate backed by a precomputed score table.
    Equivalent to base_match for the model/threshold the table came from."""
    def match(a: Record, b: Record) -> bool:
        if len(a.base_ids) != 1 or len(b.base_ids) != 1:
            raise ValueError("scored matcher takes base records")
        if a == b:
            return True
        ia, ib = a.record_id, b.record_id
        key = (ia, ib) if ia < ib else (ib, ia)
        return scores[key] >= threshold
    return match


def _check_base_inputs(records: Sequence[Record]) -> None:
    """Resolver inputs must be base records with distinct ids."""
    if any(len(r.base_ids) != 1 for r in records):
        raise DataError("resolver inputs must be base records")
    if len({r.record_id for r in records}) != len(records):
        raise DataError("duplicate record ids in resolver input")


def resolve_rswoosh(records: Sequence[Record],
                    match: Callable[[Record, Record], bool],
                    merge: Callable[[Record, Record], Record]) -> frozenset[frozenset[str]]:
    """Iterative match/merge fixpoint (R-Swoosh).

    Maintains a resolved set; each pending record is compared against it,
    and on the first match the partner is pulled out, merged in, and the
    merge is reprocessed. When match and merge are idempotent, commutative,
    associative, and representative, the output partition does not depend
    on input order. Terminates because every merge strictly grows the
    provenance set.
    """
    _check_base_inputs(records)
    pending = deque(records)
    resolved: list[Record] = []
    while pending:
        rec = pending.popleft()
        partner = next((k for k, other in enumerate(resolved) if match(rec, other)), None)
        if partner is None:
            resolved.append(rec)
        else:
            other = resolved.pop(partner)
            pending.append(merge(rec, other))
    return frozenset(rec.base_ids for rec in resolved)


def candidate_pairs(records: Sequence[Record]) -> Iterator[tuple[int, int]]:
    """All unordered index pairs."""
    return combinations(range(len(records)), 2)


def resolve_connected_components(records: Sequence[Record],
                                 base_match: Callable[[Record, Record], bool],
                                 ) -> frozenset[frozenset[str]]:
    """Cluster base records as connected components of the direct-match
    graph, asking the predicate about every pair and collecting each
    component by graph search. Deterministic for any edge order."""
    _check_base_inputs(records)
    neighbours: dict[int, set[int]] = {k: set() for k in range(len(records))}
    for i, j in candidate_pairs(records):
        if base_match(records[i], records[j]):
            neighbours[i].add(j)
            neighbours[j].add(i)
    unseen, groups = set(neighbours), set()
    while unseen:
        component, frontier = set(), {min(unseen)}
        while frontier:
            component |= frontier
            frontier = set().union(*(neighbours[k] for k in frontier)) - component
        unseen -= component
        groups.add(frozenset(records[k].record_id for k in component))
    return frozenset(groups)


def intra_cluster_pairs(partition: Iterable[Iterable[str]]) -> frozenset[Pair]:
    """Every unordered pair of ids that share a cluster."""
    pairs = set()
    for members in partition:
        pairs.update(combinations(sorted(members), 2))
    return frozenset(pairs)


@dataclass(frozen=True)
class PairMetrics:
    precision: float
    recall: float
    f1: float


def pair_metrics(predicted: Iterable[Pair], truth: Iterable[Pair]) -> PairMetrics:
    """Pairwise precision, recall, and F1 of two pair sets.

    An empty predicted set has precision 1.0 and an empty truth set has
    recall 1.0, so sweeps stay defined at extreme thresholds.
    """
    predicted = frozenset(predicted)
    truth = frozenset(truth)
    hit = len(predicted & truth)
    precision = hit / len(predicted) if predicted else 1.0
    recall = hit / len(truth) if truth else 1.0
    return PairMetrics(precision, recall, f1_lower_bound(precision, recall))


@dataclass(frozen=True)
class DegradationResult:
    """Numbers behind the snowball experiment: tune on a small labeled set,
    watch precision collapse on a 10x test set, then recover by re-tuning
    the threshold on the large set's estimated F1 lower bound."""

    threshold_original: float
    precision_small: float
    precision_large_original: float
    threshold_optimized: float
    precision_large_optimized: float
    sweep_rows: list[SweepRow] = field(repr=False, default_factory=list)


def degradation_experiment(seed: int = 7) -> DegradationResult:
    """Tune a threshold for true F1 on a small labeled dataset, measure true
    precision of that threshold on a fresh small and a fresh 10x dataset,
    then re-tune on the large dataset's estimated F1 lower bound. The sets
    hold 10, 10 and 100 entities of `generate_synthetic`'s default records.

    Every number comes from `sweep_thresholds` rows: a gold sweep over the
    labeled pool picks the original threshold (best true F1, ties to the
    lower threshold), a one-point gold sweep measures the small set, and
    one gold sweep of the large set gives both the bound-selected threshold
    and the true precision at either threshold. The returned rows are the
    large set's, in threshold order."""
    grid = np.linspace(0.02, 0.98, 49)
    labeled, labeled_gold = generate_synthetic(10, seed=seed)
    model, split, val_scores = train_pipeline(
        labeled, labeled_gold, SplitSpec(n_train_pairs=100, n_validation_pairs=100, seed=seed))

    def gold_sweep(records: PairColumns, gold: GoldTruth, thresholds) -> list[SweepRow]:
        sweep = sweep_thresholds(model, records, val_scores, split.validation_pairs.labels,
                                 thresholds, gold=gold)
        return [row for row, _ in sweep][::-1]

    # rows come in threshold order and max keeps the first of tied rows
    t_orig = max(gold_sweep(labeled, labeled_gold, grid),
                 key=lambda row: row.true_f1).threshold

    small, small_gold = generate_synthetic(10, seed=seed + 1)
    large, large_gold = generate_synthetic(100, seed=seed + 2)
    p_small = gold_sweep(small, small_gold, [t_orig])[0].true_precision
    rows = gold_sweep(large, large_gold, grid)
    best = select_best_row(rows)
    if best is None:
        raise DegenerateDataError("no threshold produced a defined F1 lower bound")
    p_large = next(row.true_precision for row in rows if row.threshold == t_orig)
    return DegradationResult(t_orig, p_small, p_large, best.threshold,
                             best.true_precision, rows)

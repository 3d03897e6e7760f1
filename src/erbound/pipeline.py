"""End-to-end wiring: train on a split, sweep thresholds, resolve and bound.

A sweep scores every test pair once (scores do not depend on the
threshold) and keeps the pairs at or above the lowest grid threshold as
(rows, cols, scores) edge arrays, then passes down the grid once: it labels
every test record with its connected component at the top threshold and
merges each lower score band into the labels of the band above. Each
threshold counts |R| (and, with gold, true hits) as pairs sharing a label
(a band that merged no edge keeps the counts of the row above), reads its
validation confusion (one sort gives every threshold's), and takes the
row's bound fields from `compute_bound_report`, which leaves the
precision/F1 bound None where it is undefined. Rows are yielded with their
labels and kept only by the caller, whatever the grid's length.

`sweep_thresholds` is the only code that turns scores and a threshold into
counts, bounds and true metrics: `resolve` is a one-point sweep, and the
snowball experiment reads every number it reports from sweep rows.
"""

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .bounds import ValidationStats, compute_bound_report, f1_lower_bound
from .dataset import (GoldTruth, LabeledPairs, Split, SplitSpec, generate_synthetic,
                      split_dataset, synthetic_schema)
from .errors import ConfigError, DegenerateDataError
from .matching import (MatchModel, PairColumns, TrainConfig,
                       condensed_pairwise_scores, score_pairs, train_match_model)
from .resolver import components_by_threshold


def score_labeled_pairs(model: MatchModel, table: PairColumns,
                        pairs: LabeledPairs) -> np.ndarray:
    """The scores of (rows, cols, labels) index pairs of a record table,
    in pair order, from one gather."""
    return score_pairs(model, table, pairs.rows, pairs.cols)


def train_pipeline(table: PairColumns, gold: GoldTruth, split_spec: SplitSpec,
                   config: TrainConfig | None = None,
                   threshold: float = 0.5) -> tuple[MatchModel, Split, np.ndarray]:
    """Split the labeled pool, train the match model on the train pairs,
    and score the validation pairs once: the model, the split, and the
    scores of `split.validation_pairs` in pair order."""
    split = split_dataset(table, gold, split_spec)
    if len(split.validation_pairs.labels) < 2:
        raise ConfigError("validation split needs at least 2 labeled pairs")
    model = train_match_model(table, split.train_pairs, config, threshold=threshold)
    return model, split, score_labeled_pairs(model, table, split.validation_pairs)


@dataclass(frozen=True)
class SweepRow:
    """One grid threshold of a sweep. Bound fields are None when the bound
    is undefined at that threshold; true_* fields are None without gold."""

    threshold: float
    r_pairs: int
    tm_pairs: int
    c_t: float | None = None
    precision_lb: float | None = None
    precision_lb_lo: float | None = None
    precision_lb_hi: float | None = None
    recall_lb: float | None = None
    recall_lb_lo: float | None = None
    recall_lb_hi: float | None = None
    f1_lb: float | None = None
    f1_lb_lo: float | None = None
    f1_lb_hi: float | None = None
    true_precision: float | None = None
    true_recall: float | None = None
    true_f1: float | None = None


SELECT_METRICS = ("precision_lb", "recall_lb", "f1_lb")


def _pairs_within(keys: np.ndarray) -> int:
    """Pairs of items that share a key: the sum of c(c-1)/2 over key counts."""
    counts = np.unique(keys, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def select_best_row(rows: Sequence[SweepRow], select_metric: str = "f1_lb",
                    recall_floor: float | None = None) -> SweepRow | None:
    """Row maximizing the chosen bound metric, optionally subject to a
    recall-bound floor; ties go to the lower threshold."""
    if select_metric not in SELECT_METRICS:
        raise ConfigError(f"unknown selection metric {select_metric!r}")
    best = None
    for row in sorted(rows, key=lambda r: r.threshold):
        value = getattr(row, select_metric)
        if value is None:
            continue
        if recall_floor is not None and (row.recall_lb is None or row.recall_lb < recall_floor):
            continue
        if best is None or value > getattr(best, select_metric):
            best = row
    return best


def sweep_thresholds(model: MatchModel, test_records: PairColumns,
                     val_scores: np.ndarray, val_labels: np.ndarray,
                     thresholds: Sequence[float], *,
                     gold: GoldTruth | None = None,
                     c_t_override: float | None = None,
                     confidence: float = 0.95) -> Iterator[tuple[SweepRow, np.ndarray]]:
    """Evaluate bounds (and true metrics with `gold`) across a threshold
    grid on the test records, yielding each threshold's row and component
    labels, highest threshold first. Each threshold must lie strictly inside
    (0, 1); a repeated threshold gives one row per repeat. The checks of
    the thresholds and of the validation arrays, the validation confusion
    at every threshold, and the scoring pass, which keeps only the test
    pairs at or above the lowest threshold, run before this returns; |T_M|
    at each threshold is the count of kept scores that clear it."""
    bad = [float(t) for t in thresholds if not 0.0 < t < 1.0]
    if bad or not len(thresholds):
        raise ConfigError(f"thresholds must lie strictly inside (0, 1), got {bad or 'none'}")
    n = len(test_records)
    if n < 2:
        raise ConfigError("needs at least 2 test records")
    stats = dict(zip(np.asarray(thresholds, dtype=float).tolist(),  # the float t each row gets
                     ValidationStats.from_scores(val_scores, val_labels, thresholds)))
    rows, cols, scores = condensed_pairwise_scores(model, test_records, float(min(thresholds)))
    if gold is not None:
        labeled = [k for k, rid in enumerate(test_records.ids) if rid in gold.labels]
        entity = np.unique([gold.labels[test_records.ids[k]] for k in labeled],
                           return_inverse=True)[1]
        truth_total = _pairs_within(entity)

    def swept() -> Iterator[tuple[SweepRow, np.ndarray]]:
        r_above = tm_above = 0  # the counts of the row yielded before
        labels_above = None
        for t, labels, tm_pairs in components_by_threshold(n, scores, thresholds, rows, cols):
            if labels is not labels_above:  # the same labels when the band merged nothing
                r_pairs = _pairs_within(labels)
                if gold is not None:
                    hits = _pairs_within(entity * n + labels[labeled])
            if r_pairs < r_above or tm_pairs < tm_above:
                raise AssertionError(
                    "pair counts increased with the threshold; "
                    "the resolver violated edge-removal monotonicity"
                )
            row = {"threshold": t, "r_pairs": r_pairs, "tm_pairs": tm_pairs}
            row.update(compute_bound_report(stats[t], tm_pairs, r_pairs, n * (n - 1) // 2,
                                            c_t=c_t_override, confidence=confidence))
            if gold is not None:
                precision = hits / r_pairs if r_pairs else 1.0
                recall = hits / truth_total if truth_total else 1.0
                row.update(true_precision=precision, true_recall=recall,
                           true_f1=f1_lower_bound(precision, recall))
            r_above, tm_above, labels_above = r_pairs, tm_pairs, labels
            yield SweepRow(**row), labels
    return swept()


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

    def synthetic(n_entities: int, data_seed: int) -> tuple[PairColumns, GoldTruth]:
        records, gold = generate_synthetic(n_entities, seed=data_seed)
        return PairColumns(records, synthetic_schema(10)), gold

    labeled, labeled_gold = synthetic(10, seed)
    model, split, val_scores = train_pipeline(
        labeled, labeled_gold, SplitSpec(n_train_pairs=100, n_validation_pairs=100, seed=seed))

    def gold_sweep(records, gold, thresholds) -> list[SweepRow]:
        sweep = sweep_thresholds(model, records, val_scores, split.validation_pairs.labels,
                                 thresholds, gold=gold)
        return [row for row, _ in sweep][::-1]

    # rows come in threshold order and max keeps the first of tied rows
    t_orig = max(gold_sweep(labeled, labeled_gold, grid),
                 key=lambda row: row.true_f1).threshold

    small, small_gold = synthetic(10, seed + 1)
    large, large_gold = synthetic(100, seed + 2)
    p_small = gold_sweep(small, small_gold, [t_orig])[0].true_precision
    rows = gold_sweep(large, large_gold, grid)
    best = select_best_row(rows)
    if best is None:
        raise DegenerateDataError("no threshold produced a defined F1 lower bound")
    p_large = next(row.true_precision for row in rows if row.threshold == t_orig)
    return DegradationResult(t_orig, p_small, p_large, best.threshold,
                             best.true_precision, rows)

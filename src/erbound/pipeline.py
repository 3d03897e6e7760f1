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
snowball experiment (`reference.degradation_experiment`) reads every
number it reports from sweep rows.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bounds import ValidationStats, compute_bound_report, f1_lower_bound
from .dataset import GoldTruth, LabeledPairs, Split, SplitSpec, split_dataset
from .errors import ConfigError
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
    # ascending: `components_by_threshold` yields highest first, repeats included, so each
    # row pops its own stats off the end
    stats = ValidationStats.from_scores(val_scores, val_labels, np.sort(thresholds))
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
            row.update(compute_bound_report(stats.pop(), tm_pairs, r_pairs, n * (n - 1) // 2,
                                            c_t=c_t_override, confidence=confidence))
            if gold is not None:
                precision = hits / r_pairs if r_pairs else 1.0
                recall = hits / truth_total if truth_total else 1.0
                row.update(true_precision=precision, true_recall=recall,
                           true_f1=f1_lower_bound(precision, recall))
            r_above, tm_above, labels_above = r_pairs, tm_pairs, labels
            yield SweepRow(**row), labels
    return swept()

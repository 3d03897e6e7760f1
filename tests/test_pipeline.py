import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from erbound import matching
from erbound.bounds import ValidationStats, compute_bound_report, f1_lower_bound, wilson_interval
from erbound.dataset import SplitSpec, generate_synthetic
from erbound.errors import ConfigError
from erbound.matching import condensed_pairwise_scores
from erbound.pipeline import (
    select_best_row,
    sweep_thresholds,
    train_pipeline,
)
from erbound.reference import (
    base_match,
    degradation_experiment,
    intra_cluster_pairs,
    pair_metrics,
    pairs_from_labels,
    resolve_connected_components,
)
from erbound.resolver import components_from_condensed

from conftest import all_pairs, count_calls, resolve_at, sweep_rows


@pytest.fixture(scope="module")
def small_run():
    records, gold = generate_synthetic(n_entities=20, records_per_entity=5, seed=21)
    model, split, scores = train_pipeline(records, gold,
                                          SplitSpec(40, 60, seed=21))
    return records, gold, model, split, scores, split.validation_pairs.labels


class TestTrainPipeline:
    def test_split_sizes_and_scores(self, small_run):
        _, _, _, split, scores, labels = small_run
        assert len(split.train_pairs.labels) == 40
        assert scores.shape == labels.shape == (60,)
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_stats_at_threshold(self, small_run):
        _, _, _, _, scores, labels = small_run
        stats, = ValidationStats.from_scores(scores, labels, [0.5])
        assert stats.n_pairs == 60
        assert stats.n_positive == 30

    def test_validation_required(self):
        records, gold = generate_synthetic(n_entities=6, records_per_entity=3, seed=2)
        with pytest.raises(ConfigError, match="n_validation_pairs must be at least 2 for "
                                               "train, got 0"):
            train_pipeline(records, gold,
                           SplitSpec(10, 0, seed=2))


class TestSweep:
    def test_rows_match_direct_composition(self, small_run):
        records, gold, model, split, scores, labels = small_run
        test_records = split.test_records
        test_gold = split.test_gold
        grid = [0.3, 0.6, 0.9]
        sweep = sweep_thresholds(model, test_records, scores, labels,
                                 grid, gold=test_gold)
        condensed = all_pairs(model, list(test_records))
        rows, cols, condensed_scores = condensed
        truth = pairs_from_labels(test_gold.labels)
        for row, row_labels in sweep:
            assert np.array_equal(row_labels, components_from_condensed(
                len(test_records), condensed_scores, row.threshold, rows, cols))
            clustering = resolve_at(test_records, condensed, row.threshold)
            assert row.r_pairs == len(intra_cluster_pairs(clustering))
            assert row.tm_pairs == int((condensed_scores >= row.threshold).sum())
            expected = pair_metrics(intra_cluster_pairs(clustering), truth)
            assert row.true_precision == expected.precision
            assert row.true_recall == expected.recall
            stats, = ValidationStats.from_scores(scores, labels, [row.threshold])
            assert row.recall_lb == stats.recall_v
            report = compute_bound_report(stats, row.tm_pairs, row.r_pairs,
                                          len(condensed_scores))
            assert {k: getattr(row, k) for k in report} == report

    def test_band_without_edges_keeps_the_counts(self, small_run, monkeypatch):
        """On a grid whose bands mostly hold no edge, the pair counts are
        taken once per labelling (|R| and the gold hits), not once per row,
        and every row equals the one-point sweep at its threshold."""
        from erbound import pipeline

        _, _, model, split, scores, labels = small_run
        test_records, test_gold = split.test_records, split.test_gold
        kept = np.unique(condensed_pairwise_scores(model, test_records, 0.05)[2])
        lo, hi = kept[len(kept) // 2], kept[len(kept) // 2 + 1]  # no score between them
        grid = np.concatenate([[0.05, 0.3, 0.6, 0.9], np.linspace(lo, hi, 60)[1:-1]])
        ts = np.unique(grid)
        merging = sum(bool(((kept >= a) & (kept < b)).any()) for a, b in zip(ts, ts[1:]))
        assert merging <= 4 < len(ts) - 1
        calls = count_calls(monkeypatch, pipeline._pairs_within)
        rows = sweep_rows(sweep_thresholds(model, test_records, scores, labels, grid,
                                           gold=test_gold))
        assert len(calls) == 1 + 2 * (1 + merging)  # the gold total, then two per labelling
        monkeypatch.undo()
        assert rows == [next(sweep_thresholds(model, test_records, scores, labels, [t],
                                              gold=test_gold))[0] for t in ts]

    def test_monotone_counts(self, small_run):
        _, _, model, split, scores, labels = small_run
        grid = np.linspace(0.05, 0.95, 15)
        rows = sweep_rows(sweep_thresholds(model, split.test_records,
                                           scores, labels, grid))
        r = [row.r_pairs for row in rows]
        tm = [row.tm_pairs for row in rows]
        assert r == sorted(r, reverse=True)
        assert tm == sorted(tm, reverse=True)

    def test_extreme_threshold_suppresses_precision_bound(self, small_run):
        _, _, model, split, scores, labels = small_run
        top = float(min(0.999, scores.max() + 1e-6))
        row, _ = next(sweep_thresholds(model, split.test_records,
                                       scores, labels, [top]))
        assert row.precision_lb is None
        assert row.c_t is None
        assert row.f1_lb is None
        assert row.recall_lb == 0.0  # recall side stays defined

    def test_uninformative_matcher_row(self, small_run):
        """Validation negatives outscoring positives (TPR 0.5 < FPR 2/3 at
        0.5): the row keeps its counts and recall fields and has no C_T,
        precision or F1 bound, unless C_T is given."""
        _, _, model, split, val_scores, val_labels = small_run
        test_records = split.test_records
        scores, labels = np.array([0.9, 0.8, 0.3, 0.6, 0.2]), np.array([0, 0, 0, 1, 1])
        row, _ = next(sweep_thresholds(model, test_records, scores, labels, [0.5]))
        informative, _ = next(sweep_thresholds(model, test_records,
                                               val_scores, val_labels, [0.5]))
        assert (row.r_pairs, row.tm_pairs) == (informative.r_pairs, informative.tm_pairs)
        assert row.tm_pairs > 0
        assert (row.recall_lb, row.recall_lb_lo, row.recall_lb_hi) == \
            (0.5, *wilson_interval(1, 2, 0.95))
        assert [row.c_t, row.precision_lb, row.precision_lb_lo, row.precision_lb_hi,
                row.f1_lb, row.f1_lb_lo, row.f1_lb_hi] == [None] * 7
        given, _ = next(sweep_thresholds(model, test_records, scores, labels, [0.5],
                                         c_t_override=0.02))
        assert given.c_t == 0.02
        assert 0.0 < given.precision_lb_lo <= given.precision_lb <= given.precision_lb_hi
        assert given.f1_lb == f1_lower_bound(given.precision_lb, 0.5)

    def test_fixed_ct_override(self, small_run):
        _, _, model, split, scores, labels = small_run
        row, _ = next(sweep_thresholds(model, split.test_records,
                                       scores, labels, [0.5], c_t_override=0.02))
        assert row.c_t == 0.02

    def test_repeated_threshold_gives_a_row_each(self, small_run):
        _, _, model, split, scores, labels = small_run
        rows = sweep_rows(sweep_thresholds(model, split.test_records,
                                           scores, labels, [0.6, 0.3, 0.6]))
        assert [row.threshold for row in rows] == [0.3, 0.6, 0.6]
        assert rows[1] == rows[2]

    @pytest.mark.parametrize("thresholds,message", [
        ([], "got none"), ([float("nan")], r"got \[nan\]"),
        ([0.0], r"got \[0.0\]"), ([1.0], r"got \[1.0\]"), ([0.5, 1.5], r"got \[1.5\]"),
    ], ids=["empty", "nan", "zero", "one", "above-one"])
    def test_rejects_unusable_thresholds(self, small_run, thresholds, message):
        _, _, model, split, scores, labels = small_run
        with pytest.raises(ConfigError, match=message):
            sweep_thresholds(model, split.test_records,
                             scores, labels, thresholds)

    @pytest.mark.parametrize("bad,message", [
        (lambda labels: np.where(np.arange(len(labels)) == 0, 2, labels), "must be 0 or 1"),
        (lambda labels: labels[:-1], "equal length"),
    ], ids=["label-2", "short"])
    def test_rejects_bad_validation_arrays_before_scoring(self, small_run, monkeypatch,
                                                          bad, message):
        _, _, model, split, scores, labels = small_run
        calls = count_calls(monkeypatch, matching.condensed_pairwise_scores)
        with pytest.raises(ValueError, match=message):
            sweep_thresholds(model, split.test_records, scores, bad(labels), [0.5])
        assert calls == []

    def test_memory_does_not_grow_with_the_grid(self):
        """A caller that keeps neither rows nor labels holds one label array
        at a time: 2,000 grid points over 176 test records peak below 1 MB
        (a label array per row would hold 2.8 MB)."""
        records, gold = generate_synthetic(60, 6, noise_sigma=0.05, seed=5)
        model, split, scores = train_pipeline(records, gold,
                                              SplitSpec(60, 60, seed=5))
        test_records = split.test_records
        assert len(test_records) == 176
        tracemalloc.start()
        try:
            sweep = sweep_thresholds(model, test_records, scores, split.validation_pairs.labels,
                                     np.linspace(0.05, 0.95, 2000))
            n_rows = sum(1 for _ in sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_rows == 2000
        assert peak < 1_000_000, f"sweep peaked at {peak} bytes"

    def test_band_pass_frees_the_scan(self):
        """The sweep hands its edges to the band pass, which frees the scores
        once the bands are taken and the unsorted rows and columns once they
        are sorted: past the scan, a 48-point sweep of 33,957 edges peaks
        below 28 bytes per edge, 16 of them the edges it starts from (a
        sweep that keeps every array read 40.4)."""
        records, gold = generate_synthetic(120, 6, noise_sigma=0.05, seed=5)
        model, split, scores = train_pipeline(records, gold, SplitSpec(60, 60, seed=5))
        tracemalloc.start()
        try:
            sweep = sweep_thresholds(model, split.test_records, scores,
                                     split.validation_pairs.labels, np.linspace(0.02, 0.96, 48))
            tracemalloc.reset_peak()
            swept = [row for row, _ in sweep]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edges = swept[-1].tm_pairs  # every kept edge clears the lowest threshold
        assert len(swept) == 48 and edges == 33_957
        assert peak / edges < 28, f"sweep peaked at {peak / edges:.1f} B/edge"

    def test_needs_two_records(self, small_run):
        _, _, model, split, scores, labels = small_run
        with pytest.raises(ConfigError, match="needs at least 2 test records"):
            sweep_thresholds(model, split.test_records.take([0]),
                             scores, labels, [0.5])


class TestSelection:
    def test_ties_go_to_lower_threshold(self, small_run):
        from erbound.pipeline import SweepRow

        rows = [
            SweepRow(threshold=0.2, r_pairs=5, tm_pairs=5, f1_lb=0.9, recall_lb=0.9),
            SweepRow(threshold=0.4, r_pairs=4, tm_pairs=4, f1_lb=0.9, recall_lb=0.9),
            SweepRow(threshold=0.6, r_pairs=3, tm_pairs=3, f1_lb=0.5, recall_lb=0.9),
        ]
        assert select_best_row(rows, "f1_lb").threshold == 0.2

    def test_recall_floor(self):
        from erbound.pipeline import SweepRow

        rows = [
            SweepRow(threshold=0.2, r_pairs=5, tm_pairs=5,
                     precision_lb=0.9, recall_lb=0.4),
            SweepRow(threshold=0.4, r_pairs=4, tm_pairs=4,
                     precision_lb=0.7, recall_lb=0.8),
        ]
        assert select_best_row(rows, "precision_lb").threshold == 0.2
        assert select_best_row(rows, "precision_lb", recall_floor=0.5).threshold == 0.4
        assert select_best_row(rows, "precision_lb", recall_floor=0.95) is None

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            select_best_row([], "accuracy_lb")


class TestResolveAt:
    def test_matches_predicate_resolver(self, small_run):
        _, _, model, split, _, _ = small_run
        test_records = list(split.test_records)[:40]
        fast = resolve_at(test_records, all_pairs(model, test_records), 0.7)
        slow = resolve_connected_components(
            test_records,
            lambda a, b: base_match(replace(model, threshold=0.7), a, b))
        assert fast == slow


class TestQualitativeCurves:
    def test_bounds_track_truth_in_the_good_region(self):
        """Somewhere on the grid both true metrics are near-perfect and the
        bound curves sit close beneath them."""
        records, gold = generate_synthetic(seed=33)
        model, split, scores = train_pipeline(records, gold,
                                              SplitSpec(80, 100, seed=33))
        sweep = sweep_thresholds(model, split.test_records, scores, split.validation_pairs.labels,
                                 np.linspace(0.05, 0.95, 19), gold=split.test_gold)
        good = [
            row for row, _ in sweep
            if row.true_precision >= 0.99 and row.true_recall >= 0.99
            and row.f1_lb is not None and row.f1_lb >= 0.9
            and abs(row.true_f1 - row.f1_lb) <= 0.1
        ]
        assert good, "no threshold with near-perfect truth tracked by the bound"

    def test_threshold_to_one_limit(self, small_run):
        """Past the top of the score range the resolution empties out and
        true recall hits zero; the recall bound never consults the test set."""
        _, _, model, split, scores, labels = small_run
        row, _ = next(sweep_thresholds(model, split.test_records,
                                       scores, labels, [0.99999],
                                       gold=split.test_gold))
        assert row.r_pairs == 0 and row.tm_pairs == 0
        assert row.true_recall == 0.0
        stats, = ValidationStats.from_scores(scores, labels, [0.99999])
        assert row.recall_lb == stats.recall_v


class TestDegradation:
    def test_snowball_and_recovery(self):
        result = degradation_experiment(seed=3)
        assert result.precision_small - result.precision_large_original >= 0.3
        assert result.precision_large_optimized - result.precision_large_original >= 0.3
        assert result.threshold_optimized > result.threshold_original
        # the numbers the README quotes
        assert (result.threshold_original, result.threshold_optimized) == (0.28, 0.9)
        assert result.precision_small == result.precision_large_optimized == 1.0
        assert result.precision_large_original == pytest.approx(0.0127, abs=5e-5)
        # the returned rows are the large set's gold sweep
        best = max((r for r in result.sweep_rows if r.f1_lb is not None),
                   key=lambda r: r.f1_lb)
        assert best.threshold == result.threshold_optimized
        assert all(r.true_precision is not None for r in result.sweep_rows)

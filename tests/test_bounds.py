import math
from statistics import NormalDist

import numpy as np
import pytest

from erbound.bounds import (
    ValidationStats,
    compute_bound_report,
    estimate_test_class_balance,
    f1_lower_bound,
    precision_lower_bound,
    rebalance_precision,
    recall_lower_bound,
    wilson_interval,
)
from erbound.errors import DataError, DegenerateDataError


def oracle_wilson(successes, trials, z):
    """Textbook closed form, written independently of the implementation."""
    p = successes / trials
    n = trials
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return center - half, center + half


class TestWilson:
    def test_fifty_of_hundred(self):
        low, high = wilson_interval(50, 100, 0.95)
        exp_low, exp_high = oracle_wilson(50, 100, 1.95996)
        assert low == pytest.approx(exp_low, abs=5e-4)
        assert high == pytest.approx(exp_high, abs=5e-4)
        assert low == pytest.approx(0.4038, abs=5e-4)
        assert high == pytest.approx(0.5962, abs=5e-4)

    def test_boundaries_pinned(self):
        for n in (1, 10, 250):
            assert wilson_interval(0, n, 0.95)[0] == 0.0
            assert wilson_interval(n, n, 0.95)[1] == 1.0

    def test_contains_point_estimate_and_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 500))
            s = int(rng.integers(0, n + 1))
            conf = float(rng.uniform(0.5, 0.999))
            low, high = wilson_interval(s, n, conf)
            assert 0.0 <= low <= s / n <= high <= 1.0

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(1)
        z95 = NormalDist().inv_cdf(0.975)
        for _ in range(100):
            n = int(rng.integers(2, 400))
            s = int(rng.integers(1, n))  # interior cases; boundaries are pinned
            low, high = wilson_interval(s, n, 0.95)
            exp_low, exp_high = oracle_wilson(s, n, z95)
            assert low == pytest.approx(exp_low, abs=1e-12)
            assert high == pytest.approx(exp_high, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(5, 4, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 4, 1.0)


def bayes_precision(tpr, fpr, prevalence):
    """Precision of a fixed-rate classifier at a prevalence, from first
    principles."""
    tp = prevalence * tpr
    fp = (1 - prevalence) * fpr
    return tp / (tp + fp)


class TestRebalance:
    def test_identity_when_balances_match(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = float(rng.uniform(0, 1))
            c = float(rng.uniform(0.01, 0.99))
            assert rebalance_precision(p, c, c) == pytest.approx(p, abs=1e-12)

    def test_perfect_precision_is_balance_invariant(self):
        assert rebalance_precision(1.0, 0.5, 0.01) == 1.0
        assert rebalance_precision(1.0, 0.2, 0.9) == 1.0

    def test_halving_example_closed_form(self):
        assert rebalance_precision(0.9, 0.5, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_halving_example_against_bayes_oracle(self):
        # solve tpr/fpr ratio implied by precision 0.9 at prevalence 0.5,
        # then recompute precision directly at prevalence 0.1
        tpr = 0.9
        fpr = tpr * 0.5 * (1 - 0.9) / ((1 - 0.5) * 0.9)
        assert bayes_precision(tpr, fpr, 0.5) == pytest.approx(0.9, abs=1e-12)
        assert rebalance_precision(0.9, 0.5, 0.1) == pytest.approx(
            bayes_precision(tpr, fpr, 0.1), abs=1e-12)

    def test_matches_bayes_oracle_on_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            tpr = float(rng.uniform(0.05, 1.0))
            fpr = float(rng.uniform(0.0, tpr))
            c_v = float(rng.uniform(0.05, 0.95))
            c_t = float(rng.uniform(0.05, 0.95))
            p_v = bayes_precision(tpr, fpr, c_v)
            expected = bayes_precision(tpr, fpr, c_t)
            assert rebalance_precision(p_v, c_v, c_t) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_p_and_c_t(self):
        grid = np.linspace(0.02, 0.98, 25)
        for c_v in (0.1, 0.5, 0.9):
            for c_t in (0.05, 0.4, 0.95):
                vals = [rebalance_precision(p, c_v, c_t) for p in grid]
                assert all(b >= a for a, b in zip(vals, vals[1:]))
            for p in (0.1, 0.6, 0.95):
                vals = [rebalance_precision(p, c_v, c_t) for c_t in grid]
                assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = float(rng.uniform(0, 1))
            c_v = float(rng.uniform(0.02, 0.98))
            c_t = float(rng.uniform(0.02, 0.98))
            there = rebalance_precision(p, c_v, c_t)
            back = rebalance_precision(there, c_t, c_v)
            assert back == pytest.approx(p, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rebalance_precision(1.5, 0.5, 0.5)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                rebalance_precision(0.5, bad, 0.5)
            with pytest.raises(ValueError):
                rebalance_precision(0.5, 0.5, bad)


class TestPrecisionLowerBound:
    def test_composed_example(self):
        assert precision_lower_bound(90, 100, 0.9, 0.5, 0.1) == pytest.approx(0.45, abs=1e-12)

    def test_all_direct_and_perfect_validation(self):
        assert precision_lower_bound(120, 120, 1.0, 0.3, 0.3) == 1.0

    def test_empty_resolution(self):
        assert precision_lower_bound(0, 0, 0.9, 0.5, 0.1) == 0.0

    def test_tm_exceeding_r_rejected(self):
        with pytest.raises(ValueError):
            precision_lower_bound(11, 10, 0.9, 0.5, 0.1)

    @pytest.mark.parametrize("tm,r", [(-1, 10), (0, -1)])
    def test_negative_count_rejected(self, tm, r):
        with pytest.raises(ValueError, match="pair counts must be nonnegative"):
            precision_lower_bound(tm, r, 0.9, 0.5, 0.1)

    def test_never_exceeds_direct_fraction(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = int(rng.integers(1, 1000))
            tm = int(rng.integers(0, r + 1))
            p = float(rng.uniform(0, 1))
            c_v = float(rng.uniform(0.02, 0.98))
            c_t = float(rng.uniform(0.02, 0.98))
            assert precision_lower_bound(tm, r, p, c_v, c_t) <= tm / r + 1e-15


def make_stats(n_pairs, n_positive, n_predicted, n_true):
    return ValidationStats(n_pairs, n_positive, n_predicted, n_true)


class TestValidationStats:
    def test_from_scores(self):
        scores = [0.9, 0.8, 0.4, 0.2, 0.7]
        labels = [1, 1, 1, 0, 0]
        stats, = ValidationStats.from_scores(scores, labels, [0.5])
        assert stats.n_pairs == 5
        assert stats.n_positive == 3
        assert stats.n_predicted_match == 3
        assert stats.n_true_match == 2
        assert stats.precision_v == pytest.approx(2 / 3)
        assert stats.recall_v == pytest.approx(2 / 3)
        assert stats.c_v == pytest.approx(3 / 5)
        assert stats.fpr_v == pytest.approx(1 / 2)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            ValidationStats.from_scores([0.9, 0.8], [1, 1], [0.5])

    def test_precision_undefined_without_predictions(self):
        stats, = ValidationStats.from_scores([0.1, 0.2], [1, 0], [0.9])
        assert stats.precision_v is None

    def test_count_invariants(self):
        with pytest.raises(ValueError):
            make_stats(10, 5, 3, 4)   # more true matches than predictions
        with pytest.raises(ValueError):
            make_stats(10, 8, 9, 4)   # five false positives, two negatives
        with pytest.raises(ValueError):
            make_stats(10, 4, 11, 4)  # predictions exceed the pair count
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            make_stats(10, 5, 3, -1)

    @pytest.mark.parametrize("label", [2, -1, 0.7])
    def test_labels_must_be_zero_or_one(self, label):
        with pytest.raises(ValueError, match=f"got {label}"):
            ValidationStats.from_scores([0.9, 0.8, 0.1], [label, 1, 0], [0.5])

    @pytest.mark.parametrize("scores,named", [
        ([float("nan"), 1.7, 0.2, 0.9], "nan"),
        ([0.3, 1.7, float("nan"), 0.9], "1.7"),
        ([0.3, 0.4, -0.2, 0.9], "-0.2"),
        ([float("inf"), 0.4, 0.2, 0.9], "inf"),
        ([0.3, 0.4, 0.2, float("-inf")], "-inf"),
    ])
    def test_scores_must_lie_in_unit_interval(self, scores, named):
        with pytest.raises(ValueError, match=f"got {named}$"):
            ValidationStats.from_scores(scores, [1, 0, 0, 1], [0.5])

    def test_scores_at_the_unit_interval_ends(self):
        stats, = ValidationStats.from_scores([1.0, 0.0, 0.0, 1.0], [1, 0, 0, 1], [0.5])
        assert (stats.n_predicted_match, stats.n_true_match) == (2, 2)

    def test_grid_matches_direct_counts(self):
        """One call over an unsorted grid with repeats gives, per threshold
        and in grid order, the counts of `scores >= t`, also where scores
        tie with a threshold; a bad label or NaN score still raises."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            grid = rng.choice(np.append(rng.uniform(0, 1, 5).round(2), [0.0, 1.0]), size=9)
            n = int(rng.integers(2, 30))
            scores = np.where(rng.random(n) < 0.5, rng.choice(grid, n), rng.uniform(0, 1, n))
            labels = rng.permutation(np.append(rng.integers(0, 2, n - 2), [0, 1]))
            expected = [ValidationStats(n, int(labels.sum()), int((scores >= t).sum()),
                                        int(((scores >= t) & (labels == 1)).sum()))
                        for t in grid]
            assert ValidationStats.from_scores(scores, labels, grid) == expected
            assert ValidationStats.from_scores(scores.tolist(), labels.tolist(),
                                               grid.tolist()) == expected
        k = int(rng.integers(0, n))
        with pytest.raises(ValueError, match="labels must be 0 or 1, got 2$"):
            ValidationStats.from_scores(scores, np.where(np.arange(n) == k, 2, labels), grid)
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\], got nan$"):
            ValidationStats.from_scores(np.where(np.arange(n) == k, np.nan, scores), labels, grid)


class TestRecallLowerBound:
    def test_pass_through(self):
        stats = make_stats(100, 50, 45, 40)
        assert recall_lower_bound(stats) == stats.recall_v
        assert recall_lower_bound(stats) == 0.8

    def test_perfect(self):
        stats = make_stats(100, 50, 50, 50)
        assert recall_lower_bound(stats) == 1.0

    def test_independent_of_test_set(self):
        # the bound is a function of the validation stats alone; any two
        # test resolutions share it bit for bit
        stats = make_stats(200, 80, 70, 64)
        reports = [
            compute_bound_report(stats, tm, r, total, c_t=0.01)
            for tm, r, total in [(10, 15, 1000), (4000, 9000, 100000)]
        ]
        assert reports[0]["recall_lb"] == reports[1]["recall_lb"] == stats.recall_v


class TestF1LowerBound:
    def test_values(self):
        assert f1_lower_bound(1.0, 1.0) == 1.0
        assert f1_lower_bound(0.45, 0.8) == pytest.approx(0.576, abs=1e-12)
        assert f1_lower_bound(0.7, 0.0) == 0.0
        assert f1_lower_bound(0.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            f1_lower_bound(1.2, 0.5)


class TestClassBalanceEstimate:
    def test_confusion_matrix_algebra(self):
        stats = make_stats(200, 100, 100, 90)  # tpr 0.9, fpr 0.1
        assert stats.recall_v == pytest.approx(0.9)
        assert stats.fpr_v == pytest.approx(0.1)
        assert estimate_test_class_balance(0.2, stats) == pytest.approx(0.125)

    def test_against_simulated_classifier(self):
        rng = np.random.default_rng(6)
        stats = make_stats(200, 100, 100, 90)
        prevalence, tpr, fpr = 0.125, 0.9, 0.1
        y = rng.random(400_000) < prevalence
        pred = np.where(y, rng.random(400_000) < tpr, rng.random(400_000) < fpr)
        rate = float(pred.mean())
        assert estimate_test_class_balance(rate, stats) == pytest.approx(prevalence, abs=0.01)

    def test_rate_at_fpr_clips_near_zero(self):
        stats = make_stats(200, 100, 100, 90)
        assert estimate_test_class_balance(0.1, stats) == pytest.approx(0.0, abs=1e-8)

    def test_uninformative_matcher(self):
        stats = make_stats(200, 100, 100, 50)  # tpr 0.5 == fpr 0.5
        assert estimate_test_class_balance(0.2, stats) is None

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"predicted_match_rate must lie in \[0, 1\]"):
            estimate_test_class_balance(rate, make_stats(200, 100, 100, 90))


def intervals(stats, tm, r, c_t, confidence=0.95):
    """The (low, high) interval of each bound, through the report with a
    given C_T (so the test-pair total plays no part)."""
    report = compute_bound_report(stats, tm, r, 10**9, c_t=c_t, confidence=confidence)
    return [(report[f"{name}_lo"], report[f"{name}_hi"])
            for name in ("precision_lb", "recall_lb", "f1_lb")]


class TestIntervalPropagation:
    def test_tiny_confidence_collapses_width(self):
        stats = make_stats(100, 50, 40, 36)
        for low, high in intervals(stats, 50, 80, 0.05, confidence=1e-12):
            assert high - low < 1e-9

    def test_monotone_in_validation_precision(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_pos = int(rng.integers(5, 80))
            n_pred = int(rng.integers(5, 80))
            n_true = int(rng.integers(1, min(n_pos, n_pred) + 1))
            stats = make_stats(200, n_pos, n_pred, n_true)
            c_t = float(rng.uniform(0.01, 0.99))
            tm = int(rng.integers(0, 50))
            r = tm + int(rng.integers(0, 50))
            if r == 0:
                continue
            precision, recall, f1 = intervals(stats, tm, r, c_t)
            assert precision[0] <= precision[1]
            assert recall[0] <= recall[1]
            assert f1[0] <= f1[1]
            point = precision_lower_bound(tm, r, stats.precision_v, stats.c_v, c_t)
            assert precision[0] <= point + 1e-12
            assert point <= precision[1] + 1e-12

    def test_width_grows_as_validation_shrinks(self):
        # same rates, smaller sample: wider interval on every bound
        big = make_stats(400, 200, 200, 180)
        small = make_stats(40, 20, 20, 18)
        for b, s in zip(intervals(big, 500, 600, 0.02), intervals(small, 500, 600, 0.02)):
            assert (s[1] - s[0]) > (b[1] - b[0])


FIELDS = ("c_t", "precision_lb", "precision_lb_lo", "precision_lb_hi", "recall_lb",
          "recall_lb_lo", "recall_lb_hi", "f1_lb", "f1_lb_lo", "f1_lb_hi")
UNDEFINED = ("c_t", "precision_lb", "precision_lb_lo", "precision_lb_hi",
             "f1_lb", "f1_lb_lo", "f1_lb_hi")


class TestBoundReport:
    def test_report_composition(self):
        stats = make_stats(200, 100, 95, 90)
        report = compute_bound_report(stats, 400, 500, 10_000)
        assert tuple(report) == FIELDS
        assert 0.0 <= report["precision_lb"] <= 1.0
        assert report["recall_lb"] == stats.recall_v
        assert report["precision_lb_lo"] <= report["precision_lb"] \
            <= report["precision_lb_hi"] + 1e-12
        assert report["recall_lb_lo"] <= report["recall_lb"] <= report["recall_lb_hi"]
        assert (report["recall_lb_lo"], report["recall_lb_hi"]) == wilson_interval(90, 100, 0.95)
        expected_ct = estimate_test_class_balance(400 / 10_000, stats)
        assert report["c_t"] == expected_ct
        assert report["precision_lb"] == precision_lower_bound(400, 500, stats.precision_v,
                                                               stats.c_v, expected_ct)
        assert report["f1_lb"] == f1_lower_bound(report["precision_lb"], report["recall_lb"])

    def test_fixed_ct_override(self):
        stats = make_stats(200, 100, 95, 90)
        report = compute_bound_report(stats, 400, 500, 10_000, c_t=0.03)
        assert report["c_t"] == 0.03
        with pytest.raises(ValueError):
            compute_bound_report(stats, 400, 500, 10_000, c_t=1.5)

    @pytest.mark.parametrize("stats,c_t", [
        (make_stats(100, 50, 0, 0), None),     # no predicted match
        (make_stats(100, 50, 0, 0), 0.05),     # no predicted match, C_T given
        (make_stats(200, 100, 100, 50), None),  # TPR 0.5 == FPR 0.5
        (make_stats(200, 100, 120, 50), None),  # TPR 0.5 < FPR 0.7
    ], ids=["no-match", "no-match-ct", "tpr-equals-fpr", "tpr-below-fpr"])
    def test_undefined_bound_is_none(self, stats, c_t):
        report = compute_bound_report(stats, 0, 10, 1000, c_t=c_t)
        assert tuple(report) == FIELDS
        assert [report[k] for k in UNDEFINED] == [None] * len(UNDEFINED)
        assert report["recall_lb"] == stats.recall_v
        assert (report["recall_lb_lo"], report["recall_lb_hi"]) == \
            wilson_interval(stats.n_true_match, stats.n_positive, 0.95)

    def test_uninformative_matcher_bounded_with_given_ct(self):
        stats = make_stats(200, 100, 100, 50)
        report = compute_bound_report(stats, 5, 10, 1000, c_t=0.01)
        assert report["c_t"] == 0.01
        assert report["precision_lb"] == precision_lower_bound(5, 10, 0.5, 0.5, 0.01)

    @pytest.mark.parametrize("tm,r,total,error", [
        (11, 10, 1000, ValueError), (5, 10, 4, ValueError), (-1, 10, 1000, ValueError),
        (0, 0, 0, DataError),
    ], ids=["tm-above-r", "tm-above-total", "negative-tm", "no-test-pairs"])
    def test_inconsistent_counts_raise(self, tm, r, total, error):
        for stats in (make_stats(200, 100, 95, 90), make_stats(100, 50, 0, 0)):
            with pytest.raises(error):
                compute_bound_report(stats, tm, r, total)

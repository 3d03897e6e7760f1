"""Estimated lower bounds on pairwise precision, recall, and F1.

Given the confusion counts of the thresholded match function on a small
labeled validation set, the pairwise performance of a representativity-
preserving resolution of an arbitrarily large test set is bounded from
below:

  precision >= (|T_M| / |R|) * rebalance(precision_v, C_V, C_T)
  recall    >= recall_v

where |R| counts within-cluster test pairs, |T_M| counts directly matching
test pairs, and the rebalance term converts validation precision to the
precision the same TPR/FPR ratio yields at the test set's positive-pair
prevalence C_T. Uncertainty in the validation rates propagates through
Wilson score intervals; since the rebalance map is monotone increasing in
the validation precision, evaluating the bound at the interval endpoints
gives exact interval bounds. `compute_bound_report` returns the numbers
of one sweep row as a dict keyed by the row's field names. The validation
confusion at every grid threshold comes from one sort, as `len(a) -
searchsorted(a, t)` is `(a >= t).sum()` for a sorted `a`. An undefined
number is None where it is computed: `precision_v` with no predicted
match, and the C_T estimate where validation TPR does not exceed FPR.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateDataError

# prevalence estimates are clipped away from the open-interval endpoints
_PREVALENCE_EPS = 1e-9


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Contains successes/trials; the endpoints are pinned to exactly 0 and 1
    when successes is 0 or trials.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = float(trials)
    phat = successes / n
    z2n = z * z / n
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2n / (4.0 * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _check_prevalence(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def rebalance_precision(p_v: float, c_v: float, c_t: float) -> float:
    """Precision at prevalence c_t of a classifier that attains precision
    p_v at prevalence c_v with the same TPR/FPR ratio.

    Identity when c_v == c_t; monotone increasing in both p_v and c_t; the
    inverse map is the same formula with the prevalences swapped.
    """
    if not 0.0 <= p_v <= 1.0:
        raise ValueError(f"p_v must lie in [0, 1], got {p_v!r}")
    _check_prevalence(c_v, "c_v")
    _check_prevalence(c_t, "c_t")
    if p_v == 1.0:
        # numerator and denominator coincide algebraically; avoid fp noise
        return 1.0
    num = c_t * (1.0 - c_v) * p_v
    den = c_v * (1.0 - c_t) + (c_t - c_v) * p_v
    return min(1.0, max(0.0, num / den))


def precision_lower_bound(tm_pairs: int, r_pairs: int, p_v: float,
                          c_v: float, c_t: float) -> float:
    """Lower bound on pairwise test precision: the directly-matching
    fraction of within-cluster pairs times the rebalanced validation
    precision. Zero when the resolution produced no pairs."""
    if tm_pairs < 0 or r_pairs < 0:
        raise ValueError("pair counts must be nonnegative")
    if tm_pairs > r_pairs:
        raise ValueError(
            f"tm_pairs ({tm_pairs}) exceeds r_pairs ({r_pairs}); directly "
            "matching pairs are always within-cluster for a representative resolver"
        )
    if r_pairs == 0:
        return 0.0
    return (tm_pairs / r_pairs) * rebalance_precision(p_v, c_v, c_t)


def f1_lower_bound(p_lb: float, r_lb: float) -> float:
    """Harmonic mean of the two bounds; 0 when both are 0."""
    if not 0.0 <= p_lb <= 1.0 or not 0.0 <= r_lb <= 1.0:
        raise ValueError("bounds must lie in [0, 1]")
    if p_lb + r_lb == 0.0:
        return 0.0
    return 2.0 * p_lb * r_lb / (p_lb + r_lb)


@dataclass(frozen=True, slots=True)
class ValidationStats:
    """Confusion counts of the thresholded match function on the labeled
    validation pairs. Needs at least one pair of each label."""

    n_pairs: int
    n_positive: int
    n_predicted_match: int
    n_true_match: int

    def __post_init__(self):
        if min(self.n_pairs, self.n_positive, self.n_predicted_match, self.n_true_match) < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_true_match > min(self.n_predicted_match, self.n_positive):
            raise ValueError("n_true_match exceeds n_predicted_match or n_positive")
        if self.n_predicted_match > self.n_pairs or self.n_positive > self.n_pairs:
            raise ValueError("per-class counts exceed n_pairs")
        if self.n_positive == 0 or self.n_positive == self.n_pairs:
            raise DegenerateDataError(
                "validation pairs must include both labels "
                f"(got {self.n_positive} positives of {self.n_pairs})"
            )
        if self.n_predicted_match - self.n_true_match > self.n_pairs - self.n_positive:
            raise ValueError("false-positive count exceeds negative count")

    @classmethod
    def from_scores(cls, scores: Sequence[float], labels: Sequence[int],
                    thresholds: Sequence[float]) -> list["ValidationStats"]:
        """The confusion at each of `thresholds`, in order, from one sort:
        `len(a) - searchsorted(a, t)` is `(a >= t).sum()` for sorted `a`."""
        scores = np.asarray(scores, dtype=float)
        labels = np.asarray(labels)
        if scores.shape != labels.shape:
            raise ValueError("scores and labels must have equal length")
        bad = labels[(labels != 0) & (labels != 1)]
        if bad.size:
            raise ValueError(f"validation labels must be 0 or 1, got {bad[0]}")
        bad = scores[~((scores >= 0.0) & (scores <= 1.0))]  # NaN fails both
        if bad.size:
            raise ValueError(f"validation scores must lie in [0, 1], got {bad[0]}")
        positive = np.sort(scores[labels == 1])
        predicted = (len(scores) - np.searchsorted(np.sort(scores), thresholds)).tolist()
        true_match = (len(positive) - np.searchsorted(positive, thresholds)).tolist()
        return [cls(len(scores), len(positive), *counts) for counts in zip(predicted, true_match)]

    @property
    def c_v(self) -> float:
        return self.n_positive / self.n_pairs

    @property
    def precision_v(self) -> float | None:
        """Validation precision; None when no pair is predicted a match."""
        if self.n_predicted_match == 0:
            return None
        return self.n_true_match / self.n_predicted_match

    @property
    def recall_v(self) -> float:
        return self.n_true_match / self.n_positive

    @property
    def fpr_v(self) -> float:
        return (self.n_predicted_match - self.n_true_match) / (self.n_pairs - self.n_positive)


def recall_lower_bound(stats: ValidationStats) -> float:
    """Lower bound on pairwise test recall: the validation recall itself.
    Recall depends only on the positive pairs, so no class rebalancing is
    involved and the test resolution never enters."""
    return stats.recall_v


def estimate_test_class_balance(predicted_match_rate: float,
                                stats: ValidationStats) -> float | None:
    """Adjusted-count estimate of the fraction of test pairs that are true
    matches: (rate - FPR) / (TPR - FPR), clipped into (0, 1). None where
    validation TPR does not exceed FPR: the matcher is then uninformative
    and the estimate undefined.
    """
    if not 0.0 <= predicted_match_rate <= 1.0:
        raise ValueError("predicted_match_rate must lie in [0, 1]")
    tpr, fpr = stats.recall_v, stats.fpr_v
    if tpr <= fpr:
        return None
    estimate = (predicted_match_rate - fpr) / (tpr - fpr)
    return min(1.0 - _PREVALENCE_EPS, max(_PREVALENCE_EPS, estimate))


def compute_bound_report(stats: ValidationStats, tm_pairs: int, r_pairs: int,
                         total_test_pairs: int, c_t: float | None = None,
                         confidence: float = 0.95) -> dict[str, float | None]:
    """The bound fields of one resolution's sweep row: the class-balance
    estimate `c_t`, the three lower bounds `precision_lb`, `recall_lb` and
    `f1_lb`, and each bound's interval ends `<bound>_lo` and `<bound>_hi`.

    `total_test_pairs` is the number of unordered test record pairs, used
    to turn |T_M| into the predicted match rate the class-balance estimator
    consumes; a given `c_t` replaces the estimate. The recall fields are
    always defined. `c_t` and the precision and F1 fields are None where
    the bound is undefined: the validation set has no predicted matches at
    this threshold, or, with no `c_t` given, validation TPR does not exceed
    FPR. Inconsistent counts raise.

    The precision bound is monotone increasing in the validation precision,
    so evaluating it at the Wilson endpoints yields exact interval ends; the
    recall bound is the validation recall, so its Wilson interval carries
    over directly; the F1 ends compose the other two.
    """
    if total_test_pairs <= 0:
        raise DataError("test set must contain at least one record pair")
    if not 0 <= tm_pairs <= min(r_pairs, total_test_pairs):
        raise ValueError(f"tm_pairs ({tm_pairs}) must lie in [0, min(r_pairs={r_pairs}, "
                         f"total_test_pairs={total_test_pairs})]")
    recall = (recall_lower_bound(stats),
              *wilson_interval(stats.n_true_match, stats.n_positive, confidence))
    precision = f1 = (None, None, None)
    if c_t is None:
        c_t = estimate_test_class_balance(tm_pairs / total_test_pairs, stats)
    else:
        _check_prevalence(c_t, "class-balance override")
    if stats.precision_v is None:
        c_t = None
    elif c_t is not None:
        ends = wilson_interval(stats.n_true_match, stats.n_predicted_match, confidence)
        precision = tuple(precision_lower_bound(tm_pairs, r_pairs, p_v, stats.c_v, c_t)
                          for p_v in (stats.precision_v, *ends))
        f1 = tuple(map(f1_lower_bound, precision, recall))
    report = {"c_t": c_t}
    for name, values in (("precision_lb", precision), ("recall_lb", recall), ("f1_lb", f1)):
        report.update(zip((name, f"{name}_lo", f"{name}_hi"), values))
    return report

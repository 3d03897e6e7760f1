"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them live)."""

import functools
import time
from itertools import combinations, product

import numpy as np
import pytest

from erbound.bounds import rebalance_precision, wilson_interval
from erbound.dataset import SplitSpec, generate_synthetic, split_dataset
from erbound.matching import train_match_model
from erbound.pipeline import (
    score_labeled_pairs,
    sweep_thresholds,
    train_pipeline,
)
from erbound.reference import (
    degradation_experiment,
    matcher_from_scores,
    merge_records,
    pair_metrics,
    pairs_from_labels,
    pairwise_scores,
    resolve_connected_components,
    resolve_rswoosh,
)

from conftest import random_model, random_records, sweep_rows


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")
        return wrapper
    return decorate


def random_instance(rng, schema, max_n):
    n = int(rng.integers(2, max_n + 1))
    records = random_records(rng, schema, n)
    model = random_model(rng, schema, threshold=float(rng.uniform(0.05, 0.95)))
    table = pairwise_scores(model, records)
    scored = matcher_from_scores(table, model.threshold)
    base = {r.record_id: r for r in records}

    def wrap(o1, o2):
        return any(scored(base[i], base[j])
                   for i, j in product(sorted(o1.base_ids), sorted(o2.base_ids)))
    return records, scored, wrap


@criterion(1, "direct matches stay within one cluster (1000 resolutions, n<=50)")
def test_c01_direct_match_containment(mixed_schema):
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(1000):
        records, scored, wrap = random_instance(rng, mixed_schema, 50)
        block = {rid: members for members in resolve_rswoosh(records, wrap, merge_records)
                 for rid in members}
        for i, a in enumerate(records):
            for b in records[i + 1:]:
                if scored(a, b) and block[a.record_id] != block[b.record_id]:
                    violations += 1
    assert violations == 0


@criterion(2, "match/merge fixpoint equals connected components (1000 instances, n<=30)")
def test_c02_engine_equivalence(mixed_schema):
    rng = np.random.default_rng(102)
    mismatches = 0
    for _ in range(1000):
        records, scored, wrap = random_instance(rng, mixed_schema, 30)
        via_rswoosh = resolve_rswoosh(records, wrap, merge_records)
        via_components = resolve_connected_components(records, scored)
        if via_rswoosh != via_components:
            mismatches += 1
    assert mismatches == 0


@criterion(3, "fixpoint output invariant under input permutation (100 x 20)")
def test_c03_permutation_determinism(mixed_schema):
    rng = np.random.default_rng(103)
    mismatches = 0
    for _ in range(100):
        records, _, wrap = random_instance(rng, mixed_schema, 30)
        reference = resolve_rswoosh(records, wrap, merge_records)
        for _ in range(20):
            shuffled = list(records)
            rng.shuffle(shuffled)
            if resolve_rswoosh(shuffled, wrap, merge_records) != reference:
                mismatches += 1
    assert mismatches == 0


@criterion(4, "rebalance identity within 1e-12 and round-trip within 1e-9 (50^3 grid)")
def test_c04_rebalance_identity_and_round_trip():
    ps = np.linspace(0.0, 1.0, 50)
    cs = np.linspace(0.02, 0.98, 50)
    worst_identity = 0.0
    for p in ps:
        for c in cs:
            worst_identity = max(worst_identity, abs(rebalance_precision(p, c, c) - p))
    assert worst_identity < 1e-12
    worst_round_trip = 0.0
    for p in ps:
        for c_v in cs:
            for c_t in cs:
                there = rebalance_precision(p, c_v, c_t)
                back = rebalance_precision(there, c_t, c_v)
                worst_round_trip = max(worst_round_trip, abs(back - p))
    assert worst_round_trip < 1e-9


@criterion(5, "rebalance halves 0.9 at prevalence 0.1, matching a simulated classifier")
def test_c05_rebalance_example_with_simulation():
    value = rebalance_precision(0.9, 0.5, 0.1)
    assert value == pytest.approx(0.5, abs=1e-12)
    # classifier with the TPR/FPR ratio that yields precision 0.9 at
    # prevalence 0.5, simulated at prevalence 0.1
    rng = np.random.default_rng(105)
    n = 1_000_000
    tpr, fpr = 0.9, 0.1
    y = rng.random(n) < 0.1
    predicted = np.where(y, rng.random(n) < tpr, rng.random(n) < fpr)
    simulated_precision = float((predicted & y).sum() / predicted.sum())
    assert simulated_precision == pytest.approx(value, abs=0.01)


@criterion(6, "recall bound is the validation recall, bit for bit, for any test set")
def test_c06_recall_bound_exactness():
    from erbound.bounds import ValidationStats, compute_bound_report, recall_lower_bound

    records, gold = generate_synthetic(n_entities=30, records_per_entity=5, seed=106)
    _, split, scores = train_pipeline(records, gold,
                                      SplitSpec(40, 60, seed=106))
    for threshold in (0.3, 0.5, 0.7):
        stats, = ValidationStats.from_scores(scores, split.validation_pairs.labels, [threshold])
        assert recall_lower_bound(stats) == stats.recall_v
        reports = [
            compute_bound_report(stats, tm, r, total)
            for tm, r, total in [(5, 9, 300), (2000, 2600, 450_000), (0, 0, 10)]
        ]
        assert all(rep["recall_lb"] == stats.recall_v for rep in reports)


@criterion(7, "bound interval lows hold in >=90% of 50 pipelines x 20 thresholds")
def test_c07_statistical_validity():
    start = time.monotonic()
    grid = np.linspace(0.2, 0.95, 20)
    evaluations = valid = 0
    for seed in range(50):
        table, gold = generate_synthetic(seed=seed)  # 1000 records per trial
        split = split_dataset(table, gold, SplitSpec(80, 100, seed=seed))
        model = train_match_model(table, split.train_pairs)
        scores = score_labeled_pairs(model, table, split.validation_pairs)
        sweep = sweep_thresholds(model, split.test_records, scores,
                                 split.validation_pairs.labels,
                                 grid, gold=split.test_gold)
        for row, _ in sweep:
            if row.precision_lb_lo is None:
                continue
            evaluations += 1
            if (row.true_precision >= row.precision_lb_lo
                    and row.true_recall >= row.recall_lb_lo):
                valid += 1
    elapsed = time.monotonic() - start
    assert evaluations >= 500
    assert valid / evaluations >= 0.90, f"only {valid}/{evaluations} evaluations valid"
    assert elapsed < 600.0, f"suite took {elapsed:.0f}s"


@criterion(8, "snowball degradation >=0.3 and bound-tuned recovery >=0.3 at 10x scale")
def test_c08_degradation_and_recovery():
    result = degradation_experiment(seed=3)
    degradation = result.precision_small - result.precision_large_original
    recovery = result.precision_large_optimized - result.precision_large_original
    assert degradation >= 0.3, f"precision only degraded by {degradation:.3f}"
    assert recovery >= 0.3, f"re-tuning only recovered {recovery:.3f}"


@criterion(9, "Wilson interval matches the closed form and pins its boundaries")
def test_c09_wilson_interval():
    low, high = wilson_interval(50, 100, 0.95)
    assert low == pytest.approx(0.4038, abs=5e-4)
    assert high == pytest.approx(0.5962, abs=5e-4)
    for n in (1, 7, 100, 1000):
        assert wilson_interval(0, n, 0.95)[0] == 0.0
        assert wilson_interval(n, n, 0.95)[1] == 1.0


@criterion(10, "default synthetic dataset has exactly 1000 records and 4500 truth pairs")
def test_c10_generator_fidelity():
    records, gold = generate_synthetic()
    assert len(records) == 1000
    assert len(pairs_from_labels(gold.labels)) == 4500


@criterion(11, "pairwise metrics equal a set-algebra oracle on 1000 random pair sets")
def test_c11_metrics_oracle_equivalence():
    rng = np.random.default_rng(111)
    ids = [f"x{i:02d}" for i in range(14)]
    all_pairs = list(combinations(ids, 2))
    for _ in range(1000):
        predicted = frozenset(p for p in all_pairs if rng.random() < rng.random())
        truth = frozenset(p for p in all_pairs if rng.random() < rng.random())
        hit = 0
        for p in predicted:
            if p in truth:
                hit += 1
        precision = hit / len(predicted) if predicted else 1.0
        recall = hit / len(truth) if truth else 1.0
        f1 = 0.0 if precision + recall == 0 else \
            2 * precision * recall / (precision + recall)
        m = pair_metrics(predicted, truth)
        assert (m.precision, m.recall, m.f1) == (precision, recall, f1)


@criterion(12, "pair counts are non-increasing in the threshold on every sweep")
def test_c12_monotone_sweep():
    for seed in (7, 12, 31):
        records, gold = generate_synthetic(n_entities=40, records_per_entity=5,
                                           seed=seed)
        model, split, scores = train_pipeline(records, gold,
                                              SplitSpec(40, 60, seed=seed))
        rows = sweep_rows(sweep_thresholds(model, split.test_records, scores,
                                           split.validation_pairs.labels,
                                           np.linspace(0.05, 0.95, 25)))
        r = [row.r_pairs for row in rows]
        tm = [row.tm_pairs for row in rows]
        assert r == sorted(r, reverse=True)
        assert tm == sorted(tm, reverse=True)

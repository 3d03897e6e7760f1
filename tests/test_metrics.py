from itertools import combinations

import numpy as np
import pytest

from erbound.dataset import GoldTruth, pairs_from_labels
from erbound.pipeline import sweep_thresholds
from erbound.reference import (
    base_match,
    intra_cluster_pairs,
    matcher_from_scores,
    pair_metrics,
    pairwise_scores,
    record_table,
    resolve_connected_components,
)

from conftest import all_pairs, random_model, random_records, resolve_at


def naive_metrics(predicted, truth):
    """Independent set algebra: explicit loops, no set operators."""
    hit = 0
    for p in predicted:
        if p in truth:
            hit += 1
    precision = hit / len(predicted) if predicted else 1.0
    recall = hit / len(truth) if truth else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def random_pair_set(rng, ids, p):
    return frozenset(
        pair for pair in combinations(ids, 2) if rng.random() < p
    )


class TestPairSets:
    def test_triangle_plus_singleton(self, mixed_schema):
        assert intra_cluster_pairs([["a", "b", "c"], ["d"]]) == \
            frozenset({("a", "b"), ("a", "c"), ("b", "c")})

    def test_all_singletons(self, mixed_schema):
        assert intra_cluster_pairs([["a"], ["b"], ["c"]]) == frozenset()

    def test_random_partition_sizes(self, mixed_schema):
        rng = np.random.default_rng(0)
        for _ in range(30):
            ids = [f"x{i}" for i in range(int(rng.integers(1, 15)))]
            rng.shuffle(ids)
            partition, k = [], 0
            while k < len(ids):
                size = int(rng.integers(1, len(ids) - k + 1))
                partition.append(ids[k:k + size])
                k += size
            expected = sum(len(g) * (len(g) - 1) // 2 for g in partition)
            assert len(intra_cluster_pairs(partition)) == expected

    def test_pairs_from_labels(self):
        assert pairs_from_labels({"a": "1", "b": "1", "c": "2"}) == frozenset({("a", "b")})
        assert pairs_from_labels({"a": "1", "b": "2"}) == frozenset()

    def test_pair_set_ignores_cluster_labeling(self, mixed_schema):
        # the same partition assembled in different member orders yields
        # identical pair sets and counts
        one = [["a", "c", "b"], ["d", "e"]]
        two = [["e", "d"], ["b", "a", "c"]]
        assert intra_cluster_pairs(one) == intra_cluster_pairs(two)


class TestPairMetrics:
    def test_one_truth_pair_in_triangle(self):
        m = pair_metrics({("a", "b"), ("a", "c"), ("b", "c")}, {("a", "b")})
        assert m.precision == pytest.approx(1 / 3)
        assert m.recall == 1.0

    def test_identity(self):
        pairs = {("a", "b"), ("c", "d")}
        m = pair_metrics(pairs, pairs)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_conventions(self):
        assert pair_metrics(frozenset(), {("a", "b")}).precision == 1.0
        assert pair_metrics({("a", "b")}, frozenset()).recall == 1.0
        m = pair_metrics(frozenset(), frozenset())
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(1)
        ids = [f"x{i}" for i in range(12)]
        for _ in range(200):
            predicted = random_pair_set(rng, ids, rng.random() * 0.5)
            truth = random_pair_set(rng, ids, rng.random() * 0.5)
            m = pair_metrics(predicted, truth)
            p, r, f1 = naive_metrics(predicted, truth)
            assert (m.precision, m.recall, m.f1) == (p, r, f1)

    def test_f1_properties(self):
        rng = np.random.default_rng(2)
        ids = [f"x{i}" for i in range(10)]
        for _ in range(200):
            predicted = random_pair_set(rng, ids, 0.3)
            truth = random_pair_set(rng, ids, 0.3)
            m = pair_metrics(predicted, truth)
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.recall <= 1.0
            assert m.f1 <= max(m.precision, m.recall) + 1e-15
            if predicted or truth:
                assert (m.f1 == 0.0) == (len(predicted & truth) == 0)


class TestCountBasedMetrics:
    def test_matches_set_based_on_random_instances(self, mixed_schema):
        """The sweep counts |R| and true hits as pairs that share component
        and gold labels; on random models, thresholds and gold labelings
        (some test ids unlabeled, some labeled ids not in the test set) that
        equals set algebra on the materialized pairs."""
        rng = np.random.default_rng(3)
        val_scores, val_labels = np.array([0.1, 0.9]), np.array([0, 1])
        for _ in range(50):
            records = random_records(rng, mixed_schema, 10)
            model = random_model(rng, mixed_schema)
            ids = [r.record_id for r in records] + ["x1", "x2"]
            gold = GoldTruth({i: f"e{rng.integers(0, 4)}" for i in ids if rng.random() < 0.8})
            truth = frozenset(p for p in gold.truth_pairs() if "x1" not in p and "x2" not in p)
            sweep = sweep_thresholds(model, record_table(records, mixed_schema),
                                     val_scores, val_labels,
                                     rng.uniform(0.05, 0.95, size=3), gold=gold)
            edges = all_pairs(model, records)
            for row, _ in sweep:
                c = resolve_at(records, edges, row.threshold)
                slow = pair_metrics(intra_cluster_pairs(c), truth)
                assert row.r_pairs == len(intra_cluster_pairs(c))
                assert (row.true_precision, row.true_recall, row.true_f1) == \
                    (slow.precision, slow.recall, slow.f1)


class TestDirectMatchCount:
    def test_equals_exhaustive_all_pairs_count(self, mixed_schema):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, 10)
            table = pairwise_scores(model, records)
            scored = matcher_from_scores(table, model.threshold)
            clustering = resolve_connected_components(records, scored)
            # |T_M| as the CLI counts it: condensed scores at the threshold
            counted = int((all_pairs(model, records)[2] >= model.threshold).sum())
            exhaustive = sum(
                base_match(model, a, b)
                for i, a in enumerate(records) for b in records[i + 1:]
            )
            assert counted == exhaustive
            # every direct match is within a cluster
            assert frozenset(
                tuple(sorted((a.record_id, b.record_id)))
                for i, a in enumerate(records) for b in records[i + 1:]
                if scored(a, b)
            ) <= intra_cluster_pairs(clustering)


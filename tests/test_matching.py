import copy
import json
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from erbound.errors import ConfigError, DataError, DegenerateDataError, SchemaError
from erbound.matching import (
    MatchModel,
    PairColumns,
    TrainConfig,
    _batch_levenshtein,
    _code_points,
    _scorer,
    condensed_pairwise_scores,
    fit_logistic,
    load_model,
    logistic_gradient,
    logistic_loss,
    save_model,
    score_pair,
    score_pairs,
    sigmoid,
    train_match_model,
)
from erbound.records import (
    CATEGORICAL,
    NUMERIC,
    TEXT,
    Feature,
    FeatureSchema,
)
from erbound.reference import (
    base_match,
    base_record,
    featurize_pair,
    levenshtein,
    matcher_from_scores,
    merge_records,
    normalized_levenshtein,
    pair_score,
    pairwise_scores,
    record_table,
)

from conftest import (all_pairs, count_calls, labeled_table, random_model, random_record,
                      random_records, random_words)


def oracle_levenshtein(s, t):
    """Independent memoized-recursion edit distance."""
    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (s[i - 1] != t[j - 1])
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, sub)
    return d(len(s), len(t))


class TestLevenshtein:
    def test_against_oracle_on_random_strings(self):
        rng = np.random.default_rng(0)
        alphabet = "abcde"
        for _ in range(300):
            s = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            t = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            assert levenshtein(s, t) == oracle_levenshtein(s, t)

    def test_partial_name(self):
        # oracle: keep 'j', substitute 'o'->'.', delete 'h', delete 'n'
        assert oracle_levenshtein("john", "j.") == 3
        assert levenshtein("john", "j.") == 3
        assert normalized_levenshtein("john", "j.") == 0.75

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    def test_one_empty(self):
        assert normalized_levenshtein("", "abc") == 1.0

    def test_batch_equals_scalar(self):
        """The batch DP gives exactly the scalar normalized distances: empty
        and equal strings, lengths 0-25 with very unequal pairs, non-ASCII
        characters and one outside the Basic Multilingual Plane."""
        rng = np.random.default_rng(22)
        alphabet = list("abcdeé") + ["ß", "\U0001d518"]
        strings = ["", "", "a", "ß", "\U0001d518", "é" * 25, "abc", "abc"] + [
            "".join(rng.choice(alphabet, size=size)) for size in rng.integers(0, 26, 400)]
        s, t = rng.integers(0, len(strings), size=(2, 3000))
        s, t = np.append(s, np.arange(8)), np.append(t, [1, 0, 5, 4, 3, 0, 7, 6])
        chars, lengths = _code_points(strings)
        batch = _batch_levenshtein(chars, lengths, s, t)
        scalar = [normalized_levenshtein(strings[x], strings[y]) for x, y in zip(s, t)]
        assert batch.tolist() == scalar
        assert 0.0 in scalar and 1.0 in scalar


class TestFeaturize:
    def test_shared_phone_slot(self, mixed_schema, canonical_trio):
        r1, r2, _ = canonical_trio
        x = featurize_pair(r1, r2, mixed_schema)
        assert x[mixed_schema.names.index("phone")] == 1.0

    def test_identity_pair(self, mixed_schema, canonical_trio):
        _, _, r3 = canonical_trio
        x = featurize_pair(r3, r3, mixed_schema)
        n = len(mixed_schema)
        assert x[mixed_schema.names.index("name1")] == 0.0
        assert x[mixed_schema.names.index("name2")] == 0.0
        # phone and age are missing on both sides
        assert x[n + mixed_schema.names.index("phone")] == 1.0
        assert x[n + mixed_schema.names.index("age")] == 1.0
        assert x[mixed_schema.names.index("phone")] == 0.0

    def test_missing_side_sets_indicator(self, mixed_schema, canonical_trio):
        r1, _, r3 = canonical_trio
        x = featurize_pair(r1, r3, mixed_schema)
        n = len(mixed_schema)
        assert x[mixed_schema.names.index("phone")] == 0.0
        assert x[n + mixed_schema.names.index("phone")] == 1.0

    def test_closest_match_over_value_sets(self):
        schema = FeatureSchema((Feature("v", NUMERIC), Feature("s", TEXT)))
        a = base_record(schema, "a", {"v": [1.0, 5.0], "s": ["john", "alex"]})
        b = base_record(schema, "b", {"v": [4.0], "s": ["jon"]})
        x = featurize_pair(a, b, schema)
        assert x[0] == 1.0  # |5-4|
        assert x[1] == pytest.approx(0.25)  # lev(john, jon)=1 over 4

    def test_symmetry_and_ranges(self, mixed_schema):
        rng = np.random.default_rng(3)
        n = len(mixed_schema)
        for _ in range(200):
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            xab = featurize_pair(a, b, mixed_schema)
            xba = featurize_pair(b, a, mixed_schema)
            assert np.array_equal(xab, xba)
            assert len(xab) == 2 * n
            cat = mixed_schema.names.index("phone")
            assert xab[cat] in (0.0, 1.0)
            for t in ("name1", "name2"):
                assert 0.0 <= xab[mixed_schema.names.index(t)] <= 1.0
            assert xab[mixed_schema.names.index("age")] >= 0.0
            assert set(xab[n:]) <= {0.0, 1.0}

    def test_schema_mismatch(self, mixed_schema):
        other = FeatureSchema((Feature("solo", TEXT),))
        a = base_record(mixed_schema, "a", {})
        b = base_record(other, "b", {})
        with pytest.raises(SchemaError):
            featurize_pair(a, b, mixed_schema)


def _separable_pairs(schema, n=60, seed=0):
    """Label equals the categorical-agreement slot: perfectly separable."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        a = base_record(schema, f"a{i}", {"phone": ["same"] if label else ["x"],
                                          "age": [float(rng.normal())]})
        b = base_record(schema, f"b{i}", {"phone": ["same"] if label else ["y"],
                                          "age": [float(rng.normal())]})
        pairs.append((a, b, label))
    return pairs


def _overlapping_numeric_pairs(n=100, seed=0):
    """Noisy one-feature problem whose optimum has a healthy Hessian."""
    schema = FeatureSchema((Feature("v", NUMERIC),))
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        label = int(rng.random() < 0.5)
        gap = abs(rng.normal(0.3 if label else 0.8, 0.35))
        a = base_record(schema, f"a{i}", {"v": [0.0]})
        b = base_record(schema, f"b{i}", {"v": [float(gap)]})
        pairs.append((a, b, label))
    return schema, pairs


class TestTraining:
    def test_separable_reaches_perfect_accuracy(self, mixed_schema):
        pairs = _separable_pairs(mixed_schema)
        model = train_match_model(*labeled_table(pairs, mixed_schema))
        correct = sum(
            (score_pair(model, a, b) >= 0.5) == bool(label) for a, b, label in pairs
        )
        assert correct == len(pairs)

    def test_single_label_rejected(self, mixed_schema):
        pairs = [p for p in _separable_pairs(mixed_schema) if p[2] == 1]
        with pytest.raises(DegenerateDataError):
            train_match_model(*labeled_table(pairs, mixed_schema))

    def test_non_finite_feature_rejected(self, mixed_schema):
        pairs = _separable_pairs(mixed_schema, n=10)
        a, b, label = pairs[0]
        bad = replace(a, values=a.values[:3] + (frozenset({float("nan")}),))
        pairs[0] = (bad, b, label)
        with pytest.raises(DataError):
            train_match_model(*labeled_table(pairs, mixed_schema))

    def test_bad_label_rejected(self, mixed_schema):
        pairs = _separable_pairs(mixed_schema, n=10)
        a, b, _ = pairs[0]
        pairs[0] = (a, b, 2)
        with pytest.raises(DataError):
            train_match_model(*labeled_table(pairs, mixed_schema))

    def test_features_are_the_per_pair_features(self, mixed_schema):
        """The gather's training features are `reference.featurize_pair`'s
        rows bit for bit, so the stored standardization is too."""
        rng = np.random.default_rng(8)
        records = random_records(rng, mixed_schema, 120, max_values=3, missing_rate=0.3)
        pairs = [(records[2 * k], records[2 * k + 1], k % 2) for k in range(60)]
        model = train_match_model(*labeled_table(pairs, mixed_schema), TrainConfig(epochs=5))
        X = np.stack([featurize_pair(a, b, mixed_schema) for a, b, _ in pairs])
        stds = X.std(axis=0)
        assert np.array_equal(model.feature_means, X.mean(axis=0))
        assert np.array_equal(model.feature_scales, np.where(stds > 1e-12, stds, 1.0))

    def test_gradient_near_zero_at_convergence(self):
        schema, pairs = _overlapping_numeric_pairs(n=100)
        config = TrainConfig(epochs=20000, l2=0.01)
        model = train_match_model(*labeled_table(pairs, schema), config)
        X = np.stack([featurize_pair(a, b, schema) for a, b, _ in pairs])
        Z = (X - model.feature_means) / model.feature_scales
        y = np.array([l for _, _, l in pairs], dtype=float)
        grad_w, grad_b = logistic_gradient(model.weights, model.bias, Z, y, config.l2)
        assert max(np.abs(grad_w).max(), abs(grad_b)) < 1e-5

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(10):
            w = rng.normal(size=6)
            b = float(rng.normal())
            grad_w, grad_b = logistic_gradient(w, b, X, y, l2=0.01)
            eps = 1e-6
            for k in range(6):
                dw = np.zeros(6)
                dw[k] = eps
                num = (logistic_loss(w + dw, b, X, y, 0.01)
                       - logistic_loss(w - dw, b, X, y, 0.01)) / (2 * eps)
                assert num == pytest.approx(grad_w[k], rel=1e-6, abs=1e-9)
            num_b = (logistic_loss(w, b + eps, X, y, 0.01)
                     - logistic_loss(w, b - eps, X, y, 0.01)) / (2 * eps)
            assert num_b == pytest.approx(grad_b, rel=1e-6, abs=1e-9)

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            X = rng.normal(size=(50, 8)) * rng.uniform(0.5, 4.0)
            y = (rng.random(50) < 0.5).astype(float)
            _, _, losses = fit_logistic(X, y, TrainConfig(epochs=300, learning_rate=0.5))
            assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))

    def test_synthetic_validation_accuracy(self):
        from erbound.dataset import SplitSpec, generate_synthetic, split_dataset

        table, gold = generate_synthetic(seed=12)
        split = split_dataset(table, gold, SplitSpec(100, 100, seed=12))
        model = train_match_model(table, split.train_pairs)
        rows, cols, labels = split.validation_pairs
        correct = sum(
            (score_pair(model, table[i], table[j]) >= 0.5) == bool(label)
            for i, j, label in zip(rows, cols, labels)
        )
        assert correct / len(labels) > 0.95


class TestScore:
    def test_zero_model_scores_half(self, mixed_schema):
        rng = np.random.default_rng(1)
        model = random_model(rng, mixed_schema)
        model = replace(model, weights=np.zeros_like(model.weights), bias=0.0)
        a = random_record(rng, mixed_schema, "a")
        b = random_record(rng, mixed_schema, "b")
        assert score_pair(model, a, b) == 0.5

    def test_symmetric(self, mixed_schema):
        rng = np.random.default_rng(2)
        model = random_model(rng, mixed_schema)
        for _ in range(50):
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            assert score_pair(model, a, b) == score_pair(model, b, a)

    def test_hand_set_weights_closed_form(self):
        schema = FeatureSchema((Feature("phone", CATEGORICAL),))
        model = MatchModel(
            schema=schema, weights=np.array([2.0, 0.0]), bias=-1.0, threshold=0.5,
            feature_means=np.zeros(2), feature_scales=np.ones(2),
        )
        a = base_record(schema, "a", {"phone": ["555"]})
        b = base_record(schema, "b", {"phone": ["555"]})
        # slot value 1, so sigmoid(2*1 - 1) = 1/(1+e^-1)
        assert score_pair(model, a, b) == pytest.approx(0.7310585786300049, abs=1e-12)


class TestBaseMatch:
    def test_identical_records_match_at_any_threshold(self, mixed_schema, canonical_trio):
        rng = np.random.default_rng(3)
        r1, _, _ = canonical_trio
        for t in (0.01, 0.5, 0.99):
            model = random_model(rng, mixed_schema, threshold=t)
            assert base_match(model, r1, r1)

    def test_thresholding(self, mixed_schema):
        schema = FeatureSchema((Feature("phone", CATEGORICAL),))
        model = MatchModel(
            schema=schema, weights=np.array([2.0, 0.0]), bias=-1.0, threshold=0.5,
            feature_means=np.zeros(2), feature_scales=np.ones(2),
        )
        a = base_record(schema, "a", {"phone": ["555"]})
        b = base_record(schema, "b", {"phone": ["555"]})
        c = base_record(schema, "c", {"phone": ["000"]})
        assert base_match(model, a, b)          # 0.731 >= 0.5
        assert not base_match(model, a, c)      # sigmoid(-1) = 0.269 < 0.5

    def test_commutative_over_random_pairs_and_thresholds(self, mixed_schema):
        rng = np.random.default_rng(4)
        for _ in range(100):
            model = random_model(rng, mixed_schema)
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            assert base_match(model, a, b) == base_match(model, b, a)

    def test_raising_threshold_is_monotone(self, mixed_schema):
        rng = np.random.default_rng(5)
        for _ in range(100):
            model = random_model(rng, mixed_schema, threshold=0.3)
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            if not base_match(model, a, b):
                assert not base_match(replace(model, threshold=0.8), a, b)

    def test_composite_input_rejected(self, mixed_schema, canonical_trio):
        rng = np.random.default_rng(6)
        r1, r2, r3 = canonical_trio
        model = random_model(rng, mixed_schema)
        with pytest.raises(ValueError):
            base_match(model, merge_records(r1, r2), r3)


def synthetic_case(rng, mixed_schema):
    from erbound.dataset import generate_synthetic

    table, _ = generate_synthetic(n_entities=4, records_per_entity=3, seed=3)
    return table.schema, list(table)


def mixed_case(n):
    def case(rng, mixed_schema):
        return mixed_schema, random_records(rng, mixed_schema, n, max_values=3,
                                            missing_rate=0.5)
    return case


def one_kind_case(kind):
    def case(rng, mixed_schema):
        schema = FeatureSchema((Feature("a", kind), Feature("b", kind)))
        return schema, random_records(rng, schema, 12, max_values=3, missing_rate=0.3)
    return case


def distinct_categorical_case(rng, mixed_schema):
    """500 records, each with its own categorical value, so no two share one."""
    schema = FeatureSchema((Feature("phone", CATEGORICAL),))
    return schema, [base_record(schema, f"r{k:03d}", {"phone": [f"p{k:03d}"]})
                    for k in range(500)]


def absent_feature_case(rng, mixed_schema):
    """`age` and `phone` are missing from every record."""
    schema, records = mixed_case(10)(rng, mixed_schema)
    return schema, [base_record(schema, r.record_id, {"name1": r.values[0],
                                                       "name2": r.values[1]})
                    for r in records]


def assert_slots_match_reference(slots, pairs, schema):
    """Gathered slots equal `reference.featurize_pair`'s, with NaN exactly
    at its missing indicators."""
    m = len(schema)
    features = np.reshape([featurize_pair(a, b, schema) for a, b in pairs], (-1, 2 * m))
    assert np.array_equal(np.nan_to_num(slots), features[:, :m])
    assert np.array_equal(np.isnan(slots), features[:, m:] == 1.0)


class TestBulkScores:
    @pytest.mark.parametrize("case", [
        synthetic_case, mixed_case(14), one_kind_case(TEXT),
        one_kind_case(CATEGORICAL), distinct_categorical_case, absent_feature_case,
        mixed_case(0), mixed_case(1), mixed_case(2),
    ], ids=["synthetic", "mixed", "text", "categorical", "distinct-categorical",
            "absent-feature", "n0", "n1", "n2"])
    def test_matches_pairwise_definition(self, case, mixed_schema):
        rng = np.random.default_rng(13)
        schema, records = case(rng, mixed_schema)
        model = random_model(rng, schema)
        n = len(records)
        pairs = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]]
        scores = all_pairs(model, records)[2]
        assert scores.shape == (len(pairs),)
        assert np.allclose(scores, [pair_score(model, a, b) for a, b in pairs],
                           rtol=0.0, atol=1e-12)
        columns = record_table(records, schema)
        row_blocks = [columns.slots(slice(i, i + 1), slice(i + 1, n)) for i in range(n - 1)]
        assert_slots_match_reference(np.vstack([np.empty((0, len(schema))), *row_blocks]),
                                     pairs, schema)
        assert_slots_match_reference(columns.slots(*np.triu_indices(n, 1)), pairs, schema)

    def test_sparse_pair_list(self, monkeypatch, mixed_schema):
        """A few pairs of many records with missing and multi-valued cells,
        a self-pair and a swapped pair: the per-pair slots and scores, and
        edit distances only for the text value pairs the list holds."""
        from erbound import matching

        rng = np.random.default_rng(19)
        records = random_records(rng, mixed_schema, 300, max_values=3, missing_rate=0.3,
                                 words=random_words(rng, 150))
        rows, cols = rng.integers(0, 300, size=(2, 40))
        rows, cols = np.append(rows, [rows[0], cols[0]]), np.append(cols, [rows[0], rows[0]])
        pairs = [(records[i], records[j]) for i, j in zip(rows, cols)]
        calls = count_calls(monkeypatch, matching._batch_levenshtein)
        columns = record_table(records, mixed_schema)
        assert_slots_match_reference(columns.slots(rows, cols), pairs, mixed_schema)
        held = {(f, frozenset((x, y))) for a, b in pairs for f in (0, 1)
                for x in a.values[f] for y in b.values[f] if x != y}
        assert len(calls) == 1
        assert sum(len(args[2]) for args in calls) == len(held) > 0
        # the swapped pairs need no distance the first gather did not keep
        assert_slots_match_reference(columns.slots(cols, rows),
                                     [(b, a) for a, b in pairs], mixed_schema)
        assert len(calls) == 1
        distinct = len(set().union(*(r.values[0] for r in records)))
        assert 10 * len(held) < distinct * (distinct - 1) // 2  # the list is sparse
        model = random_model(rng, mixed_schema)
        assert np.allclose(score_pairs(model, columns, rows, cols),
                           [pair_score(model, a, b) for a, b in pairs], rtol=0.0, atol=1e-12)

    def test_one_vectorized_pass(self, monkeypatch, mixed_schema):
        """No per-pair scoring, and one edit distance per distinct text pair."""
        from erbound import matching

        rng = np.random.default_rng(14)
        records = random_records(rng, mixed_schema, 40, max_values=2)
        model = random_model(rng, mixed_schema)
        expected = [pair_score(model, a, b) for i, a in enumerate(records)
                    for b in records[i + 1:]]

        def forbidden(*args):
            raise AssertionError("per-pair path used")

        calls = count_calls(monkeypatch, matching._batch_levenshtein)
        monkeypatch.setattr(matching, "score_pair", forbidden)
        scores = all_pairs(model, records)[2]
        assert np.allclose(scores, expected, rtol=0.0, atol=1e-12)
        distinct = [len(set().union(*(r.values[f] for r in records))) for f in (0, 1)]
        assert max(distinct) < len(records)  # names repeat
        handed = sum(len(args[2]) for args in calls)
        assert 0 < handed <= sum(u * (u - 1) // 2 for u in distinct)

    def test_one_distance_pass_per_row_block(self, monkeypatch, mixed_schema):
        """The condensed scores of the 40-record mixed set make no scalar
        edit-distance call and at most one DP call per row block."""
        from erbound import matching, reference

        rng = np.random.default_rng(14)
        records = random_records(rng, mixed_schema, 40, max_values=2)
        scalar = [count_calls(monkeypatch, reference.levenshtein),
                  count_calls(monkeypatch, reference.normalized_levenshtein)]
        dp = count_calls(monkeypatch, matching._batch_levenshtein)
        blocks = []
        gather = PairColumns.slots
        monkeypatch.setattr(PairColumns, "slots",
                            lambda self, *args: blocks.append(args) or gather(self, *args))
        condensed_pairwise_scores(random_model(rng, mixed_schema),
                                  record_table(records, mixed_schema), 0.0)
        assert scalar == [[], []]
        assert 1 <= len(dp) <= len(blocks) < len(records) - 1

    def test_scored_matcher_equals_base_match(self, mixed_schema):
        rng = np.random.default_rng(15)
        model = random_model(rng, mixed_schema)
        records = random_records(rng, mixed_schema, 10)
        table = pairwise_scores(model, records)
        matcher = matcher_from_scores(table, model.threshold)
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                assert matcher(records[i], records[j]) == \
                    base_match(model, records[i], records[j])


class TestEdges:
    """Scoring keeps exactly the pairs at or above its floor, holds no
    array of every pair's score, and stops at its memory budget."""

    @pytest.mark.parametrize("floor", [0.02, 0.5, 0.96, "above-every-score"])
    @pytest.mark.parametrize("case", [synthetic_case, mixed_case(14), mixed_case(2)],
                             ids=["synthetic", "random-records", "n2"])
    def test_floor_keeps_exactly_the_pairs_at_or_above(self, case, floor, mixed_schema):
        rng = np.random.default_rng(20)
        schema, records = case(rng, mixed_schema)
        model = random_model(rng, schema)
        dense = all_pairs(model, records)
        if floor == "above-every-score":
            floor = float(np.nextafter(dense[2].max(), 2.0))
        edges = condensed_pairwise_scores(model, record_table(records, schema), floor)
        kept = dense[2] >= floor
        assert len(edges) == 3
        for got, want in zip(edges, dense):
            assert np.array_equal(got, want[kept])

    def test_scoring_holds_no_array_of_every_pair(self):
        """1,200 numeric records at floor 0.9 peak below the 8 n(n-1)/2
        bytes of every pair's score, over row blocks of one row and of many;
        the edges are still exactly the pairs at or above the floor."""
        from erbound.dataset import generate_synthetic, synthetic_schema

        table, gold = generate_synthetic(n_entities=120, records_per_entity=10, seed=5)
        records = list(table)
        pairs = [(a, b, int(gold.labels[a.record_id] == gold.labels[b.record_id]))
                 for a, b in zip(records[::7], records[1::7])]
        pairs += [(a, b, 0) for a, b in zip(records[::11], records[600::11])]
        model = train_match_model(*labeled_table(pairs, synthetic_schema(10)))
        n = len(records)
        tracemalloc.start()
        try:
            edges = condensed_pairwise_scores(model, table, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (n - 1) // 2
        dense = all_pairs(model, records)
        kept = dense[2] >= 0.9
        assert 0 < kept.sum() < len(kept) // 50
        for got, want in zip(edges, dense):
            assert np.array_equal(got, want[kept])

    def test_complete_columns_skip_the_missing_term(self, mixed_schema):
        """Where no record lacks a feature, the scorer leaves out the missing
        indicators, and the scores stay bit-identical."""
        from erbound.dataset import generate_synthetic, synthetic_schema

        rng = np.random.default_rng(21)
        columns, _ = generate_synthetic(n_entities=8, records_per_entity=5, seed=21)
        assert columns.complete
        assert not record_table(*mixed_case(10)(rng, mixed_schema)[::-1]).complete
        slots = columns.slots(*np.triu_indices(len(columns), 1))
        model = random_model(rng, synthetic_schema(10))
        incomplete = copy.copy(columns)
        incomplete.complete = False
        assert np.array_equal(_scorer(model, columns)(slots.copy()),
                              _scorer(model, incomplete)(slots.copy()))

    @pytest.mark.parametrize("floor", [0.02, 2.0], ids=["edges", "cache-only"])
    def test_memory_budget(self, monkeypatch, mixed_schema, floor):
        """Kept edges and cached edit distances both count; above the
        budget, scoring stops with a ConfigError naming the way out. At a
        floor above every score only the distance cache is held."""
        from erbound import matching

        rng = np.random.default_rng(22)
        records = random_records(rng, mixed_schema, 40, words=random_words(rng, 30))
        model, table = random_model(rng, mixed_schema), record_table(records, mixed_schema)
        monkeypatch.setattr(matching, "MEMORY_BUDGET", 64)
        with pytest.raises(ConfigError, match="40 records .* --threshold or --grid-start"):
            condensed_pairwise_scores(model, table, floor)
        monkeypatch.setattr(matching, "MEMORY_BUDGET", 1 << 30)
        assert len(condensed_pairwise_scores(model, table, floor)[2]) == \
            int((all_pairs(model, records)[2] >= floor).sum())


class TestKernel:
    """The block scan against the per-pair oracle, over block sizes from
    one row to the whole table and over floors at the edges of `sigmoid`'s
    range: its clip at -500, a kept score and the next float above it."""

    @pytest.mark.parametrize("steepness", [1.0, 2000.0], ids=["plain", "clipped"])
    @pytest.mark.parametrize("case", [synthetic_case, mixed_case(14), one_kind_case(TEXT),
                                      one_kind_case(CATEGORICAL)],
                             ids=["complete-numeric", "multi-valued-incomplete", "text",
                                  "categorical"])
    def test_every_block_size_keeps_exactly_the_pairs_at_or_above(
            self, monkeypatch, mixed_schema, case, steepness):
        from erbound import matching

        rng = np.random.default_rng(30)
        schema, records = case(rng, mixed_schema)
        pairs = [(a, b) for i, a in enumerate(records) for b in records[i + 1:]]
        model = random_model(rng, schema)
        logits = [np.log(p / (1 - p)) for p in (pair_score(model, a, b) for a, b in pairs)]
        # logits centred on 0 and spread by `steepness`
        model = replace(model, weights=model.weights * steepness,
                        bias=(model.bias - (min(logits) + max(logits)) / 2) * steepness)
        oracle = [pair_score(model, a, b) for a, b in pairs]
        if steepness > 1:  # logits past either clip
            assert min(oracle) == float(sigmoid(-500.0)) and max(oracle) == 1.0
        table = record_table(records, schema)
        n, (n_features, k) = len(records), table.cells.shape[:2]
        one_row = n_features * k * k * (n - 1)
        for block in (1, one_row, 3 * one_row, one_row * n):
            monkeypatch.setattr(matching, "BLOCK_ELEMENTS", block)
            dense = all_pairs(model, records)
            assert np.allclose(dense[2], oracle, rtol=0.0, atol=1e-12)
            middle = float(np.median(dense[2]))
            for floor in (0.0, 1e-300, float(sigmoid(-500.0)), middle,
                          float(np.nextafter(middle, 2.0)), 1.0, 2.0):
                edges = condensed_pairwise_scores(model, table, floor)
                kept = dense[2] >= floor
                for got, want in zip(edges, dense):
                    assert np.array_equal(got, want[kept]), (block, floor)


class TestModelIO:
    def test_round_trip(self, tmp_path, mixed_schema):
        rng = np.random.default_rng(16)
        model = random_model(rng, mixed_schema, threshold=0.42)
        path = tmp_path / "model.json"
        save_model(path, model)
        again = load_model(path)
        assert again.schema == model.schema
        assert np.array_equal(again.weights, model.weights)
        assert again.bias == model.bias
        assert again.threshold == model.threshold
        assert np.array_equal(again.feature_means, model.feature_means)
        assert np.array_equal(again.feature_scales, model.feature_scales)

    def test_bad_format_version(self, tmp_path, mixed_schema):
        rng = np.random.default_rng(17)
        model = random_model(rng, mixed_schema)
        doc = model.to_dict()
        doc["format_version"] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)

    def test_threshold_validation(self, mixed_schema):
        rng = np.random.default_rng(18)
        model = random_model(rng, mixed_schema)
        with pytest.raises(ValueError):
            replace(model, threshold=1.0)
        with pytest.raises(ValueError):
            replace(model, threshold=0.0)

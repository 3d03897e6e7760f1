import tracemalloc
from itertools import product

import numpy as np
import pytest

from erbound.errors import DataError
from erbound.reference import (
    base_match,
    base_record,
    candidate_pairs,
    matcher_from_scores,
    merge_records,
    pairwise_scores,
    record_table,
    resolve_connected_components,
    resolve_rswoosh,
)
from erbound.resolver import (
    components_by_threshold,
    components_from_condensed,
    resolve_from_condensed,
    write_clustering_csv,
)

from conftest import all_pairs, random_model, random_records, resolve_at


def wrapper_and_merge(model, records):
    """Match/merge callables for the fixpoint engine, backed by a score
    table so repeated comparisons stay cheap."""
    base = {r.record_id: r for r in records}
    table = pairwise_scores(model, records)
    scored = matcher_from_scores(table, model.threshold)

    def match(o1, o2):
        return any(
            scored(base[i], base[j])
            for i, j in product(sorted(o1.base_ids), sorted(o2.base_ids))
        )
    return match, merge_records, scored


def pair_index(n, i, j):
    """Position of the unordered index pair {i, j} in a condensed array."""
    i, j = min(i, j), max(i, j)
    return i * n - i * (i + 1) // 2 + j - i - 1


def condensed_from_edges(n, edges):
    """Condensed scores that are 1.0 on the given index pairs, else 0.0."""
    scores = np.zeros(n * (n - 1) // 2)
    for i, j in edges:
        scores[pair_index(n, i, j)] = 1.0
    return scores


def path_edges(n, rng):
    """A path visiting the n items in random order."""
    order = rng.permutation(n).tolist()
    return list(zip(order, order[1:]))


def star_edges(n):
    """A star centred on the largest index."""
    return [(k, n - 1) for k in range(n - 1)]


def piece_edges(n, rng, pieces=7):
    """Paths over disjoint random groups of the n items."""
    piece = rng.integers(0, pieces, size=n)
    edges = []
    for p in range(pieces):
        members = rng.permutation(np.flatnonzero(piece == p)).tolist()
        edges += zip(members, members[1:])
    return edges


def smallest_member_labels(records, scores, threshold):
    """Each record's smallest member index in its cluster, from the
    predicate-driven reference resolver over the same condensed scores."""
    index = {r.record_id: k for k, r in enumerate(records)}
    n = len(records)

    def match(a, b):
        return scores[pair_index(n, index[a.record_id], index[b.record_id])] >= threshold

    labels = np.full(n, -1)
    for members in resolve_connected_components(records, match):
        ks = [index[i] for i in members]
        labels[ks] = min(ks)
    return labels


class TestComponentLabels:
    """`components_from_condensed` gives each item the smallest index in its
    connected component, as the reference resolver partitions them."""

    @staticmethod
    def records(mixed_schema, n):
        return [base_record(mixed_schema, f"r{k:04d}", {}) for k in range(n)]

    def check(self, records, scores, threshold):
        n = len(records)
        rows, cols = np.triu_indices(n, 1)
        labels = components_from_condensed(n, scores, threshold, rows, cols)
        assert labels.tolist() == smallest_member_labels(records, scores, threshold).tolist()
        # the edges at or above the threshold alone give the same labels
        kept = scores >= threshold
        assert labels.tolist() == components_from_condensed(
            n, scores[kept], threshold, rows[kept], cols[kept]).tolist()

    def test_random_records(self, mixed_schema):
        rng = np.random.default_rng(9)
        for _ in range(30):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, int(rng.integers(2, 25)))
            self.check(records, all_pairs(model, records)[2], model.threshold)

    def test_random_order_path(self):
        n = 2000
        scores = condensed_from_edges(n, path_edges(n, np.random.default_rng(10)))
        assert (components_from_condensed(n, scores, 0.5, *np.triu_indices(n, 1)) == 0).all()

    def test_star_centred_on_largest_index(self, mixed_schema):
        n = 300
        self.check(self.records(mixed_schema, n), condensed_from_edges(n, star_edges(n)), 0.5)

    def test_disjoint_pieces(self, mixed_schema):
        n = 400
        edges = piece_edges(n, np.random.default_rng(11))
        self.check(self.records(mixed_schema, n), condensed_from_edges(n, edges), 0.5)

    @pytest.mark.parametrize("n,edges", [(0, []), (1, []), (2, []), (2, [(0, 1)])])
    def test_tiny(self, mixed_schema, n, edges):
        self.check(self.records(mixed_schema, n), condensed_from_edges(n, edges), 0.5)

    def test_threshold_above_every_score(self, mixed_schema):
        rng = np.random.default_rng(12)
        scores = rng.random(50 * 49 // 2)
        threshold = np.nextafter(scores.max(), 2.0)
        self.check(self.records(mixed_schema, 50), scores, threshold)
        assert components_from_condensed(50, scores, threshold,
                                         *np.triu_indices(50, 1)).tolist() == list(range(50))


class TestComponentsByThreshold:
    """The one-pass sweep yields, at every threshold, exactly the labels of
    `components_from_condensed` and the number of scores that clear it,
    from every pair or from the edges at or above the lowest threshold."""

    @staticmethod
    def check(n, scores, thresholds):
        rows, cols = np.triu_indices(n, 1)
        kept = scores >= min(thresholds)
        for edges in ((scores, rows, cols), (scores[kept], rows[kept], cols[kept])):
            passed = list(components_by_threshold(n, edges[0], thresholds, *edges[1:]))
            assert [t for t, _, _ in passed] == sorted(map(float, thresholds), reverse=True)
            # checked after the pass has finished: earlier label arrays must not change
            for t, labels, tm_pairs in passed:
                assert labels.tolist() == \
                    components_from_condensed(n, scores, t, rows, cols).tolist()
                assert tm_pairs == int((scores >= t).sum())

    def test_random_condensed_arrays(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(2, 61))
            # scores on a 1/20 lattice, so many sit exactly on grid values
            scores = rng.integers(0, 21, size=n * (n - 1) // 2) / 20
            grid = rng.choice(np.arange(1, 20) / 20, size=int(rng.integers(1, 8)))
            self.check(n, scores, grid.tolist() + grid[:2].tolist())

    @pytest.mark.parametrize("thresholds", [
        [0.5], [0.7, 0.2, 0.7, 0.45, 0.2], [1.5], [-0.5], [1.5, 0.3, -0.5],
    ], ids=["single", "duplicates-unsorted", "above-every-score",
            "below-every-score", "above-and-below"])
    def test_threshold_lists(self, thresholds):
        rng = np.random.default_rng(17)
        self.check(40, rng.random(40 * 39 // 2), thresholds)

    @pytest.mark.parametrize("n,edges", [
        (2000, path_edges(2000, np.random.default_rng(10))),
        (300, star_edges(300)),
        (400, piece_edges(400, np.random.default_rng(11))),
    ], ids=["path", "star", "disjoint-pieces"])
    def test_fixture_graphs(self, n, edges):
        """The component fixtures, with each edge given a random score so
        the grid splits them into bands."""
        scores = condensed_from_edges(n, edges)
        scores *= np.random.default_rng(18).random(len(scores))
        self.check(n, scores, np.linspace(0.05, 0.95, 19))

    def test_sweep_labels_once(self, monkeypatch, mixed_schema):
        """A 19-point sweep labels every record outright once, at its top
        threshold; every lower threshold merges a band."""
        from erbound import pipeline, resolver
        from erbound.pipeline import sweep_thresholds

        calls = []

        def counted(n, scores, threshold, rows, cols):
            calls.append(threshold)
            return components_from_condensed(n, scores, threshold, rows, cols)

        for module in (resolver, pipeline):
            monkeypatch.setattr(module, "components_from_condensed", counted, raising=False)
        rng = np.random.default_rng(19)
        records = random_records(rng, mixed_schema, 30)
        sweep = sweep_thresholds(random_model(rng, mixed_schema),
                                 record_table(records, mixed_schema),
                                 rng.random(20), np.arange(20) % 2,
                                 np.linspace(0.05, 0.95, 19))
        assert len(list(sweep)) == 19
        assert calls == [0.95]

    def test_band_pass_memory_per_edge(self):
        """Sorting the edges into bands takes one int64 temporary beside
        the permuted rows and columns: a 48-point pass over 33,957 edges
        peaks below 27 bytes per edge (a negated band array on top of it
        read 31.3)."""
        from erbound.dataset import SplitSpec, generate_synthetic
        from erbound.matching import condensed_pairwise_scores
        from erbound.pipeline import train_pipeline

        records, gold = generate_synthetic(120, 6, noise_sigma=0.05, seed=5)
        model, split, _ = train_pipeline(records, gold,
                                         SplitSpec(60, 60, seed=5))
        rows, cols, scores = condensed_pairwise_scores(model, split.test_records, 0.02)
        assert len(scores) == 33_957
        tracemalloc.start()
        try:
            for _ in components_by_threshold(len(split.test_records), scores,
                                             np.linspace(0.02, 0.96, 48), rows, cols):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(scores) < 27, f"band pass peaked at {peak / len(scores):.1f} B/edge"


class TestRSwoosh:
    def test_shared_phone_then_isolated_record(self, mixed_schema, canonical_trio):
        r1, r2, r3 = canonical_trio
        base = {r.record_id: r for r in canonical_trio}

        def phones_match(a, b):
            pi = mixed_schema.names.index("phone")
            return a == b or bool(a.values[pi] & b.values[pi])

        def wrap(o1, o2):
            return any(phones_match(base[i], base[j])
                       for i, j in product(sorted(o1.base_ids), sorted(o2.base_ids)))

        assert resolve_rswoosh([r1, r2, r3], wrap, merge_records) == frozenset({
            frozenset({"r1", "r2"}), frozenset({"r3"}),
        })

    def test_no_matches_yields_singletons(self, mixed_schema):
        rng = np.random.default_rng(0)
        records = random_records(rng, mixed_schema, 7)
        assert len(resolve_rswoosh(records, lambda a, b: False, merge_records)) == 7

    def test_duplicate_ids_rejected(self, mixed_schema):
        a = base_record(mixed_schema, "a", {})
        with pytest.raises(DataError):
            resolve_rswoosh([a, a], lambda x, y: False, merge_records)

    def test_composite_input_rejected(self, mixed_schema, canonical_trio):
        r1, r2, _ = canonical_trio
        with pytest.raises(DataError):
            resolve_rswoosh([merge_records(r1, r2)], lambda x, y: False, merge_records)


class TestConnectedComponents:
    def test_chain_of_matches(self, mixed_schema):
        r1 = base_record(mixed_schema, "r1", {"age": [1.0]})
        r2 = base_record(mixed_schema, "r2", {"age": [2.0]})
        r3 = base_record(mixed_schema, "r3", {"age": [3.0]})

        def near(a, b):  # r1~r2 and r2~r3 but not r1~r3
            ai = mixed_schema.names.index("age")
            x, y = next(iter(a.values[ai])), next(iter(b.values[ai]))
            return abs(x - y) <= 1.0

        assert resolve_connected_components([r1, r2, r3], near) == \
            frozenset({frozenset({"r1", "r2", "r3"})})

    def test_empty_match_graph(self, mixed_schema):
        rng = np.random.default_rng(2)
        records = random_records(rng, mixed_schema, 6)
        assert len(resolve_connected_components(records, lambda a, b: False)) == 6

    def test_against_boolean_matrix_transitive_closure(self, mixed_schema):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 20))
            records = random_records(rng, mixed_schema, n)
            adj = rng.random((n, n)) < 0.12
            adj = np.logical_or(adj, adj.T)
            np.fill_diagonal(adj, True)
            index = {r.record_id: k for k, r in enumerate(records)}

            def match(a, b):
                return bool(adj[index[a.record_id], index[b.record_id]])

            closure = adj.copy()
            for _ in range(n):  # boolean-matrix powering to the fixpoint
                nxt = closure | (closure @ closure)
                if np.array_equal(nxt, closure):
                    break
                closure = nxt
            expected = frozenset(
                frozenset(records[j].record_id for j in np.nonzero(closure[i])[0])
                for i in range(n)
            )
            assert resolve_connected_components(records, match) == expected

    def test_candidate_pairs_exhaustive(self, mixed_schema):
        rng = np.random.default_rng(4)
        records = random_records(rng, mixed_schema, 5)
        assert sum(1 for _ in candidate_pairs(records)) == 10


class TestEquivalenceAndDeterminism:
    def test_rswoosh_equals_connected_components(self, mixed_schema):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, n)
            match, merge, scored = wrapper_and_merge(model, records)
            assert resolve_rswoosh(records, match, merge) == \
                resolve_connected_components(records, scored)

    def test_rswoosh_permutation_invariant(self, mixed_schema):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, 10)
            match, merge, _ = wrapper_and_merge(model, records)
            reference = resolve_rswoosh(records, match, merge)
            for _ in range(5):
                shuffled = list(records)
                rng.shuffle(shuffled)
                assert resolve_rswoosh(shuffled, match, merge) == reference

    def test_direct_matches_stay_within_clusters(self, mixed_schema):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, 10)
            match, merge, scored = wrapper_and_merge(model, records)
            block = {rid: members for members in resolve_rswoosh(records, match, merge)
                     for rid in members}
            for i, a in enumerate(records):
                for b in records[i + 1:]:
                    if scored(a, b):
                        assert block[a.record_id] == block[b.record_id]

    def test_condensed_resolution_matches_predicate_resolution(self, mixed_schema):
        rng = np.random.default_rng(8)
        for _ in range(30):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, 12)
            via_scores = resolve_at(records, all_pairs(model, records), model.threshold)
            via_predicate = resolve_connected_components(
                records, lambda a, b: base_match(model, a, b))
            assert via_scores == via_predicate


class TestClusteringType:
    """A resolution is a partition of the record ids: the oracles return
    one, and the program names each record's block by its smallest id."""

    def test_oracle_partitions_cover_the_ids_once(self, mixed_schema):
        rng = np.random.default_rng(20)
        for _ in range(40):
            model = random_model(rng, mixed_schema)
            records = random_records(rng, mixed_schema, int(rng.integers(1, 13)))
            match, merge, scored = wrapper_and_merge(model, records)
            for partition in (resolve_rswoosh(records, match, merge),
                              resolve_connected_components(records, scored)):
                blocks = list(partition)
                assert all(blocks)
                assert sum(map(len, blocks)) == len(set().union(*blocks))  # disjoint
                assert set().union(*blocks) == {r.record_id for r in records}

    def test_cluster_id_is_the_smallest_id_not_the_smallest_index(self):
        rng = np.random.default_rng(21)
        told_apart = 0
        for _ in range(30):
            n = int(rng.integers(2, 40))
            ids = [f"r{k:03d}" for k in rng.permutation(n)]
            rows, cols = np.triu_indices(n, 1)
            labels = components_from_condensed(n, rng.random(len(rows)), 0.97, rows, cols)
            expected = [min(ids[j] for j in range(n) if labels[j] == labels[k])
                        for k in range(n)]
            assert resolve_from_condensed(ids, labels) == expected
            told_apart += expected != [ids[label] for label in labels]
        assert told_apart > 10  # so `ids[labels]` fails here

    def test_csv_output_canonical_and_stable(self, tmp_path):
        ids, cluster_ids = ["r3", "r1", "r2"], ["r3", "r1", "r1"]
        p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        write_clustering_csv(p1, ids, cluster_ids)
        write_clustering_csv(p2, ids, cluster_ids)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines() == [
            "id,cluster_id", "r1,r1", "r2,r1", "r3,r3",
        ]

import csv

import numpy as np
import pytest

import erbound
from erbound.dataset import LabeledPairs
from erbound.matching import MatchModel, TrainConfig, condensed_pairwise_scores
from erbound.records import (
    CATEGORICAL,
    NUMERIC,
    TEXT,
    Feature,
    FeatureSchema,
)
from erbound.reference import (base_record, matcher_from_scores, pairwise_scores, record_table,
                               resolve_connected_components)
from erbound.resolver import components_from_condensed, resolve_from_condensed


@pytest.fixture
def mixed_schema():
    return FeatureSchema((
        Feature("name1", TEXT),
        Feature("name2", TEXT),
        Feature("phone", CATEGORICAL),
        Feature("age", NUMERIC),
    ))


@pytest.fixture
def canonical_trio(mixed_schema):
    """The classic partial-name/shared-phone trio: r1 and r2 share a phone,
    r3 has the full name but no phone."""
    r1 = base_record(mixed_schema, "r1", {"name1": ["John"], "name2": ["D."],
                                          "phone": ["377-8328"]})
    r2 = base_record(mixed_schema, "r2", {"name1": ["J."], "name2": ["Doe"],
                                          "phone": ["377-8328"]})
    r3 = base_record(mixed_schema, "r3", {"name1": ["John"], "name2": ["Doe"]})
    return r1, r2, r3


WORDS = ["john", "jon", "doe", "dina", "alex", "ale", "smith", "smyth", "wu"]
CATS = ["a", "b", "c", "d", "e"]


def random_record(rng, schema, rid, max_values=2, missing_rate=0.2, words=WORDS):
    values = {}
    for feat in schema.features:
        if rng.random() < missing_rate:
            continue
        k = int(rng.integers(1, max_values + 1))
        if feat.kind == NUMERIC:
            values[feat.name] = [float(x) for x in rng.normal(0, 2, size=k)]
        elif feat.kind == CATEGORICAL:
            values[feat.name] = [CATS[i] for i in rng.integers(0, len(CATS), size=k)]
        else:
            values[feat.name] = [words[i] for i in rng.integers(0, len(words), size=k)]
    return base_record(schema, rid, values)


def random_words(rng, n):
    """n random lowercase strings of 1 to 6 letters, mostly distinct."""
    return ["".join(rng.choice(list("abcdef"), size=rng.integers(1, 7))) for _ in range(n)]


def random_records(rng, schema, n, **kwargs):
    return [random_record(rng, schema, f"r{i:03d}", **kwargs) for i in range(n)]


def random_model(rng, schema, threshold=None):
    """Model with random weights and identity standardization; handy for
    property tests that need an arbitrary but valid match function."""
    m = 2 * len(schema)
    return MatchModel(
        schema=schema,
        weights=rng.normal(0, 1.5, size=m),
        bias=float(rng.normal(0, 0.5)),
        threshold=float(threshold if threshold is not None
                        else rng.uniform(0.05, 0.95)),
        feature_means=np.zeros(m),
        feature_scales=np.ones(m),
        config=TrainConfig(),
    )


def count_calls(monkeypatch, original):
    """Wrap `original` at every erbound module that binds it (some import it
    by name), or on its class if it is a classmethod, and return the list
    that collects the arguments of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(getattr(original, "__self__", None), type):
        monkeypatch.setattr(original.__self__, original.__name__, staticmethod(counting))
        return calls
    for module in [erbound] + [getattr(erbound, name) for name in dir(erbound)]:
        if getattr(module, "__name__", "").startswith("erbound"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def sweep_rows(sweep):
    """The rows of a `sweep_thresholds` iterator in ascending threshold
    order; the sweep yields them, with their labels, highest first."""
    return [row for row, _ in sweep][::-1]


def labeled_table(pairs, schema):
    """The record table of the (a, b, label) record triples and their
    (rows, cols, labels) index pairs into it, as training takes them."""
    p = len(pairs)
    table = record_table([a for a, _, _ in pairs] + [b for _, b, _ in pairs], schema)
    return table, LabeledPairs(np.arange(p), np.arange(p, 2 * p),
                               np.array([label for _, _, label in pairs]))


def all_pairs(model, records):
    """The production edges (rows, cols, scores) at floor 0, which every
    score clears: every pair of the `Record` list, checked to come in
    condensed order, so `scores` is the dense condensed score array."""
    edges = condensed_pairwise_scores(model, record_table(records, model.schema), 0.0)
    rows, cols = np.triu_indices(len(records), 1)
    assert np.array_equal(edges[0], rows) and np.array_equal(edges[1], cols)
    return edges


def resolve_at(records, edges, threshold):
    """The production resolution of the `Record` list at a threshold,
    labelled outright from their edges: the partition of their ids into
    blocks that share a cluster id."""
    ids = [r.record_id for r in records]
    rows, cols, scores = edges
    cluster_ids = resolve_from_condensed(ids, components_from_condensed(
        len(records), scores, threshold, rows, cols))
    blocks = {}
    for rid, cluster in zip(ids, cluster_ids):
        blocks.setdefault(cluster, set()).add(rid)
    return frozenset(map(frozenset, blocks.values()))


def oracle_resolution(model, records, threshold):
    """The reference resolution of the `Record` list at a threshold: graph
    search over the predicate of their dict score table."""
    return resolve_connected_components(
        records, matcher_from_scores(pairwise_scores(model, records), threshold))


def assert_clustering_file(path, partition):
    """The `id,cluster_id` file names every id of the partition once, sorted
    by id, with the smallest id of its block as its cluster id."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "cluster_id"]
    assert rows[1:] == sorted([rid, min(block)] for block in partition for rid in block)

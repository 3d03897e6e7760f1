import numpy as np
import pytest

from erbound.errors import SchemaError
from erbound.records import (
    NUMERIC,
    TEXT,
    Feature,
    FeatureSchema,
    canonical_value,
)
from erbound.reference import base_record, merge_records

from conftest import random_record


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema((Feature("x", TEXT), Feature("x", NUMERIC)))

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Feature("", TEXT)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Feature("x", "embedding")

    def test_round_trip_preserves_order(self, mixed_schema):
        again = FeatureSchema.from_dict(mixed_schema.to_dict())
        assert again == mixed_schema
        assert again.names == ("name1", "name2", "phone", "age")


class TestCanonicalization:
    def test_text_trim_and_casefold(self):
        assert canonical_value("  John ", TEXT) == "john"

    def test_numeric_string_forms_equal(self):
        assert canonical_value("1.50", NUMERIC) == canonical_value(1.5, NUMERIC)

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            canonical_value("inf", NUMERIC)

    def test_non_numeric_rejected(self):
        with pytest.raises(SchemaError):
            canonical_value("twelve", NUMERIC)


class TestMerge:
    def test_partial_names_shared_phone(self, mixed_schema, canonical_trio):
        r1, r2, _ = canonical_trio
        merged = merge_records(r1, r2)
        assert merged.base_ids == frozenset({"r1", "r2"})
        assert merged.values[0] == frozenset({"j.", "john"})
        assert merged.values[1] == frozenset({"d.", "doe"})
        assert merged.values[2] == frozenset({"377-8328"})

    def test_idempotent(self, mixed_schema, canonical_trio):
        r1, _, _ = canonical_trio
        assert merge_records(r1, r1) == r1

    def test_commutative_associative_on_random_triples(self, mixed_schema):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            c = random_record(rng, mixed_schema, "c")
            assert merge_records(a, b) == merge_records(b, a)
            assert merge_records(merge_records(a, b), c) == \
                merge_records(a, merge_records(b, c))

    def test_monotone_union(self, mixed_schema):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = random_record(rng, mixed_schema, "a")
            b = random_record(rng, mixed_schema, "b")
            merged = merge_records(a, b)
            assert merged.base_ids == a.base_ids | b.base_ids
            for slot_a, slot_m in zip(a.values, merged.values):
                assert slot_a <= slot_m

    def test_schema_mismatch(self, mixed_schema):
        short = FeatureSchema((Feature("name1", TEXT),))
        a = base_record(mixed_schema, "a", {})
        b = base_record(short, "b", {})
        with pytest.raises(SchemaError):
            merge_records(a, b)


class TestBaseRecord:
    def test_unknown_feature(self, mixed_schema):
        with pytest.raises(SchemaError):
            base_record(mixed_schema, "x", {"height": [1.0]})

    def test_empty_id(self, mixed_schema):
        with pytest.raises(SchemaError):
            base_record(mixed_schema, "", {})

    def test_missing_feature_is_empty_set(self, mixed_schema, canonical_trio):
        _, _, r3 = canonical_trio
        assert r3.values[mixed_schema.names.index("phone")] == frozenset()

    def test_duplicate_values_collapse(self, mixed_schema):
        rec = base_record(mixed_schema, "x", {"name1": ["John", " john "]})
        assert rec.values[0] == frozenset({"john"})

    def test_record_id(self, mixed_schema, canonical_trio):
        r1, r2, _ = canonical_trio
        assert r1.record_id == "r1"
        with pytest.raises(ValueError):
            merge_records(r1, r2).record_id

import copy
import csv
import re

import numpy as np
import pytest

from erbound.dataset import (
    GoldTruth,
    SplitSpec,
    _numeric_column,
    generate_synthetic,
    load_gold,
    load_records_csv,
    load_schema_json,
    save_schema_json,
    split_dataset,
    synthetic_schema,
    write_records_csv,
)
from erbound.errors import ConfigError, DataError
from erbound.matching import PairColumns
from erbound.records import NUMERIC, TEXT, Feature, FeatureSchema, canonical_value
from erbound.reference import base_record, pairs_from_labels, record_table, split_by_ids

from conftest import WORDS, count_calls, random_records

NUMBERS_SCHEMA = FeatureSchema((Feature("name", TEXT), Feature("x", NUMERIC),
                                Feature("y", NUMERIC)))


def messy_csv(rng, schema, path, n, single=False, pad=("", " ", "  ", "\t"), blank=0.0):
    """Write n records as a CSV with the schema's columns shuffled: cells
    with several values, a value repeated in one cell, padding drawn from
    `pad`, case variants, empty parts and missing or blank cells. With
    `single`, every cell holds exactly one value, and a numeric one may
    also be spelled `+2` or `1_0`; with `blank` as well, that share of the
    cells is empty or blank instead. Returns the `base_record` of each row,
    built from the raw values written."""
    columns = ["id", *rng.permutation(schema.names)]
    rows, records = [], []
    for i in range(n):
        rid, raw, row = f"r{i:03d}", {}, {}
        for feat in schema.features:
            if not single and rng.random() < 0.2:
                row[feat.name] = str(rng.choice(["", " ", "|", " | "]))
                continue
            if single and blank and rng.random() < blank:
                row[feat.name] = str(rng.choice(["", " ", "\t", "\xa0", *pad]))
                continue
            size = 1 if single else rng.integers(1, 4)
            if feat.kind == NUMERIC:
                values = [str(rng.choice([repr(float(rng.normal(0, 3))), "2", "-0.5", "1e-3",
                                          *["+2", "1_0"] * single]))
                          for _ in range(size)]
            else:
                values = [str(rng.choice(WORDS[:5])) for _ in range(size)]
                values = [v.upper() if rng.random() < 0.3 else v for v in values]
            if not single:
                values += values[:1] * int(rng.random() < 0.3)  # a repeat in the cell
            raw[feat.name] = values
            pads = rng.choice(pad, size=(len(values), 2))
            parts = [f"{a}{v}{b}" for v, (a, b) in zip(values, pads)]
            if not single and rng.random() < 0.2:
                parts.insert(int(rng.integers(0, len(parts) + 1)), " ")
            row[feat.name] = "|".join(parts)
        rows.append([f" {rid} " if rng.random() < 0.2 else rid,
                     *(row[name] for name in columns[1:])])
        records.append(base_record(schema, rid, raw))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([columns, *rows])
    return records


class TestGenerator:
    def test_default_counts(self):
        records, gold = generate_synthetic(seed=0)
        assert len(records) == 1000
        assert len(pairs_from_labels(gold.labels)) == 4500

    def test_single_record_entities_have_no_pairs(self):
        records, gold = generate_synthetic(n_entities=5, records_per_entity=1, seed=0)
        assert len(records) == 5
        assert pairs_from_labels(gold.labels) == frozenset()

    def test_zero_noise_collapses_entities(self):
        records, gold = generate_synthetic(n_entities=3, records_per_entity=4,
                                           noise_sigma=0.0, seed=1)
        by_label = {}
        for rec in records:  # each record decoded from the table
            by_label.setdefault(gold.labels[rec.record_id], set()).add(rec.values)
        for variants in by_label.values():
            assert len(variants) == 1

    def test_deterministic(self):
        a_records, a_gold = generate_synthetic(seed=42)
        b_records, b_gold = generate_synthetic(seed=42)
        assert list(a_records) == list(b_records)
        assert a_gold == b_gold
        c_records, _ = generate_synthetic(seed=43)
        assert list(a_records) != list(c_records)

    def test_truth_pair_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n_e = int(rng.integers(1, 8))
            per = int(rng.integers(1, 6))
            _, gold = generate_synthetic(n_e, per, dims=3, seed=int(rng.integers(1000)))
            assert len(pairs_from_labels(gold.labels)) == n_e * per * (per - 1) // 2

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            generate_synthetic(n_entities=0)
        with pytest.raises(ConfigError):
            generate_synthetic(noise_sigma=-0.1)


class TestRecordsCsv:
    def test_trio_fixture_with_missing_phone(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text(
            "id,name1,name2,phone,age\n"
            "r1,John,D.,377-8328,\n"
            "r2,J.,Doe,377-8328,\n"
            "r3,John,Doe,,\n"
        )
        records = load_records_csv(path, mixed_schema)
        assert [r.record_id for r in records] == ["r1", "r2", "r3"]
        phone = mixed_schema.names.index("phone")
        assert records[0].values[phone] == frozenset({"377-8328"})
        assert records[2].values[phone] == frozenset()

    def test_empty_file_after_header(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text("id,name1,name2,phone,age\n")
        assert list(load_records_csv(path, mixed_schema)) == []

    def test_duplicate_id_named_in_error(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text("id,name1,name2,phone,age\nr1,a,b,,\nr1,c,d,,\n")
        with pytest.raises(DataError, match="r1"):
            load_records_csv(path, mixed_schema)

    def test_missing_id_column(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text("name1,name2,phone,age\na,b,,\n")
        with pytest.raises(DataError, match="id"):
            load_records_csv(path, mixed_schema)

    @pytest.mark.parametrize("header,row,message", [
        ("id,name1,height", "r1,a,2", "does not match schema"),
        # the same set of names, one repeated: the repeat would be ignored
        ("id,name1,name2,phone,age,name1", "r1,a,b,,,999", "repeats column 'name1'"),
        ("id,name1,name2,phone,age,id", "r1,a,b,,,r2", "repeats column 'id'"),
    ], ids=["missing-feature", "repeated-feature", "repeated-id"])
    def test_header_schema_mismatch(self, tmp_path, mixed_schema, header, row, message):
        path = tmp_path / "records.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_records_csv(path, mixed_schema)

    def test_kind_violation_reports_row(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text("id,name1,name2,phone,age\nr1,a,b,,ten\n")
        with pytest.raises(DataError, match=":2"):
            load_records_csv(path, mixed_schema)

    def test_multivalued_cells(self, tmp_path, mixed_schema):
        path = tmp_path / "records.csv"
        path.write_text("id,name1,name2,phone,age\nr1,John|Jon,b,555|556,1.5\n")
        (rec,) = load_records_csv(path, mixed_schema)
        assert rec.values[0] == frozenset({"john", "jon"})
        assert rec.values[2] == frozenset({"555", "556"})

    def test_round_trip(self, tmp_path, mixed_schema):
        rng = np.random.default_rng(3)
        records = random_records(rng, mixed_schema, 20)
        path = tmp_path / "records.csv"
        write_records_csv(path, record_table(records, mixed_schema))
        assert list(load_records_csv(path, mixed_schema)) == records
        # as a spreadsheet exports it, behind a UTF-8 byte-order mark
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert list(load_records_csv(path, mixed_schema)) == records

    @pytest.mark.parametrize("seed", range(8))
    def test_loader_matches_its_oracle(self, tmp_path, mixed_schema, seed):
        """The table read from a messy CSV decodes to the `base_record` of
        each row, and its gathers equal, bit for bit, those of the table
        coded from those records."""
        rng = np.random.default_rng(seed)
        path = tmp_path / "records.csv"
        records = messy_csv(rng, mixed_schema, path, int(rng.integers(2, 60)))
        table = load_records_csv(path, mixed_schema)
        assert list(table) == records
        oracle = record_table(records, mixed_schema)
        rows, cols = rng.integers(0, len(records), size=(2, 400))
        assert table.slots(rows, cols).tobytes() == oracle.slots(rows, cols).tobytes()
        assert table.complete == oracle.complete

    @pytest.mark.parametrize("seed", range(6))
    def test_single_valued_loader_matches_its_oracle(self, tmp_path, monkeypatch, seed):
        """With one value in every cell, a numeric column is parsed in one
        pass, except one with a cell padded by \\x1c, which `str.strip`
        removes and `float` refuses: it is parsed cell by cell. Either way
        the table equals, bit for bit, the one coded from the records."""
        rng = np.random.default_rng(seed)
        path = tmp_path / "records.csv"
        pad = ["", " ", "\t", "\xa0", *["\x1c"] * (seed % 2)]
        records = messy_csv(rng, NUMBERS_SCHEMA, path, int(rng.integers(2, 60)),
                            single=True, pad=pad)
        parsed = count_calls(monkeypatch, canonical_value)
        table = load_records_csv(path, NUMBERS_SCHEMA)
        oracle = record_table(records, NUMBERS_SCHEMA)
        assert table.cells.tobytes() == oracle.cells.tobytes()
        assert table.complete and oracle.complete
        rows, cols = rng.integers(0, len(records), size=(2, 400))
        assert table.slots(rows, cols).tobytes() == oracle.slots(rows, cols).tobytes()
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        numeric = [column for name, column in zip(header, zip(*body)) if name in ("x", "y")]
        per_cell = {cell.strip() for column in numeric
                    if any("\x1c" in cell for cell in column) for cell in column}
        assert {raw for raw, kind in parsed if kind == NUMERIC} == per_cell
        assert bool(per_cell) == bool(seed % 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_blank_cells_keep_the_one_pass(self, tmp_path, monkeypatch, seed):
        """Blank cells among one value per cell: a numeric column is still
        parsed in one pass, each blank cell missing, except a column with a
        value padded by \\x1c, which is parsed cell by cell. Either way the
        table equals, bit for bit, the one coded from the records."""
        rng = np.random.default_rng(100 + seed)
        path = tmp_path / "records.csv"
        pad = ["", " ", "\t", *["\x1c"] * (seed % 2)]
        records = messy_csv(rng, NUMBERS_SCHEMA, path, int(rng.integers(10, 60)),
                            single=True, pad=pad, blank=0.3)
        assert any(not r.values[1] or not r.values[2] for r in records)
        parsed = count_calls(monkeypatch, canonical_value)
        table = load_records_csv(path, NUMBERS_SCHEMA)
        oracle = record_table(records, NUMBERS_SCHEMA)
        assert table.cells.tobytes() == oracle.cells.tobytes()
        assert not table.complete and not oracle.complete
        rows, cols = rng.integers(0, len(records), size=(2, 400))
        assert table.slots(rows, cols).tobytes() == oracle.slots(rows, cols).tobytes()
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        numeric = [column for name, column in zip(header, zip(*body)) if name in ("x", "y")]
        per_cell = {cell.strip() for column in numeric
                    if any("\x1c" in cell for cell in column if cell.strip())
                    for cell in column if cell.strip()}
        assert {raw for raw, kind in parsed if kind == NUMERIC} == per_cell

    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("cell, expected", [
        ("", []), (" ", []), ("1|2", [1.0, 2.0]),
        ("nan", "numeric value must be finite, got 'nan'"),
        ("inf", "numeric value must be finite, got 'inf'"),
        ("-inf", "numeric value must be finite, got '-inf'"),
        ("1e999", "numeric value must be finite, got '1e999'"),
        ("ten", "not a numeric value: 'ten'"),
        ("0x10", "not a numeric value: '0x10'"),
    ])
    def test_one_unparsed_cell_takes_the_per_cell_path(self, tmp_path, k, cell, expected):
        """One cell that `float` refuses, or reads as not finite, in an
        otherwise clean numeric column: the column loads as it did when
        every cell was parsed alone, or fails with the same message, naming
        the cell's line and feature."""
        path = tmp_path / "records.csv"
        values = [[0.5 * i, -i] for i in range(5)]
        cells = [[repr(a), repr(b)] for a, b in values]
        cells[k][1] = cell
        path.write_text("id,name,x,y\n" + "".join(
            f"r{i},n{i},{x},{y}\n" for i, (x, y) in enumerate(cells)))
        if isinstance(expected, str):
            with pytest.raises(DataError) as err:
                load_records_csv(path, NUMBERS_SCHEMA)
            assert str(err.value) == f"{path}:{k + 2}: feature 'y': {expected}"
            return
        values[k][1:] = expected
        records = [base_record(NUMBERS_SCHEMA, f"r{i}",
                               {"name": [f"n{i}"], "x": [x], "y": y})
                   for i, (x, *y) in enumerate(values)]
        table = load_records_csv(path, NUMBERS_SCHEMA)
        oracle = record_table(records, NUMBERS_SCHEMA)
        assert table.cells.tobytes() == oracle.cells.tobytes()
        assert table.complete == oracle.complete == bool(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_numeric_column_parses_as_float_does(self, seed):
        """The one-pass parse of a numeric column equals, bit for bit,
        `float` on each cell that `str.strip` leaves non-empty, NaN on each
        other cell, and raises ValueError exactly when a cell is refused or
        not finite, which sends the column to the per-cell path. Columns mix
        plain numbers with cells at the edges of `float`'s grammar: digit
        separators, non-ASCII digits and spaces, hex, overflow, NaN and
        infinity in any case, blanks and multi-valued cells."""
        rng = np.random.default_rng(40 + seed)
        odd = ["1_000", " 2.5 ", "\u0661\u0662\u066b\u0665", "\uff11\uff12", "Infinity",
               "-nan", "1e400", "-1e400", "1e-400", "4.9e-324", "1.7976931348623159e308",
               "0x1p3", "", " ", "\x1c", "\x1c1.5", "\xa01\u3000", "1|2", "nan", "-0", "+.5",
               "5.", "1e", "ten", "\t3\n", "1__0", "_1", "INF", "1,5", "0b1", "1e+05"]
        paths = {"one pass": 0, "blank": 0, "refused": 0}
        for _ in range(300):
            size = int(rng.integers(0, 12))
            plain = [repr(float(v)) for v in rng.normal(0, 1e3, size)]
            draw = rng.random(size)
            column = tuple(rng.choice(odd) if u < 0.1 else rng.choice(["", " ", "\t"])
                           if u < 0.2 else cell for u, cell in zip(draw, plain))
            try:
                want = np.array([float(cell) if cell.strip() else np.nan for cell in column])
                if not np.isfinite(want[[bool(cell.strip()) for cell in column]]).all():
                    raise ValueError("a numeric cell is not finite")
            except ValueError:
                with pytest.raises(ValueError):
                    _numeric_column(column)
                paths["refused"] += 1
                continue
            assert _numeric_column(column).tobytes() == want.tobytes(), column
            paths["blank" if np.isnan(want).any() else "one pass"] += 1
        assert min(paths.values()) >= 20, paths

    @pytest.mark.parametrize("cell, message", [
        ("ten", "not a numeric value: 'ten'"),
        ("nan", "numeric value must be finite, got 'nan'"),
        ("1|2", None)])
    def test_blank_and_unparsed_cells(self, tmp_path, cell, message):
        """A blank cell beside one that `float` refuses or reads as not
        finite: the column takes the per-cell path, which names the bad
        cell, or loads the multi-valued cell with the blank one missing."""
        path = tmp_path / "records.csv"
        ys = ["1.5", " ", "-2", cell, ""]
        path.write_text("id,name,x,y\n" + "".join(
            f"r{i},n{i},{i},{y}\n" for i, y in enumerate(ys)))
        if message:
            with pytest.raises(DataError) as err:
                load_records_csv(path, NUMBERS_SCHEMA)
            assert str(err.value) == f"{path}:5: feature 'y': {message}"
            return
        table = load_records_csv(path, NUMBERS_SCHEMA)
        assert [sorted(r.values[2]) for r in table] == [[1.5], [], [-2.0], [1.0, 2.0], []]

    @pytest.mark.parametrize("specials", [
        [np.nan, -0.0, 5e-324, 1e16, 1e22], [0.1, -2.5, 1e-7, 3.0, 1e22]])
    def test_single_valued_write_matches_per_slot_form(self, tmp_path, specials):
        """A table with at most one value per cell is written straight from
        its columns; the bytes equal the per-slot form's, which a second,
        empty slot forces, and loading them gives back the cells bit for
        bit."""
        rng = np.random.default_rng(5)
        records = [base_record(NUMBERS_SCHEMA, f"r{i}", {
            "name": [] if i == 2 else [str(rng.choice(WORDS))],
            "x": [float(rng.normal())],
            "y": [] if v != v else [v]}) for i, v in enumerate(specials * 3)]
        table = record_table(records, NUMBERS_SCHEMA)
        assert table.cells.shape[1] == 1
        wide = copy.copy(table)
        wide.cells = np.concatenate([table.cells, np.full_like(table.cells, np.nan)], axis=1)
        write_records_csv(tmp_path / "single.csv", table)
        write_records_csv(tmp_path / "slots.csv", wide)
        assert (tmp_path / "single.csv").read_bytes() == (tmp_path / "slots.csv").read_bytes()
        loaded = load_records_csv(tmp_path / "single.csv", NUMBERS_SCHEMA)
        assert loaded.cells.tobytes() == table.cells.tobytes()

    def test_synthetic_round_trip_is_lossless(self, tmp_path):
        records, _ = generate_synthetic(n_entities=5, records_per_entity=4, seed=9)
        schema = synthetic_schema(10)
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert list(load_records_csv(path, schema)) == list(records)


class TestGold:
    def test_shared_label_pair(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,label\na,1\nb,1\nc,2\n")
        gold = load_gold(path)
        assert pairs_from_labels(gold.labels) == frozenset({("a", "b")})
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # a UTF-8 byte-order mark
        assert load_gold(path) == gold

    def test_all_distinct(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,label\na,1\nb,2\nc,3\n")
        assert pairs_from_labels(load_gold(path).labels) == frozenset()

    def test_empty_label_unlabeled(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,label\na,1\nb,\n")
        assert load_gold(path).labels == {"a": "1"}

    def test_unknown_id_rejected(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("id,label\na,1\nzz,1\n")
        with pytest.raises(DataError, match="zz"):
            load_gold(path, valid_ids=["a", "b"])

    def test_restricted(self):
        gold = GoldTruth({"a": "1", "b": "1", "c": "2"})
        assert gold.restricted(["a", "c"]).labels == {"a": "1", "c": "2"}


RECORDS_HEADER = "id,name1,name2,phone,age\n"


class TestIdRows:
    """Both CSV loaders hold their data rows to one rule: the header's width,
    and an id, stripped, that is not empty and that no earlier row holds,
    labeled or not in a gold file."""

    @pytest.mark.parametrize("kind,text,message", [
        ("records", RECORDS_HEADER + "r1,a,b,,\nr2,a,b,\n", ":3: expected 5 cells, got 4"),
        ("records", RECORDS_HEADER + "r1,a,b,,\n  ,a,b,,\n", ":3: empty id"),
        ("gold", "id,lbl\na,1\n", ": expected header `id,label`, got ['id', 'lbl']"),
        ("gold", "id,label\na,1\nb,1,x\n", ":3: expected 2 cells, got 3"),
        ("gold", "id,label\na,1\n ,1\n", ":3: empty id"),
        ("gold", "id,label\nr1,\nr1,e1\n", ":3: duplicate id 'r1'"),
        ("gold", "id,label\nr1,e1\nr1,\n", ":3: duplicate id 'r1'"),
    ], ids=["records-width", "records-empty-id", "gold-header",
            "gold-width", "gold-empty-id", "gold-unlabeled-then-labeled",
            "gold-labeled-then-unlabeled"])
    def test_bad_row_names_file_and_line(self, tmp_path, mixed_schema, kind, text, message):
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path) + message)}$"):
            if kind == "records":
                load_records_csv(path, mixed_schema)
            else:
                load_gold(path, valid_ids=["a", "b", "r1"])


class TestSchemaJson:
    def test_round_trip(self, tmp_path, mixed_schema):
        path = tmp_path / "schema.json"
        save_schema_json(path, mixed_schema)
        assert load_schema_json(path) == mixed_schema


class TestSplit:
    def test_requesting_zero_pairs_keeps_everything(self):
        records, gold = generate_synthetic(n_entities=4, records_per_entity=3, seed=5)
        split = split_dataset(records, gold,
                              SplitSpec(0, 0, seed=0))
        assert split.train_pairs.labels.size == split.validation_pairs.labels.size == 0
        assert list(split.test_records) == list(records)
        assert split.test_gold.labels == gold.labels

    def test_disjointness_and_label_consistency(self):
        rng = np.random.default_rng(6)
        table, gold = generate_synthetic(n_entities=10, records_per_entity=6, seed=6)
        for trial in range(10):
            spec = SplitSpec(
                n_train_pairs=int(rng.integers(2, 40)),
                n_validation_pairs=int(rng.integers(2, 40)),
                positive_fraction_train=float(rng.uniform(0.2, 0.8)),
                positive_fraction_validation=float(rng.uniform(0.2, 0.8)),
                seed=trial,
            )
            split = split_dataset(table, gold, spec)
            assert len(split.train_pairs.labels) == spec.n_train_pairs
            assert len(split.validation_pairs.labels) == spec.n_validation_pairs
            used = set()
            seen_pairs = set()
            for rows, cols, labels in (split.train_pairs, split.validation_pairs):
                for i, j, label in zip(rows, cols, labels):
                    key = tuple(sorted((table.ids[i], table.ids[j])))
                    assert key not in seen_pairs  # no pair reused anywhere
                    seen_pairs.add(key)
                    assert (gold.labels[key[0]] == gold.labels[key[1]]) == bool(label)
                    used.update(key)
            test_ids = set(split.test_records.ids)
            assert list(split.test_records) == [r for r in table if r.record_id in test_ids]
            assert not (used & test_ids)
            assert set(split.test_gold.labels) <= test_ids

    def test_validation_class_balance_tracks_fraction(self):
        records, gold = generate_synthetic(seed=7)
        split = split_dataset(records, gold,
                              SplitSpec(0, 200, positive_fraction_validation=0.3, seed=7))
        assert split.validation_pairs.labels.sum() == 60

    def test_infeasible_positive_request(self):
        records, gold = generate_synthetic(n_entities=2, records_per_entity=2, seed=8)
        with pytest.raises(ConfigError, match="positive"):
            split_dataset(records, gold,
                          SplitSpec(100, 0, seed=0))

    def test_infeasible_negative_request(self):
        records, gold = generate_synthetic(n_entities=2, records_per_entity=2, seed=8)
        # 4 records: 2 positives, 4 negatives available; ask for 1 pos + 5 neg
        with pytest.raises(ConfigError, match="negative"):
            split_dataset(records, gold,
                          SplitSpec(6, 0, positive_fraction_train=0.2, seed=0))

    def test_deterministic(self):
        records, gold = generate_synthetic(n_entities=8, records_per_entity=5, seed=9)
        spec = SplitSpec(20, 20, seed=123)
        a = split_dataset(records, gold, spec)
        b = split_dataset(records, gold, spec)
        for pairs_a, pairs_b in ((a.train_pairs, b.train_pairs),
                                 (a.validation_pairs, b.validation_pairs)):
            assert all(np.array_equal(x, y) for x, y in zip(pairs_a, pairs_b))
        assert list(a.test_records) == list(b.test_records)
        assert a.test_gold == b.test_gold

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(-1, 0)
        with pytest.raises(ConfigError):
            SplitSpec(10, 10, positive_fraction_train=1.0)

    def test_duplicate_table_id_named(self):
        table = PairColumns(synthetic_schema(1), ["a", "b", "a"], [np.arange(3.0)])
        with pytest.raises(DataError, match="duplicate record id 'a'"):
            split_dataset(table, GoldTruth({"b": "1"}), SplitSpec(0, 0))

    def test_gold_id_not_in_table(self):
        table = PairColumns(synthetic_schema(1), ["a", "b"], [np.arange(2.0)])
        with pytest.raises(DataError, match="unknown ids: \\['zz'\\]"):
            split_dataset(table, GoldTruth({"a": "1", "zz": "1"}), SplitSpec(0, 0))

    def test_rejection_stall(self):
        """700 labeled records, 699 of them one entity: 600 negatives are
        too sparse a request for the full pool (244,650 pairs) but too dense
        for rejection, which meets the one other entity in 1 draw of 350."""
        ids = [f"r{k:03d}" for k in range(700)]
        table = PairColumns(synthetic_schema(1), ids, [np.arange(700.0)])
        gold = GoldTruth({rid: "solo" if rid == "r350" else "crowd" for rid in ids})
        with pytest.raises(ConfigError, match="stalled"):
            split_dataset(table, gold, SplitSpec(601, 0, positive_fraction_train=0.001))


def shuffled_ids_table(rng, n: int, n_entities: int, unlabeled: float = 0.0):
    """A record table of n records with the ids `id0`..`id<n-1>` in a
    random order, so table order, numeric order and id order all differ
    (`id10` < `id9`), and gold truth giving each record one of n_entities
    labels, or none with probability `unlabeled`."""
    ids = [f"id{k}" for k in rng.permutation(n)]
    table = PairColumns(synthetic_schema(1), ids, [rng.uniform(size=n)])
    return table, GoldTruth({rid: f"e{rng.integers(n_entities)}" for rid in ids
                             if rng.random() >= unlabeled})


class TestSplitOracle:
    """`split_dataset` draws index pairs from entity codes;
    `reference.split_by_ids` draws id pairs from sorted ids. Both give the
    same labeled pairs, test ids and test gold on each sampler path."""

    def assert_matches_oracle(self, monkeypatch, table, gold, spec, pool: bool):
        pools, triu = [], np.triu_indices  # the pool path's one call
        monkeypatch.setattr(np, "triu_indices", lambda *args: pools.append(args) or triu(*args))
        split = split_dataset(table, gold, spec)
        assert bool(pools) == pool
        oracle = split_by_ids(table, gold, spec)
        for pairs, expected in ((split.train_pairs, oracle.train_pairs),
                                (split.validation_pairs, oracle.validation_pairs)):
            for got, want in zip(pairs, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert split.test_records.ids == oracle.test_records.ids
        assert split.test_gold == oracle.test_gold

    @pytest.mark.parametrize("seed", range(20))
    def test_small_pool(self, monkeypatch, seed):
        """Up to 200k labeled pairs: the pool path, on tables with
        unlabeled records and singleton entities."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 90))
        table, gold = shuffled_ids_table(rng, n, n // 2, unlabeled=0.2)
        sizes = np.unique(list(gold.labels.values()), return_counts=True)[1]
        assert len(gold.labels) < n and 1 in sizes
        spec = SplitSpec(int(rng.integers(2, 12)), int(rng.integers(2, 12)),
                         float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)), seed=seed)
        self.assert_matches_oracle(monkeypatch, table, gold, spec, pool=True)

    def test_dense_request_takes_the_pool(self, monkeypatch):
        """Over 200k labeled pairs, but more negatives requested than a
        quarter of them: the pool path."""
        table, gold = shuffled_ids_table(np.random.default_rng(1), 640, 64)
        total, negatives = 640 * 639 // 2, (53_000 - 1_060) + (20 - 10)
        spec = SplitSpec(53_000, 20, positive_fraction_train=0.02, seed=1)
        assert total > 200_000 and negatives > total // 4
        self.assert_matches_oracle(monkeypatch, table, gold, spec, pool=True)

    def test_sparse_request_takes_rejection(self, monkeypatch):
        """Over 200k labeled pairs and a few negatives: rejection."""
        table, gold = shuffled_ids_table(np.random.default_rng(2), 700, 70, unlabeled=0.05)
        assert len(gold.labels) * (len(gold.labels) - 1) // 2 > 200_000
        self.assert_matches_oracle(monkeypatch, table, gold, SplitSpec(100, 100, seed=2),
                                   pool=False)

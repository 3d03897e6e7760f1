"""Datasets: synthetic generation, CSV ingestion, gold truth, splitting.

A CSV is read straight into the record table `matching.PairColumns`, the
one record form from the CSV to the score, and a split names its labeled
pairs by index into that table. `generate_synthetic` builds its table from
float columns, one per feature.

File formats, all UTF-8 (a byte-order mark is accepted on input)
-----------------------------------------------------------------
records CSV       : header `id,<feature...>`; multi-valued cells joined with
                    `|`; an empty cell is a missing feature.
gold CSV          : header `id,label`; an empty label leaves the id unlabeled.
schema JSON       : {"features": [{"name": ..., "kind": ...}, ...]}

In both CSVs each data row has the header's width and an id, stripped of
surrounding space, that is not empty and that no earlier row holds; a gold
row counts whether it is labeled or not. One reader (`_id_rows`) checks
this for both.

Gold truth enters the split and the sweep's true metrics in one form: an
entity code for each id of a record table, equal for ids that share a
label, -1 for an unlabeled id (`GoldTruth.entity_codes`).
"""

import csv
import json
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .matching import PairColumns
from .records import NUMERIC, Feature, FeatureSchema, canonical_value

@dataclass(frozen=True)
class GoldTruth:
    """Ground-truth entity labels for base-record ids. Unlabeled ids
    contribute no truth pairs."""

    labels: dict[str, str]

    def entity_codes(self, ids: Sequence[str]) -> np.ndarray:
        """Each id's entity code: equal for equal labels, numbered from 0 in
        order of first appearance; -1 for an unlabeled id."""
        codes: dict[str, int] = {}
        return np.array([codes.setdefault(self.labels[rid], len(codes))
                         if rid in self.labels else -1 for rid in ids], dtype=np.intp)

    def restricted(self, ids: Iterable[str]) -> "GoldTruth":
        keep = set(ids)
        return GoldTruth({i: lab for i, lab in self.labels.items() if i in keep})


def synthetic_schema(dims: int) -> FeatureSchema:
    width = max(2, len(str(dims - 1)))
    return FeatureSchema(tuple(Feature(f"f{j:0{width}d}", NUMERIC) for j in range(dims)))


def generate_synthetic(n_entities: int = 100, records_per_entity: int = 10,
                       dims: int = 10, noise_sigma: float = 0.02,
                       seed: int = 0) -> tuple[PairColumns, GoldTruth]:
    """The record table and gold truth of noisy numeric records around
    per-entity latent vectors.

    Each entity draws a latent vector uniformly from the unit cube; each of
    its records is the latent plus independent Gaussian noise per
    dimension, one float column per dimension of `synthetic_schema(dims)`.
    Deterministic given the seed. The defaults produce 1000 records in 100
    entities of 10, i.e. 4500 truth pairs.
    """
    for name, count in (("n_entities", n_entities),
                        ("records_per_entity", records_per_entity), ("dims", dims)):
        if count < 1:
            raise ConfigError(f"{name} must be positive, got {count}")
    if not 0 <= noise_sigma < np.inf:
        raise ConfigError(f"noise_sigma must be nonnegative and finite, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    total = n_entities * records_per_entity
    latents = rng.uniform(size=(n_entities, dims))
    values = latents[np.arange(total) // records_per_entity]
    values += rng.normal(0.0, noise_sigma, size=(total, dims))
    id_width = max(4, len(str(total - 1)))
    ent_width = max(4, len(str(n_entities - 1)))
    ids = [f"r{row:0{id_width}d}" for row in range(total)]
    gold = GoldTruth({rid: f"e{row // records_per_entity:0{ent_width}d}"
                      for row, rid in enumerate(ids)})
    return PairColumns(synthetic_schema(dims), ids, list(values.T)), gold


def _csv_rows(path) -> Iterator[list[str]]:
    """Yield the rows of a UTF-8 CSV file, header first, past any byte-order
    mark. An empty file or bytes that are not UTF-8 raise DataError naming it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            yield next(reader)
            yield from reader
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def _id_rows(path, rows: Iterable[list[str]], width: int, id_col: int,
             ids: dict) -> Iterator[list[str]]:
    """Yield a CSV's data rows, the rows after its header, one at a time,
    adding each row's id, stripped, to the keys of `ids`. Each row must
    have `width` cells and, in column `id_col`, an id that is not empty and
    that no earlier row holds; else DataError names the file and line."""
    for row_no, row in enumerate(rows, start=2):
        if len(row) != width:
            raise DataError(f"{path}:{row_no}: expected {width} cells, got {len(row)}")
        rid = row[id_col].strip()
        if not rid:
            raise DataError(f"{path}:{row_no}: empty id")
        if rid in ids:
            raise DataError(f"{path}:{row_no}: duplicate id {rid!r}")
        ids[rid] = None
        yield row


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV: the header row, then `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _numeric_column(column: Sequence[str]) -> np.ndarray:
    """A numeric column of at most one value per cell as one float array,
    NaN for a blank cell, the other cells parsed by one numpy conversion,
    which reads each string as `float` does. Raises ValueError when one of
    those is not a finite float (say, a multi-valued cell)."""
    try:
        parsed, blank = np.array(column, dtype=float), False
    except ValueError:  # blank cells, or a cell that is no float
        blank = np.array([not cell.strip() for cell in column], dtype=bool)
        parsed = np.full(len(column), np.nan)
        parsed[~blank] = np.array(list(compress(column, ~blank)), dtype=float)
    if not (np.isfinite(parsed) | blank).all():
        raise ValueError("a numeric cell is not finite")
    return parsed


def load_records_csv(path, schema: FeatureSchema) -> PairColumns:
    """Read base records into a record table; the header must contain `id`
    plus exactly the schema's feature names, each once, in any column
    order. A numeric column is parsed in one pass, its blank cells missing.
    Any other column, and a numeric one with a multi-valued or bad cell, has
    each distinct cell split and canonicalized once; that path names a bad
    cell's row."""
    rows = _csv_rows(path)
    header = next(rows)
    if "id" not in header:
        raise DataError(f"{path}: header is missing the mandatory `id` column")
    expected = {"id", *schema.names}
    if set(header) != expected:
        raise DataError(
            f"{path}: header {sorted(header)} does not match schema "
            f"columns {sorted(expected)}"
        )
    repeated = [name for k, name in enumerate(header) if name in header[:k]]
    if repeated:
        raise DataError(f"{path}: header repeats column {repeated[0]!r}")
    ids: dict[str, None] = {}
    body = list(_id_rows(path, rows, len(header), header.index("id"), ids))
    cells = list(zip(*body)) or [()] * len(header)
    columns = []
    for feat in schema.features:
        column = cells[header.index(feat.name)]
        if feat.kind == NUMERIC:
            with suppress(ValueError):  # a multi-valued or bad cell: per cell
                columns.append(_numeric_column(column))
                continue
        values = {}
        for cell in dict.fromkeys(column):
            try:
                values[cell] = tuple({canonical_value(p, feat.kind)
                                      for p in map(str.strip, cell.split("|")) if p})
            except SchemaError as exc:
                raise DataError(f"{path}:{column.index(cell) + 2}: "
                                f"feature {feat.name!r}: {exc}") from exc
        columns.append([values[cell] for cell in column])
    return PairColumns(schema, ids, columns)


def write_records_csv(path, table: PairColumns) -> None:
    """Write a record table as a records CSV, one feature column at a time;
    a cell joins its values, sorted as strings, with `|`. When no record
    holds two values of a feature, each cell is its one value or empty."""
    # empty strings and '|' cannot survive the cell encoding
    bad = [code for code, v in enumerate(table.values) if v == "" or "|" in v]
    for f in table.categorical + table.text:
        holding = np.nonzero((table.cells[f, :, :, None] == bad).any(axis=2))[1]
        if holding.size:
            raise DataError(
                f"record {table.ids[holding[0]]!r} feature {table.schema.names[f]!r} "
                "holds a value the CSV cell encoding cannot represent")
    columns = [table.ids]
    for f, feat in enumerate(table.schema.features):
        as_text = repr if feat.kind == NUMERIC else lambda code: table.values[int(code)]
        if table.cells.shape[1] == 1:  # no slot to filter, sort or join
            columns.append([as_text(v) if v == v else "" for v in table.cells[f, 0].tolist()])
        else:
            columns.append(["|".join(sorted([as_text(v) for v in slot if v == v]))
                            for slot in table.cells[f].T.tolist()])
    write_csv(path, ["id", *table.schema.names], zip(*columns))


def load_gold(path, valid_ids: Iterable[str] | None = None) -> GoldTruth:
    """Read `id,label` rows into a GoldTruth. The label is an entity id or
    any shared natural key (e.g. a phone number) standing in for one; the
    truth pairs are all same-label pairs. Rows with an empty label are
    unlabeled. Given `valid_ids`, every row's id must be one of them.
    """
    rows = _csv_rows(path)
    header = next(rows)
    if [h.strip() for h in header] != ["id", "label"]:
        raise DataError(f"{path}: expected header `id,label`, got {header}")
    labels: dict[str, str] = {}  # every row's id, until the unlabeled ones leave
    for row in _id_rows(path, rows, 2, 0, labels):
        labels[row[0].strip()] = row[1].strip()
    if valid_ids is not None and not (known := set(valid_ids)).issuperset(labels):
        row_no, rid = next((k, rid) for k, rid in enumerate(labels, start=2) if rid not in known)
        raise DataError(f"{path}:{row_no}: unknown id {rid!r}")
    for rid in [rid for rid, label in labels.items() if not label]:
        del labels[rid]
    return GoldTruth(labels)


def write_gold_csv(path, gold: GoldTruth) -> None:
    write_csv(path, ["id", "label"], sorted(gold.labels.items()))


def save_schema_json(path, schema: FeatureSchema) -> None:
    Path(path).write_text(json.dumps(schema.to_dict(), indent=2) + "\n", encoding="utf-8")


def load_schema_json(path) -> FeatureSchema:
    try:
        return FeatureSchema.from_dict(json.loads(Path(path).read_text(encoding="utf-8-sig")))
    except (SchemaError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SplitSpec:
    """How many labeled pairs to draw for training and validation, and at
    what positive fraction. Records touched by a drawn pair leave the test
    set."""

    n_train_pairs: int
    n_validation_pairs: int
    positive_fraction_train: float = 0.5
    positive_fraction_validation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_train_pairs", "n_validation_pairs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("positive_fraction_train", "positive_fraction_validation"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {f}")


class LabeledPairs(NamedTuple):
    """Pair k is the records rows[k] and cols[k] of a record table, with
    label labels[k], 1 for a match."""

    rows: np.ndarray
    cols: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True, eq=False)
class Split:
    train_pairs: LabeledPairs
    validation_pairs: LabeledPairs
    test_records: PairColumns
    test_gold: GoldTruth


def _positive_count(n_pairs: int, fraction: float) -> int:
    if n_pairs == 0:
        return 0
    k = round(n_pairs * fraction)
    if n_pairs >= 2:
        k = min(max(k, 1), n_pairs - 1)
    return int(k)


def _pairs_sharing(code: np.ndarray) -> np.ndarray:
    """The position pairs p < q with code[p] == code[q], columns of a (2, k)
    array in (p, q) order: each p's later members in a stable sort by code."""
    order = np.argsort(code, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(code))
    later = np.cumsum(np.bincount(code))[code] - place - 1
    offset = np.arange(later.sum()) - np.repeat(np.cumsum(later) - later, later)
    return np.stack([np.repeat(np.arange(len(code)), later),
                     order[np.repeat(place + 1, later) + offset]])


def _sample_negative_pairs(code: np.ndarray, count: int,
                           rng: "np.random.Generator") -> np.ndarray:
    """`count` position pairs p < q with different codes, columns of a (2, count)
    array in (p, q) order, drawn without replacement: by rejection for sparse
    requests, and otherwise from every such pair."""
    n = len(code)
    total = n * (n - 1) // 2
    if count and (total <= 200_000 or count > total // 4):
        pool = np.stack(np.triu_indices(n, 1))
        pool = pool[:, code[pool[0]] != code[pool[1]]]
        return pool[:, np.sort(rng.choice(pool.shape[1], size=count, replace=False))]
    chosen: set[tuple[int, int]] = set()
    attempts_left = 100 * count + 10_000
    while len(chosen) < count and attempts_left > 0:
        i, j = rng.integers(0, n, size=2)
        attempts_left -= 1
        if i == j or code[i] == code[j]:
            continue
        chosen.add((i, j) if i < j else (j, i))
    if len(chosen) < count:
        raise ConfigError("negative-pair sampling stalled; request too dense")
    return np.array(sorted(chosen), dtype=np.intp).reshape(-1, 2).T


def split_dataset(table: PairColumns, gold: GoldTruth, spec: SplitSpec) -> Split:
    """Draw labeled train and validation pairs and carve the test set.

    Positive pairs come from the gold truth, negative pairs from pairs of
    labeled records with different labels; sampling is without replacement
    and train/validation never share a pair. Pairs are drawn as positions
    p < q among the labeled records ordered by id: id pairs in order. Every
    record that appears in a drawn pair is removed from the test records,
    and the gold truth is restricted to what remains. Deterministic given
    spec.seed.
    """
    by_id = sorted(range(len(table)), key=table.ids.__getitem__)
    repeated = [table.ids[k] for k, m in zip(by_id, by_id[1:]) if table.ids[k] == table.ids[m]]
    if repeated:
        raise DataError(f"duplicate record id {repeated[0]!r}")
    unknown = set(gold.labels).difference(table.ids)
    if unknown:
        raise DataError(f"gold labels reference unknown ids: {sorted(unknown)[:5]}")
    codes = gold.entity_codes(table.ids)
    at = np.array([k for k in by_id if codes[k] >= 0], dtype=np.intp)  # labeled, by id
    code = codes[at]

    n_pos_train = _positive_count(spec.n_train_pairs, spec.positive_fraction_train)
    n_neg_train = spec.n_train_pairs - n_pos_train
    n_pos_val = _positive_count(spec.n_validation_pairs, spec.positive_fraction_validation)
    n_neg_val = spec.n_validation_pairs - n_pos_val

    positives = _pairs_sharing(code)
    n_positives = positives.shape[1]
    negatives_available = len(at) * (len(at) - 1) // 2 - n_positives
    if n_pos_train + n_pos_val > n_positives:
        raise ConfigError(
            f"split needs {n_pos_train + n_pos_val} positive pairs but only "
            f"{n_positives} exist in the gold truth"
        )
    if n_neg_train + n_neg_val > negatives_available:
        raise ConfigError(
            f"split needs {n_neg_train + n_neg_val} negative pairs but only "
            f"{negatives_available} exist among labeled records"
        )

    rng = np.random.default_rng(spec.seed)
    pos = positives[:, rng.choice(n_positives, size=n_pos_train + n_pos_val, replace=False)]
    neg = _sample_negative_pairs(code, n_neg_train + n_neg_val, rng)

    def labeled(positive: np.ndarray, negative: np.ndarray) -> LabeledPairs:
        rows, cols = at[np.hstack([positive, negative])]
        return LabeledPairs(rows, cols,
                            np.repeat([1, 0], [positive.shape[1], negative.shape[1]]))

    train = labeled(pos[:, :n_pos_train], neg[:, :n_neg_train])
    validation = labeled(pos[:, n_pos_train:], neg[:, n_neg_train:])
    used = np.zeros(len(table), dtype=bool)
    for pairs in (train, validation):
        used[pairs.rows] = used[pairs.cols] = True
    test_records = table.take(np.flatnonzero(~used))
    return Split(train, validation, test_records, gold.restricted(test_records.ids))

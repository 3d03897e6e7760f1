"""Datasets: synthetic generation, CSV ingestion, gold truth, splitting.

A CSV is read straight into the record table `matching.PairColumns`, the
one record form from the CSV to the score, and a split names its labeled
pairs by index into that table. `generate_synthetic` builds its table from
float columns, one per feature.

File formats
------------
records CSV       : header `id,<feature...>`; multi-valued cells joined with
                    `|`; an empty cell is a missing feature. UTF-8.
gold CSV          : header `id,label`; an empty label leaves the id unlabeled.
schema JSON       : {"features": [{"name": ..., "kind": ...}, ...]}

Gold truth enters every pairwise metric as its truth pairs
(`pairs_from_labels`): each unordered pair of ids sharing a label, smaller
id first.
"""

import csv
import json
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations, compress
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .matching import PairColumns
from .records import NUMERIC, Feature, FeatureSchema, canonical_value

Pair = tuple[str, str]


def pairs_from_labels(labels: Mapping[str, str]) -> frozenset[Pair]:
    """All unordered id pairs sharing a label."""
    by_label: dict[str, list[str]] = {}
    for rid, label in labels.items():
        by_label.setdefault(label, []).append(rid)
    return frozenset(pair for group in by_label.values()
                     for pair in combinations(sorted(group), 2))


@dataclass(frozen=True)
class GoldTruth:
    """Ground-truth entity labels for base-record ids. Unlabeled ids
    contribute no truth pairs."""

    labels: dict[str, str]

    def truth_pairs(self) -> frozenset[Pair]:
        return pairs_from_labels(self.labels)

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
    if n_entities < 1 or records_per_entity < 1 or dims < 1:
        raise ConfigError("entity, record, and dimension counts must be positive")
    if not 0 <= noise_sigma < np.inf:
        raise ConfigError("noise_sigma must be nonnegative and finite")
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


def _numeric_column(column: Sequence[str]) -> np.ndarray:
    """A numeric column of at most one value per cell as one float array,
    NaN for a blank cell, parsed by one `float` map over the other cells.
    Raises ValueError when one of those is not a finite float (say, a
    multi-valued cell)."""
    try:
        parsed, blank = np.fromiter(map(float, column), float, len(column)), False
    except ValueError:  # blank cells, or a cell that is no float
        blank = np.array([not cell.strip() for cell in column], dtype=bool)
        parsed = np.full(len(column), np.nan)
        parsed[~blank] = np.fromiter(map(float, compress(column, ~blank)), float)
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
    body = list(rows)
    id_col = header.index("id")
    ids: dict[str, None] = {}
    for row_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}:{row_no}: expected {len(header)} cells, got {len(row)}")
        rid = row[id_col].strip()
        if not rid:
            raise DataError(f"{path}:{row_no}: empty id")
        if rid in ids:
            raise DataError(f"{path}:{row_no}: duplicate id {rid!r}")
        ids[rid] = None
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *table.schema.names])
        writer.writerows(zip(*columns))


def load_gold(path, valid_ids: Iterable[str] | None = None) -> GoldTruth:
    """Read `id,label` rows into a GoldTruth. The label is an entity id or
    any shared natural key (e.g. a phone number) standing in for one; the
    truth pairs are all same-label pairs. Rows with an empty label are
    unlabeled.
    """
    known = set(valid_ids) if valid_ids is not None else None
    labels = {}
    rows = _csv_rows(path)
    header = next(rows)
    if [h.strip() for h in header] != ["id", "label"]:
        raise DataError(f"{path}: expected header `id,label`, got {header}")
    for row_no, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise DataError(f"{path}:{row_no}: expected 2 cells, got {len(row)}")
        rid, label = row[0].strip(), row[1].strip()
        if not rid:
            raise DataError(f"{path}:{row_no}: empty id")
        if rid in labels:
            raise DataError(f"{path}:{row_no}: duplicate id {rid!r}")
        if known is not None and rid not in known:
            raise DataError(f"{path}:{row_no}: unknown id {rid!r}")
        if label:
            labels[rid] = label
    return GoldTruth(labels)


def write_gold_csv(path, gold: GoldTruth) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for rid in sorted(gold.labels):
            writer.writerow([rid, gold.labels[rid]])


def save_schema_json(path, schema: FeatureSchema) -> None:
    Path(path).write_text(json.dumps(schema.to_dict(), indent=2) + "\n")


def load_schema_json(path) -> FeatureSchema:
    try:
        return FeatureSchema.from_dict(json.loads(Path(path).read_text()))
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
        if self.n_train_pairs < 0 or self.n_validation_pairs < 0:
            raise ConfigError("pair counts must be nonnegative")
        for name in ("positive_fraction_train", "positive_fraction_validation"):
            f = getattr(self, name)
            if not 0.0 < f < 1.0:
                raise ConfigError(f"{name} must lie strictly inside (0, 1)")


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


def _sample_negative_pairs(ids: Sequence[str], labels: dict[str, str], count: int,
                           rng: "np.random.Generator") -> list[Pair]:
    """Distinct-label pairs sampled without replacement, by rejection for
    sparse requests and by full enumeration otherwise."""
    n = len(ids)
    total = n * (n - 1) // 2
    chosen: set[Pair] = set()
    if count == 0:
        return []
    if total <= 200_000 or count > total // 4:
        pool = sorted(
            (a, b) for a, b in combinations(sorted(ids), 2) if labels[a] != labels[b]
        )
        picks = rng.choice(len(pool), size=count, replace=False)
        return [pool[k] for k in sorted(picks)]
    attempts_left = 100 * count + 10_000
    while len(chosen) < count and attempts_left > 0:
        i, j = rng.integers(0, n, size=2)
        attempts_left -= 1
        if i == j:
            continue
        a, b = ids[i], ids[j]
        if labels[a] == labels[b]:
            continue
        chosen.add((a, b) if a < b else (b, a))
    if len(chosen) < count:
        raise ConfigError("negative-pair sampling stalled; request too dense")
    return sorted(chosen)


def split_dataset(table: PairColumns, gold: GoldTruth, spec: SplitSpec) -> Split:
    """Draw labeled train and validation pairs and carve the test set.

    Positive pairs come from the gold truth, negative pairs from pairs of
    labeled records with different labels; sampling is without replacement
    and train/validation never share a pair. Every record that appears in a
    drawn pair is removed from the test records, and the gold truth is
    restricted to what remains. Deterministic given spec.seed.
    """
    index: dict[str, int] = {}
    for k, rid in enumerate(table.ids):
        if index.setdefault(rid, k) != k:
            raise DataError(f"duplicate record id {rid!r}")
    unknown = set(gold.labels) - set(index)
    if unknown:
        raise DataError(f"gold labels reference unknown ids: {sorted(unknown)[:5]}")

    n_pos_train = _positive_count(spec.n_train_pairs, spec.positive_fraction_train)
    n_neg_train = spec.n_train_pairs - n_pos_train
    n_pos_val = _positive_count(spec.n_validation_pairs, spec.positive_fraction_validation)
    n_neg_val = spec.n_validation_pairs - n_pos_val

    positives = sorted(gold.truth_pairs())
    labeled_ids = sorted(gold.labels)
    n_labeled = len(labeled_ids)
    negatives_available = n_labeled * (n_labeled - 1) // 2 - len(positives)
    if n_pos_train + n_pos_val > len(positives):
        raise ConfigError(
            f"split needs {n_pos_train + n_pos_val} positive pairs but only "
            f"{len(positives)} exist in the gold truth"
        )
    if n_neg_train + n_neg_val > negatives_available:
        raise ConfigError(
            f"split needs {n_neg_train + n_neg_val} negative pairs but only "
            f"{negatives_available} exist among labeled records"
        )

    rng = np.random.default_rng(spec.seed)
    pos_picks = rng.choice(len(positives), size=n_pos_train + n_pos_val, replace=False)
    pos_pairs = [positives[k] for k in pos_picks]
    neg_pairs = _sample_negative_pairs(labeled_ids, gold.labels,
                                       n_neg_train + n_neg_val, rng)

    def labeled(positive: list[Pair], negative: list[Pair]) -> LabeledPairs:
        at = np.array([(index[a], index[b]) for a, b in positive + negative],
                      dtype=np.intp).reshape(-1, 2)
        return LabeledPairs(at[:, 0], at[:, 1],
                            np.repeat([1, 0], [len(positive), len(negative)]))

    train = labeled(pos_pairs[:n_pos_train], neg_pairs[:n_neg_train])
    validation = labeled(pos_pairs[n_pos_train:], neg_pairs[n_neg_train:])
    used = np.zeros(len(table), dtype=bool)
    for pairs in (train, validation):
        used[pairs.rows] = used[pairs.cols] = True
    test_records = table.take(np.flatnonzero(~used))
    return Split(train, validation, test_records, gold.restricted(test_records.ids))

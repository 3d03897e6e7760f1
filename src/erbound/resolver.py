"""Resolution by connected components over condensed pairwise scores.

A resolution is a partition of the test records' ids: every pair whose
score clears the threshold is an edge, and the clusters are the connected
components of that graph, found in numpy as one label per record. This
is the partition the match/merge fixpoint reaches with the
max-over-constituents match rule and set-union merge; the slow engines
that show it live in `erbound.reference`. A sweep merges each score band
into the labels of the band above.
"""

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .records import Record


@dataclass(frozen=True)
class Clustering:
    """A partition of base-record ids, keyed by the smallest member id of
    each cluster."""

    clusters: dict[str, frozenset[str]]

    def __post_init__(self):
        seen: set[str] = set()
        for label, members in self.clusters.items():
            if not members:
                raise DataError("empty cluster")
            if label != min(members):
                raise DataError(f"cluster label {label!r} is not its smallest member")
            if members & seen:
                raise DataError("clusters overlap")
            seen |= members

    @property
    def ids(self) -> frozenset[str]:
        return frozenset().union(*self.clusters.values()) if self.clusters else frozenset()

    def partition(self) -> frozenset[frozenset[str]]:
        return frozenset(self.clusters.values())

    def labels(self) -> dict[str, str]:
        return {i: label for label, members in self.clusters.items() for i in members}

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[str]]) -> "Clustering":
        """Label each group of ids by its smallest member."""
        clusters = {}
        for group in groups:
            members = frozenset(group)
            clusters[min(members, default="")] = members
        return cls(clusters)

    @classmethod
    def from_labels(cls, records: Sequence[Record], labels: np.ndarray) -> "Clustering":
        """Group the records' ids by their component labels."""
        groups: dict[int, list[str]] = {}
        for record, label in zip(records, labels.tolist()):
            groups.setdefault(label, []).append(record.record_id)
        return cls.from_groups(groups.values())


def _check_base_inputs(records: Sequence[Record]) -> None:
    """Resolver inputs must be base records with distinct ids."""
    ids = set()
    for r in records:
        if not r.is_base():
            raise DataError("resolver inputs must be base records")
        ids.add(r.record_id)
    if len(ids) != len(records):
        raise DataError("duplicate record ids in resolver input")


def _pair_indices(n: int, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j), i < j, at the given condensed positions."""
    row_starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    rows = np.searchsorted(row_starts, hits, side="right") - 1
    return rows, hits - row_starts[rows] + rows + 1


def _merge(labels: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Smallest-member labels after adding the edges (rows[k], cols[k]) to
    the components that `labels` gives as smallest members; overwrites it.

    Min-label hooking plus pointer jumping (Shiloach & Vishkin, "An
    O(log n) parallel connectivity algorithm", J. Algorithms 1982). Each
    round keeps the edges whose endpoints still carry different labels and
    hooks the larger root of each under the smaller one, then jumps every
    label to its root. Labels only decrease, so the fixed point is the
    smallest member; each round hooks at least one root, so the loop ends.
    """
    while True:
        a, b = labels[rows], labels[cols]
        live = a != b
        if not live.any():
            return labels
        rows, cols, a, b = rows[live], cols[live], a[live], b[live]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def components_from_condensed(n: int, scores: np.ndarray, threshold: float) -> np.ndarray:
    """Component label of each of n items whose condensed pairwise scores
    clear the threshold: the smallest index in its component."""
    return _merge(np.arange(n), *_pair_indices(n, np.flatnonzero(scores >= threshold)))


def components_by_threshold(n: int, scores: np.ndarray, thresholds: Sequence[float]):
    """Yield (threshold, labels, tm_pairs) for each entry of the non-empty
    `thresholds`, highest first: the `components_from_condensed` labels and
    the number of scores >= threshold. The highest threshold is labelled
    outright; each lower score band [t_k, t_k+1) is then merged into the
    labels of the band above. Yielded arrays are never changed afterwards.
    """
    ts, repeats = np.unique(np.asarray(thresholds, dtype=float), return_counts=True)
    labels = components_from_condensed(n, scores, ts[-1])
    hits = np.flatnonzero(scores >= ts[0])
    band = np.searchsorted(ts, scores[hits], side="right") - 1
    # above[k]: scores >= ts[k]; edges sorted by band, highest first
    above = np.append(np.cumsum(np.bincount(band, minlength=len(ts))[::-1])[::-1], 0)
    order = np.argsort(-band)
    rows, cols = (index[order] for index in _pair_indices(n, hits))
    for k in range(len(ts) - 1, -1, -1):
        lo, hi = above[k + 1], above[k]
        if k + 1 < len(ts) and lo < hi:
            labels = _merge(labels.copy(), rows[lo:hi], cols[lo:hi])
        yield from [(float(ts[k]), labels, int(hi))] * repeats[k]


def resolve_from_condensed(records: Sequence[Record], scores: np.ndarray,
                           threshold: float) -> Clustering:
    """Connected-components resolution from precomputed condensed scores;
    identical to `reference.resolve_connected_components` with the
    thresholded matcher the scores came from."""
    _check_base_inputs(records)
    return Clustering.from_labels(
        records, components_from_condensed(len(records), scores, threshold))


def write_clustering_csv(path, clustering: Clustering) -> None:
    """CSV rows `id,cluster_id`, sorted by id; cluster ids are the
    canonical smallest-member labels."""
    labels = clustering.labels()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster_id"])
        for rid in sorted(labels):
            writer.writerow([rid, labels[rid]])

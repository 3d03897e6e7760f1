"""Resolution by connected components over condensed pairwise scores.

A resolution is a partition of the test records' ids: every pair whose
score clears the threshold is an edge, and the clusters are the connected
components of that graph, found in numpy as one label per record. This
is the partition the match/merge fixpoint reaches with the
max-over-constituents match rule and set-union merge; the slow engines
that show it live in `erbound.reference`.
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


def _check_base_inputs(records: Sequence[Record]) -> None:
    """Resolver inputs must be base records with distinct ids."""
    ids = set()
    for r in records:
        if not r.is_base():
            raise DataError("resolver inputs must be base records")
        ids.add(r.record_id)
    if len(ids) != len(records):
        raise DataError("duplicate record ids in resolver input")


def components_from_condensed(n: int, scores: np.ndarray, threshold: float) -> np.ndarray:
    """Component label of each of n items whose condensed pairwise scores
    clear the threshold: the smallest index in its component.

    Min-label hooking plus pointer jumping (Shiloach & Vishkin, "An
    O(log n) parallel connectivity algorithm", J. Algorithms 1982). Each
    round keeps the edges whose endpoints still carry different labels and
    hooks the larger root of each under the smaller one, then jumps every
    label to its root. Labels only decrease, so the fixed point is the
    smallest member; each round hooks at least one root, so the loop ends.
    """
    labels = np.arange(n)
    if n < 2:
        return labels
    row_starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    hits = np.flatnonzero(scores >= threshold)
    rows = np.searchsorted(row_starts, hits, side="right") - 1
    cols = hits - row_starts[rows] + rows + 1
    while True:
        a, b = labels[rows], labels[cols]
        live = a != b
        if not live.any():
            return labels
        rows, cols, a, b = rows[live], cols[live], a[live], b[live]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


def resolve_from_condensed(records: Sequence[Record], scores: np.ndarray,
                           threshold: float) -> Clustering:
    """Connected-components resolution from precomputed condensed scores;
    identical to `reference.resolve_connected_components` with the
    thresholded matcher the scores came from."""
    _check_base_inputs(records)
    groups: dict[int, list[str]] = {}
    labels = components_from_condensed(len(records), scores, threshold)
    for record, label in zip(records, labels.tolist()):
        groups.setdefault(label, []).append(record.record_id)
    return Clustering.from_groups(groups.values())


def write_clustering_csv(path, clustering: Clustering) -> None:
    """CSV rows `id,cluster_id`, sorted by id; cluster ids are the
    canonical smallest-member labels."""
    labels = clustering.labels()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster_id"])
        for rid in sorted(labels):
            writer.writerow([rid, labels[rid]])

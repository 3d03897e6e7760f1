"""Resolution by connected components over condensed pairwise scores.

A resolution is a partition of the test records' ids: every pair whose
score clears the threshold is an edge, and the clusters are the connected
components of that graph. This is the partition the match/merge fixpoint
reaches with the max-over-constituents match rule and set-union merge; the
slow engines that show it live in `erbound.reference`.
"""

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .records import Record


class UnionFind:
    """Disjoint sets over range(n) with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets containing a and b; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def groups(self) -> list[list[int]]:
        by_root: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


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


def _clustering_from_groups(records: Sequence[Record],
                            groups: Iterable[Iterable[int]]) -> Clustering:
    return Clustering.from_groups([records[k].record_id for k in group]
                                  for group in groups)


def components_from_condensed(n: int, scores: np.ndarray, threshold: float) -> UnionFind:
    """Union-find over n items whose condensed pairwise scores clear the
    threshold. Pure index arithmetic; no record objects involved."""
    uf = UnionFind(n)
    if n < 2:
        return uf
    row_starts = np.empty(n - 1, dtype=np.int64)
    start = 0
    for i in range(n - 1):
        row_starts[i] = start
        start += n - 1 - i
    hits = np.nonzero(scores >= threshold)[0]
    rows = np.searchsorted(row_starts, hits, side="right") - 1
    cols = hits - row_starts[rows] + rows + 1
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    return uf


def resolve_from_condensed(records: Sequence[Record], scores: np.ndarray,
                           threshold: float) -> Clustering:
    """Connected-components resolution from precomputed condensed scores;
    identical to `reference.resolve_connected_components` with the
    thresholded matcher the scores came from."""
    _check_base_inputs(records)
    uf = components_from_condensed(len(records), scores, threshold)
    return _clustering_from_groups(records, uf.groups())


def write_clustering_csv(path, clustering: Clustering) -> None:
    """CSV rows `id,cluster_id`, sorted by id; cluster ids are the
    canonical smallest-member labels."""
    labels = clustering.labels()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster_id"])
        for rid in sorted(labels):
            writer.writerow([rid, labels[rid]])

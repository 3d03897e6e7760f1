"""Pairwise evaluation of a clustering against gold truth, from counts.

A clustering is scored through the set of unordered within-cluster id
pairs. Precision and recall compare that pair set against the pair set of
the true clustering; both are computed here from cluster sizes and label
lookups, without materializing the clustering's pairs. The set-algebra
oracle is `reference.pair_metrics`.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .bounds import f1_lower_bound
from .resolver import Clustering

Pair = tuple[str, str]


def intra_cluster_pair_count(clustering: Clustering) -> int:
    """Number of unordered id pairs that share a cluster."""
    return sum(len(m) * (len(m) - 1) // 2 for m in clustering.clusters.values())


def pairs_from_labels(labels: Mapping[str, str]) -> frozenset[Pair]:
    """All unordered id pairs sharing a label."""
    by_label: dict[str, list[str]] = {}
    for rid, label in labels.items():
        by_label.setdefault(label, []).append(rid)
    pairs = set()
    for group in by_label.values():
        pairs.update(combinations(sorted(group), 2))
    return frozenset(pairs)


@dataclass(frozen=True)
class PairMetrics:
    precision: float
    recall: float
    f1: float


def truth_pairs_in_clustering(clustering: Clustering,
                              truth: Iterable[Pair]) -> int:
    """How many true pairs are within-cluster, via label lookups rather
    than materializing the clustering's pair set."""
    labels = clustering.labels()
    count = 0
    for a, b in truth:
        la, lb = labels.get(a), labels.get(b)
        if la is not None and la == lb:
            count += 1
    return count


def clustering_pair_metrics(clustering: Clustering,
                            truth: Iterable[Pair]) -> PairMetrics:
    """Pairwise precision, recall and F1 of a clustering against true pairs.
    An empty prediction has precision 1.0 and an empty truth recall 1.0."""
    truth = frozenset(truth)
    r = intra_cluster_pair_count(clustering)
    hit = truth_pairs_in_clustering(clustering, truth)
    precision = hit / r if r else 1.0
    recall = hit / len(truth) if truth else 1.0
    return PairMetrics(precision, recall, f1_lower_bound(precision, recall))

"""Resolution by connected components over scored pair edges.

A resolution is a partition of the test records' ids: every pair whose
score clears the threshold is an edge, and the clusters are the connected
components of that graph, found in numpy as one label per record. The
edges come as index arrays (rows, cols) beside their scores, as the scorer
keeps them: only pairs at or above some floor, never all n(n-1)/2. This
is the partition the match/merge fixpoint reaches with the
max-over-constituents match rule and set-union merge; the slow engines
that show it live in `erbound.reference`. A sweep merges each score band
into the labels of the band above: it reads each edge's band from a table
over score buckets of width 2^-12, searching only where a bucket holds
two thresholds, keeps it in one byte (for grids of up to 255 points),
orders the edges by band with a radix sort, and frees the scores and the
unsorted index arrays once they are read. The labels stay the resolution
up to the output file, which names each record's cluster by its smallest
id.
"""

from typing import Sequence

import numpy as np

from .dataset import write_csv


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


def components_from_condensed(n: int, scores: np.ndarray, threshold: float,
                              rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component label of each of n items joined by the edges (rows[k],
    cols[k]) whose scores[k] clears the threshold: the smallest index in
    its component."""
    keep = scores >= threshold
    return _merge(np.arange(n), rows[keep], cols[keep])


# a value v lies in bucket floor(v * 2^12), held to 0..2^12 + 1; the bands are
# taken 2^13 scores at a time, in buffers of that many floats and indices
BUCKETS_PER_UNIT = 1 << 12
BAND_CHUNK = 1 << 13


def _bands(ts: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Each score's band, `np.searchsorted(ts, scores, side="right")` for
    the sorted, distinct thresholds `ts`, in the smallest unsigned type that
    holds len(ts).

    The bucket is a nondecreasing function of the value, so a threshold in
    a lower bucket than a score lies below it and one in a higher bucket
    above it: a score's band is the number of thresholds in lower buckets,
    read from a table, plus one if it clears the lowest threshold of its
    own bucket. Only the scores whose bucket holds two or more thresholds
    are searched. Each chunk's bands go straight into the returned array,
    so no wider per-edge array is held.
    """
    dtype = np.min_scalar_type(len(ts))
    top = float(BUCKETS_PER_UNIT + 1)
    bucket = np.clip(ts * BUCKETS_PER_UNIT, 0.0, top).astype(np.intp)
    held, first, count = np.unique(bucket, return_index=True, return_counts=True)
    below = np.searchsorted(bucket, np.arange(BUCKETS_PER_UNIT + 2)).astype(dtype)
    lowest = np.full(len(below), np.nan)  # no score clears the NaN of an empty bucket
    lowest[held] = ts[first]
    crowded = np.zeros(len(below), dtype=bool)
    crowded[held[count > 1]] = True
    band = np.empty(len(scores), dtype)
    x, key, hit = np.empty(BAND_CHUNK), np.empty(BAND_CHUNK, np.intp), np.empty(BAND_CHUNK, bool)
    for lo in range(0, len(scores), BAND_CHUNK):
        s = scores[lo:lo + BAND_CHUNK]
        k, h = key[:len(s)], hit[:len(s)]
        np.clip(np.multiply(s, BUCKETS_PER_UNIT, out=x[:len(s)]), 0.0, top,
                out=k, casting="unsafe")
        np.greater_equal(s, lowest.take(k), out=h)
        out = np.add(below.take(k), h, out=band[lo:lo + len(s)])
        if len(held) < len(ts):  # some bucket holds two or more thresholds
            search = crowded[k]
            out[search] = np.searchsorted(ts, s[search], side="right")
    return band


def components_by_threshold(n: int, scores: np.ndarray, thresholds: Sequence[float],
                            rows: np.ndarray, cols: np.ndarray):
    """Yield (threshold, labels, tm_pairs) for each entry of the non-empty
    `thresholds`, highest first: the `components_from_condensed` labels and
    the number of edge scores >= threshold. The highest threshold is
    labelled outright; each lower score band [t_k, t_k+1) is then merged
    into the labels of the band above. Yielded arrays are never changed
    afterwards. The counts are the whole graph's when the edges hold every
    pair scoring at or above min(thresholds).

    Each edge's band, the number of distinct thresholds at or below its
    score, is read from a bucket table (`_bands`) in chunks straight into
    the smallest unsigned type that holds them all (one byte up to 255
    thresholds), and one stable argsort, a radix sort for 8- and 16-bit
    bands, lays the bands out in ascending slices. The pass drops its
    references to `scores` once the bands are taken and to the given `rows`
    and `cols` once they are permuted, so a caller that keeps none frees
    them: 8 bytes per edge are held from then on.
    """
    ts, repeats = np.unique(np.asarray(thresholds, dtype=float), return_counts=True)
    labels = components_from_condensed(n, scores, ts[-1], rows, cols)
    band = _bands(ts, scores)
    del scores
    # band b holds the sorted edges starts[b]:starts[b + 1]; band 0 lies below every threshold.
    # Counted before the sort: bincount takes an 8-byte copy of the bands
    starts = np.append(0, np.cumsum(np.bincount(band, minlength=len(ts) + 1)))
    order = np.argsort(band, kind="stable")  # merge order within a band leaves the labels
    del band
    # one at a time, so the unsorted rows are freed before the columns are copied
    rows = rows[order]
    cols = cols[order]
    del order
    for k in range(len(ts) - 1, -1, -1):
        lo, hi = starts[k + 1], starts[k + 2]
        if k + 1 < len(ts) and lo < hi:
            labels = _merge(labels.copy(), rows[lo:hi], cols[lo:hi])
        yield from [(float(ts[k]), labels, int(starts[-1] - lo))] * repeats[k]


def resolve_from_condensed(ids: Sequence[str], labels: np.ndarray) -> list[str]:
    """Each record's cluster id from the component labels, one per record
    id, that a sweep or `components_from_condensed` computed: the smallest
    id among the records sharing its label. A label is the smallest index,
    which is the smallest id only when the ids come sorted. The partition
    is `reference.resolve_connected_components`'s with the thresholded
    matcher the scores came from."""
    labels = labels.tolist()
    smallest: dict[int, str] = {}
    for rid, label in zip(ids, labels):
        if label not in smallest or rid < smallest[label]:
            smallest[label] = rid
    return [smallest[label] for label in labels]


def write_clustering_csv(path, ids: Sequence[str], cluster_ids: Sequence[str]) -> None:
    """CSV rows `id,cluster_id`, sorted by id."""
    write_csv(path, ["id", "cluster_id"], sorted(zip(ids, cluster_ids)))

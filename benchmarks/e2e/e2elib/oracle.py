"""Brute-force reference answers, independent of the code under test.

Pure NumPy and deliberately *not* built on ``repro.util``: a bug in the
library's packed-Hamming kernel or top-k merge must not also be a bug
in the thing that checks them.  Every checker returns the number of
query rows whose answer differs from the reference in any cell.

Tie-breaks match the library-wide total orders: kNN ranks by
``(distance, index)``, Jaccard by ``(-similarity, index)``, and a range
result is the set of in-radius indices in ascending order.
"""

from __future__ import annotations

import numpy as np

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _pack(bits: np.ndarray) -> np.ndarray:
    """``(n, d)`` 0/1 rows -> ``(w, n)`` uint64 words, word-major so each
    word column is contiguous.  (Bit order is irrelevant: both operands
    of every XOR/AND pack the same way.)"""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1)
    pad = -packed.shape[1] % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(np.ascontiguousarray(packed).view(np.uint64).T)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per uint64 element."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words)
    return _POPCOUNT8[words.view(np.uint8).reshape(-1, 8)].sum(axis=1, dtype=np.uint8)


class Oracle:
    """Reference answers over one dataset (packed once, reused per row)."""

    def __init__(self, dataset_bits: np.ndarray):
        self.n, self.d = dataset_bits.shape
        self._words = _pack(dataset_bits)
        self._sizes = self._reduce(lambda column, j: column)

    def _reduce(self, combine) -> np.ndarray:
        """Per-row popcount of ``combine(word column, j)`` summed over the
        word columns, as int64."""
        total = np.zeros(self.n, dtype=np.int64)
        for j, column in enumerate(self._words):
            total += _popcount(combine(column, j))
        return total

    def _distances(self, query_bits: np.ndarray) -> np.ndarray:
        q = _pack(query_bits[None, :])[:, 0]
        return self._reduce(lambda column, j: column ^ q[j])

    def check_knn(self, queries, indices, distances, k: int) -> int:
        k = min(k, self.n)
        bad = 0
        for row, q in enumerate(queries):
            dist = self._distances(q)
            # Everything at or under the k-th smallest distance, in index
            # order, then a stable sort on distance alone: ties come out
            # by ascending index.
            kth = np.partition(dist, k - 1)[k - 1]
            near = np.flatnonzero(dist <= kth)
            top = near[np.argsort(dist[near], kind="stable")][:k]
            if not (
                indices[row].shape == (k,)
                and np.array_equal(indices[row], top)
                and np.array_equal(distances[row], dist[top])
            ):
                bad += 1
        return bad

    def check_jaccard(self, queries, indices, similarities, intersections, k: int) -> int:
        k = min(k, self.n)
        bad = 0
        for row, q in enumerate(queries):
            qw = _pack(q[None, :])[:, 0]
            inter = self._reduce(lambda column, j: column & qw[j])
            union = self._sizes + int(q.sum()) - inter
            sim = np.ones(self.n, dtype=np.float64)
            np.divide(inter, union, out=sim, where=union > 0)
            top = np.argsort(-sim, kind="stable")[:k]
            if not (
                np.array_equal(indices[row], top)
                and np.array_equal(similarities[row], sim[top])
                and np.array_equal(intersections[row], inter[top])
            ):
                bad += 1
        return bad

    def check_range(self, queries, indices, distances, counts, radius: int) -> int:
        bad = 0
        for row, q in enumerate(queries):
            dist = self._distances(q)
            hits = np.flatnonzero(dist <= radius)
            c = int(counts[row])
            if not (
                c == hits.shape[0]
                and np.array_equal(indices[row, :c], hits)
                and np.array_equal(distances[row, :c], dist[hits])
                and (indices[row, c:] == -1).all()
            ):
                bad += 1
        return bad

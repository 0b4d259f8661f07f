"""Common interface for the approximate-kNN spatial indexes.

All three index families of the paper (randomized kd-trees,
hierarchical k-means, LSH — Section II-A) share the same usage pattern
in both the CPU and AP search paths (Section III-D): a *traversal*
selects candidate buckets for a query, and the buckets are then
linearly scanned (on CPU, or as one AP board configuration per bucket).

An index therefore exposes bucket structure explicitly:

* :attr:`buckets` — list of int64 arrays of dataset indices;
* :attr:`packed` — the dataset's packed words, packed once at
  construction and shared by every scan over the index;
* :meth:`query_buckets` — bucket ids a query's traversals reach;
* :meth:`scan` — exact top-k over each query's selected buckets, one
  :func:`~repro.util.topk.hamming_topk` call per distinct bucket set;
* :meth:`search` — traverse once, then :meth:`scan`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..util.bitops import as_bits, pack_bits
from ..util.topk import hamming_topk

__all__ = ["SpatialIndex"]


class SpatialIndex(abc.ABC):
    """Bucketed approximate-kNN index over binary codes."""

    def __init__(self, dataset_bits: np.ndarray):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        self.packed = pack_bits(dataset_bits)
        self.buckets: list[np.ndarray] = []

    # -- interface -------------------------------------------------------

    @abc.abstractmethod
    def query_buckets(self, query_bits: np.ndarray) -> list[int]:
        """Bucket ids this query's index traversal selects."""

    # -- shared helpers ---------------------------------------------------

    def _union(self, bucket_ids) -> np.ndarray:
        """Sorted union of the given buckets' dataset indices."""
        if not bucket_ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.buckets[b] for b in bucket_ids]))

    def candidates(self, query_bits: np.ndarray) -> np.ndarray:
        """Union of the selected buckets' dataset indices (sorted)."""
        return self._union(self.query_buckets(query_bits))

    def scan(
        self, queries_bits: np.ndarray, bucket_ids: list[list[int]], k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact top-k of each query over the union of its buckets.

        ``bucket_ids[i]`` holds query ``i``'s selected buckets.  Queries
        with the same bucket set share one
        :func:`~repro.util.topk.hamming_topk` call over that union —
        the AP's batched bucket scan.  Rows are padded with ``(-1,
        d+1)`` when fewer than ``k`` candidates survive pruning.
        Returns ``(indices, distances, scanned)``, ``scanned`` being
        the summed per-query candidate counts.
        """
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        n_q = queries_bits.shape[0]
        k = int(k)
        indices = np.full((n_q, k), -1, dtype=np.int64)
        distances = np.full((n_q, k), self.d + 1, dtype=np.int64)
        groups: dict[frozenset, list[int]] = {}
        for qi, ids in enumerate(bucket_ids):
            groups.setdefault(frozenset(ids), []).append(qi)
        qp = pack_bits(queries_bits)
        scanned = 0
        for key, rows in groups.items():
            cand = self._union(key)
            scanned += cand.size * len(rows)
            if cand.size == 0:
                continue
            idx, dist = hamming_topk(qp[rows], self.packed[cand], k, self.d)
            kk = idx.shape[1]
            indices[rows, :kk] = cand[idx]
            distances[rows, :kk] = dist
        return indices, distances, scanned

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Approximate kNN: traverse once, then :meth:`scan`.

        The stats dict reports the scan volume — the quantity the
        Table V run-time models consume.
        """
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        n_q = queries_bits.shape[0]
        bucket_ids = [self.query_buckets(q) for q in queries_bits]
        indices, distances, scanned = self.scan(queries_bits, bucket_ids, k)
        stats = {
            "mean_candidates": scanned / n_q,
            "mean_buckets": sum(map(len, bucket_ids)) / n_q,
            "scan_fraction": scanned / (n_q * self.n),
        }
        return indices, distances, stats

    def recall_at_k(
        self, queries_bits: np.ndarray, k: int, true_indices: np.ndarray
    ) -> float:
        """Fraction of exact k-NN ids retrieved (standard recall@k)."""
        approx, _, _ = self.search(queries_bits, k)
        hits = 0
        for i in range(approx.shape[0]):
            hits += len(set(approx[i].tolist()) & set(true_indices[i].tolist()))
        return hits / true_indices.size

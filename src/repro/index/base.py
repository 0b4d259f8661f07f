"""Common interface for the approximate-kNN spatial indexes.

All three index families of the paper (randomized kd-trees,
hierarchical k-means, LSH — Section II-A) share the same usage pattern
in both the CPU and AP search paths (Section III-D): a *traversal*
selects candidate buckets for a query, and the buckets are then
linearly scanned (on CPU, or as one AP board configuration per bucket).

An index therefore exposes bucket structure explicitly:

* :attr:`buckets` — list of int64 arrays of dataset indices;
* :meth:`query_buckets` — bucket ids a query's traversals reach;
* :meth:`search` — convenience exact-scan-over-candidates search.
"""

from __future__ import annotations

import abc

import numpy as np

from ..util.bitops import as_bits, hamming_cdist_packed, pack_bits

__all__ = ["SpatialIndex"]


class SpatialIndex(abc.ABC):
    """Bucketed approximate-kNN index over binary codes."""

    def __init__(self, dataset_bits: np.ndarray):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        self._packed = pack_bits(dataset_bits)
        self.buckets: list[np.ndarray] = []

    # -- interface -------------------------------------------------------

    @abc.abstractmethod
    def query_buckets(self, query_bits: np.ndarray) -> list[int]:
        """Bucket ids this query's index traversal selects."""

    # -- shared helpers ---------------------------------------------------

    def candidates(self, query_bits: np.ndarray) -> np.ndarray:
        """Union of the selected buckets' dataset indices (sorted)."""
        ids = self.query_buckets(query_bits)
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.buckets[b] for b in ids]))

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Approximate kNN: traverse, then exact-scan the candidates.

        Rows are padded with ``(-1, d+1)`` when fewer than ``k``
        candidates survive pruning.  The stats dict reports the scan
        volume — the quantity the Table V run-time models consume.
        """
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        n_q = queries_bits.shape[0]
        k = int(k)
        indices = np.full((n_q, k), -1, dtype=np.int64)
        distances = np.full((n_q, k), self.d + 1, dtype=np.int64)
        total_candidates = 0
        total_buckets = 0
        qp = pack_bits(queries_bits)
        for i in range(n_q):
            cand = self.candidates(queries_bits[i])
            total_candidates += cand.size
            total_buckets += len(self.query_buckets(queries_bits[i]))
            if cand.size == 0:
                continue
            dist = hamming_cdist_packed(qp[i : i + 1], self._packed[cand])[0]
            kk = min(k, cand.size)
            order = np.lexsort((cand, dist))[:kk]
            indices[i, :kk] = cand[order]
            distances[i, :kk] = dist[order]
        stats = {
            "mean_candidates": total_candidates / n_q,
            "mean_buckets": total_buckets / n_q,
            "scan_fraction": total_candidates / (n_q * self.n),
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

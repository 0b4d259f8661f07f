"""CPU baseline: FLANN-style Hamming-distance linear scan (Section IV-C).

Two functionally identical paths:

* :meth:`CPUHammingKnn.search` — the vectorized production path:
  packed-word XOR + POPCOUNT over query tiles, then deterministic
  top-k.  This is the counterpart of FLANN's multithreaded Hamming
  scan and is what the live benchmarks time.
* :meth:`CPUHammingKnn.search_priority_queue` — the textbook
  scan-plus-priority-queue algorithm the paper ascribes to von-Neumann
  kNN (``O(n log n)`` sort phase, Section III-B); used by tests as an
  independent oracle and by the FPGA simulator as the reference for its
  hardware priority queue.

Timings for the paper's platforms come from the calibrated analytic
models (:mod:`repro.perf.models`); the live scan validates the
O(q·n·d) complexity *shape* on this machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..util.bitops import as_bits, hamming_cdist_packed, pack_bits
from ..util.topk import BoundedPriorityQueue, topk_from_distances

__all__ = ["CPUHammingKnn", "CPUSearchResult"]


@dataclass
class CPUSearchResult:
    indices: np.ndarray  # (q, k)
    distances: np.ndarray  # (q, k)
    elapsed_s: float
    candidates_scanned: int


class CPUHammingKnn:
    """Exact linear-scan kNN over binary codes."""

    def __init__(self, dataset_bits: np.ndarray, query_tile: int = 64):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.n, self.d = dataset_bits.shape
        if query_tile < 1:
            raise ValueError("query_tile must be >= 1")
        self.query_tile = query_tile
        self._packed = pack_bits(dataset_bits)

    def search(self, queries_bits: np.ndarray, k: int) -> CPUSearchResult:
        """Batched XOR/POPCOUNT scan; queries tiled to bound memory."""
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(
                f"queries have d={queries_bits.shape[1]}, dataset d={self.d}"
            )
        k = min(int(k), self.n)
        qp = pack_bits(queries_bits)
        n_q = qp.shape[0]
        indices = np.empty((n_q, k), dtype=np.int64)
        distances = np.empty((n_q, k), dtype=np.int64)
        t0 = time.perf_counter()
        for lo in range(0, n_q, self.query_tile):
            hi = min(lo + self.query_tile, n_q)
            dist = hamming_cdist_packed(qp[lo:hi], self._packed)
            for i in range(hi - lo):
                idx, dd = topk_from_distances(dist[i], k)
                indices[lo + i] = idx
                distances[lo + i] = dd
        elapsed = time.perf_counter() - t0
        return CPUSearchResult(indices, distances, elapsed, n_q * self.n)

    def search_priority_queue(self, query_bits: np.ndarray, k: int) -> CPUSearchResult:
        """Single-query scan with a bounded max-heap (the textbook path)."""
        query_bits = as_bits(query_bits, "query").ravel()
        if query_bits.shape[0] != self.d:
            raise ValueError(f"query has d={query_bits.shape[0]}, dataset d={self.d}")
        k = min(int(k), self.n)
        qp = pack_bits(query_bits)
        t0 = time.perf_counter()
        dist = hamming_cdist_packed(qp, self._packed)[0]
        pq = BoundedPriorityQueue(k)
        for i in range(self.n):
            pq.push(int(dist[i]), i)
        items = pq.sorted_items()
        elapsed = time.perf_counter() - t0
        indices = np.array([i for i, _ in items], dtype=np.int64)
        distances = np.array([d for _, d in items], dtype=np.int64)
        return CPUSearchResult(
            indices[None, :], distances[None, :], elapsed, self.n
        )

    def scan_subset(
        self, queries_bits: np.ndarray, candidate_idx: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k restricted to ``candidate_idx`` (index bucket scans).

        Returned indices are *global* dataset indices; used by the
        spatial-index search paths (Section III-D).
        """
        candidate_idx = np.asarray(candidate_idx, dtype=np.int64)
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if candidate_idx.size == 0:
            empty = np.empty((queries_bits.shape[0], 0), dtype=np.int64)
            return empty, empty.copy()
        qp = pack_bits(queries_bits)
        dist = hamming_cdist_packed(qp, self._packed[candidate_idx])
        k = min(int(k), candidate_idx.shape[0])
        out_i = np.empty((dist.shape[0], k), dtype=np.int64)
        out_d = np.empty((dist.shape[0], k), dtype=np.int64)
        for i in range(dist.shape[0]):
            # Tie-break must be on *global* indices so subset scans agree
            # with full scans: lexsort on (global index, distance).
            order = np.lexsort((candidate_idx, dist[i]))[:k]
            out_i[i] = candidate_idx[order]
            out_d[i] = dist[i][order]
        return out_i, out_d

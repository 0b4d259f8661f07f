"""CPU baseline: FLANN-style Hamming-distance linear scan (Section IV-C).

Two functionally identical paths:

* :meth:`CPUHammingKnn.search` — the vectorized production path: one
  :func:`~repro.util.topk.hamming_topk` call, the packed-word XOR +
  POPCOUNT scan in query tiles plus the exact top-k select the engine's
  boards use.  This is the counterpart of FLANN's multithreaded
  Hamming scan and is what the live benchmarks time.
* :meth:`CPUHammingKnn.search_priority_queue` — the textbook
  scan-plus-priority-queue algorithm the paper ascribes to von-Neumann
  kNN (``O(n log n)`` sort phase, Section III-B); used by tests as an
  independent oracle.

Timings for the paper's platforms come from the calibrated analytic
models (:mod:`repro.perf.models`); the live scan validates the
O(q·n·d) complexity *shape* on this machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..util.bitops import as_bits, hamming_cdist_packed, pack_bits
from ..util.topk import BoundedPriorityQueue, hamming_topk

__all__ = ["CPUHammingKnn", "CPUSearchResult"]


@dataclass
class CPUSearchResult:
    indices: np.ndarray  # (q, k)
    distances: np.ndarray  # (q, k)
    elapsed_s: float
    candidates_scanned: int


class CPUHammingKnn:
    """Exact linear-scan kNN over binary codes."""

    def __init__(self, dataset_bits: np.ndarray):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.n, self.d = dataset_bits.shape
        self._packed = pack_bits(dataset_bits)

    def search(self, queries_bits: np.ndarray, k: int) -> CPUSearchResult:
        """Batched XOR/POPCOUNT scan plus exact top-k select."""
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(
                f"queries have d={queries_bits.shape[1]}, dataset d={self.d}"
            )
        qp = pack_bits(queries_bits)
        t0 = time.perf_counter()
        indices, distances = hamming_topk(qp, self._packed, k, self.d)
        elapsed = time.perf_counter() - t0
        return CPUSearchResult(indices, distances, elapsed, qp.shape[0] * self.n)

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

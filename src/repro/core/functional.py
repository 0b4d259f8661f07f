"""Fast functional model of the kNN automata (no cycle simulation).

The temporal-sort design is deterministic: a vector with inverted
Hamming distance ``m`` reports at block-local offset
``2d + L + 2 - m`` (:mod:`repro.core.stream`).  This module computes
exactly the report records the cycle-accurate simulator would produce,
using vectorized packed-XOR/POPCOUNT distances — turning an
``O(cycles × states)`` simulation into ``O(q n d / 64)`` word ops.

Tests cross-validate this path against
:mod:`repro.automata.simulator` on randomized instances; the engine
uses it for datasets too large to cycle-simulate (the paper's 2^20
points), exactly as the paper itself uses the AP SDK's functional
simulation for run-time estimates (Section IV-B).

Two query entry points with different complexity/memory envelopes:

* :meth:`FunctionalKnnBoard.query_reports` reproduces the *full*
  report stream (one record per dataset vector per query) — ``O(q n)``
  records, ``O(q n log n)`` sort work.  The simulator cross-validation
  tests need every record, so this path stays.
* :meth:`FunctionalKnnBoard.query_topk` returns only the ``k``
  *earliest* reports per query — what the engine's decoder actually
  keeps — via ``np.argpartition`` on a combined ``(cycle, code)`` key:
  ``O(q n)`` selection plus an ``O(q k log k)`` bounded tie-break
  sort, and ``~n/k`` less report traffic into the decoder.

``query_topk`` processes queries in tiles (:func:`~repro.util.bitops.
default_cdist_tile`), so its peak memory is one tile's ``(tile_q, n)``
distance/key arrays plus the cdist kernel's own bounded intermediate —
never a ``q``-proportional blow-up at the paper's ``n = 2**20`` scale.
``query_reports`` necessarily materializes full ``(q, n)`` report
arrays (its output *is* every record), so only its cdist intermediate
is tiled; size query batches accordingly when cross-validating.
"""

from __future__ import annotations

import numpy as np

from ..util.bitops import default_cdist_tile, hamming_cdist_packed, pack_bits
from .stream import StreamLayout

__all__ = ["FunctionalKnnBoard"]


class FunctionalKnnBoard:
    """Drop-in report generator for one board partition of the dataset."""

    def __init__(
        self,
        dataset_bits: np.ndarray,
        layout: StreamLayout,
        report_code_base: int = 0,
    ):
        dataset_bits = np.asarray(dataset_bits, dtype=np.uint8)
        if dataset_bits.ndim != 2:
            raise ValueError("dataset must be (n, d)")
        if dataset_bits.shape[1] != layout.d:
            raise ValueError(
                f"dataset d={dataset_bits.shape[1]} != layout d={layout.d}"
            )
        self.layout = layout
        self.n = dataset_bits.shape[0]
        self.report_code_base = int(report_code_base)
        self._packed = pack_bits(dataset_bits)

    def query_reports(
        self, queries_bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Report records for a batch of queries.

        Returns ``(query_idx, codes, cycles)`` — flat arrays, one entry
        per report, ordered by (query, cycle, code): the order a host
        consuming the AP's report stream would observe (simultaneous
        activations resolved by state ID).  Cycles are global stream
        offsets assuming queries are streamed back to back.
        """
        queries_bits = np.asarray(queries_bits, dtype=np.uint8)
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        qp = pack_bits(queries_bits)
        dist = hamming_cdist_packed(qp, self._packed)  # (q, n)
        m = self.layout.d - dist  # inverted Hamming distance
        base_offset = 2 * self.layout.d + self.layout.collector_depth + 2
        local = base_offset - m  # (q, n) block-local report cycles

        n_q = queries_bits.shape[0]
        codes = np.arange(self.n, dtype=np.int64) + self.report_code_base
        # Sort each query's reports by (cycle, code); codes are already
        # ascending per row, so a stable argsort on cycle suffices.
        order = np.argsort(local, axis=1, kind="stable")
        cycles_sorted = np.take_along_axis(local, order, axis=1)
        codes_sorted = codes[order]

        query_idx = np.repeat(np.arange(n_q, dtype=np.int64), self.n)
        global_cycles = (
            cycles_sorted + np.arange(n_q, dtype=np.int64)[:, None] * self.layout.block_length
        )
        return query_idx, codes_sorted.ravel(), global_cycles.ravel()

    def query_topk(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` earliest report records per query, ``(q, k_eff)`` arrays.

        Returns ``(codes, cycles)`` where row ``qi`` holds that query's
        ``k_eff = min(k, n)`` earliest reports in (cycle, code) order —
        exactly the first ``k_eff`` records :meth:`query_reports` would
        yield for the query, because the temporal sort makes "earliest
        reports" and "nearest neighbors" the same set.  Selection packs
        each report's ``(cycle, code)`` pair into one unique int64 key
        (``cycle * n + code``; codes are distinct, so keys are too),
        ``np.argpartition``\\ s the ``k_eff`` smallest keys per row in
        ``O(n)``, and sorts only those — never a full ``O(n log n)``
        argsort, and the tie-break at the ``k``-th distance is exact
        rather than argpartition's arbitrary boundary subset.

        Peak memory is one query tile's ``(tile_q, n)`` int64 distance
        and key arrays (plus the cdist kernel's bounded intermediate);
        tiles are sized by :func:`~repro.util.bitops.default_cdist_tile`.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        queries_bits = np.asarray(queries_bits, dtype=np.uint8)
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        qp = pack_bits(queries_bits)
        n_q = queries_bits.shape[0]
        n = self.n
        k_eff = min(int(k), n)
        base_offset = 2 * self.layout.d + self.layout.collector_depth + 2

        codes_out = np.empty((n_q, k_eff), dtype=np.int64)
        cycles_out = np.empty((n_q, k_eff), dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        tile = default_cdist_tile(n, self._packed.shape[1])
        for lo in range(0, n_q, tile):
            hi = min(lo + tile, n_q)
            dist = hamming_cdist_packed(qp[lo:hi], self._packed, tile_q=tile)
            # block-local report cycle of each vector; see query_reports
            local = (base_offset - self.layout.d) + dist
            keys = local * n + idx  # unique (cycle, code) sort keys
            if k_eff < n:
                part = np.argpartition(keys, k_eff - 1, axis=1)[:, :k_eff]
                keys = np.take_along_axis(keys, part, axis=1)
            keys = np.sort(keys, axis=1)
            codes_out[lo:hi] = keys % n
            cycles_out[lo:hi] = keys // n
        cycles_out += np.arange(n_q, dtype=np.int64)[:, None] * self.layout.block_length
        codes_out += self.report_code_base
        return codes_out, cycles_out

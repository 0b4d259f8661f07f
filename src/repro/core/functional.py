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

A board holds its partition bit-packed (``n * ceil(d/64)`` uint64 words,
row-major, packed once at construction) and answers through one kernel,
:func:`~repro.util.bitops.popcount_cdist`, whose ``(q, n)`` distances
are ``uint8``/``uint16``/``uint32``.  Rows and queries reach
:func:`~repro.util.bitops.pack_bits` in their arrival dtype, so a value
other than 0/1 raises ``ValueError`` instead of wrapping to a bit.
Three query entry points:

* :meth:`FunctionalKnnBoard.query_reports` reproduces the *full*
  report stream (one record per dataset vector per query) — ``O(q n)``
  records, a stable (radix) argsort of the narrow distances.  The
  simulator cross-validation tests need every record, so this path
  stays; it necessarily materializes ``(q, n)`` int64 report arrays.
* :meth:`FunctionalKnnBoard.topk_block` returns only the ``k``
  *nearest* per query through :func:`~repro.util.topk.hamming_topk`,
  the library's one exact Hamming top-k — ``O(q n)`` selection on
  4-byte ``distance * n + index`` keys plus an ``O(q k log k)`` sort of
  the kept ones, in query tiles, so peak memory is one tile's
  ``(tile_q, n)`` kernel transients plus its keys — never a
  ``q``-proportional blow-up at the paper's ``n = 2**20`` scale.
* :meth:`FunctionalKnnBoard.query_topk` is ``topk_block`` spelled as
  report records: the ``k`` earliest ``(code, cycle)`` per query.
"""

from __future__ import annotations

import numpy as np

from ..util.bitops import pack_bits, popcount_cdist
from ..util.topk import hamming_topk
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
        # Arrival dtype: pack_bits validates 0/1 first, then narrows.
        dataset_bits = np.asarray(dataset_bits)
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

    @classmethod
    def from_packed(
        cls, packed: np.ndarray, layout: StreamLayout, report_code_base: int = 0
    ) -> "FunctionalKnnBoard":
        """A board over row words another board already validated and
        packed (:attr:`packed`) — nothing is re-checked or copied."""
        board = cls.__new__(cls)
        board.layout = layout
        board.n = packed.shape[0]
        board.report_code_base = int(report_code_base)
        board._packed = packed
        return board

    @property
    def packed(self) -> np.ndarray:
        """The partition's ``(n, ceil(d/64))`` uint64 row words."""
        return self._packed

    def _cycles(self, dist: np.ndarray) -> np.ndarray:
        """Global report cycles of ``(q, ·)`` distances, queries
        streamed back to back: a vector at distance ``h`` reports at
        block-local offset ``d + L + 2 + h``."""
        first = self.layout.d + self.layout.collector_depth + 2
        blocks = np.arange(dist.shape[0], dtype=np.int64)[:, None]
        return dist + (first + blocks * self.layout.block_length)

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
        dist = popcount_cdist(pack_bits(queries_bits), self._packed)
        # Sort each query's reports by (cycle, code); codes are already
        # ascending per row, so a stable argsort on distance suffices.
        order = np.argsort(dist, axis=1, kind="stable")
        cycles = self._cycles(np.take_along_axis(dist, order, axis=1))
        query_idx = np.repeat(np.arange(dist.shape[0], dtype=np.int64), self.n)
        return query_idx, (order + self.report_code_base).ravel(), cycles.ravel()

    def topk_block(
        self, queries_bits: np.ndarray, k: int, prior=None, base: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest vectors per query: ``(indices, distances)``,
        ``(q, k_eff)`` int64, ``k_eff = min(k, n)``, rows ordered by
        (distance, partition-local index) — the library-wide tie-break.

        The one exact Hamming top-k,
        :func:`~repro.util.topk.hamming_topk`, over the board's words —
        rows ``[base, base + n)`` of a scan whose block over the rows
        before them is ``prior``, when one is carried.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        return hamming_topk(
            pack_bits(queries_bits), self._packed, k, self.layout.d,
            prior=prior, base=base,
        )

    def query_topk(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` earliest report records per query, ``(q, k_eff)`` arrays.

        Returns ``(codes, cycles)`` where row ``qi`` holds that query's
        ``k_eff = min(k, n)`` earliest reports in (cycle, code) order —
        exactly the first ``k_eff`` records :meth:`query_reports` would
        yield for the query, because the temporal sort makes "earliest
        reports" and "nearest neighbors" the same set
        (:meth:`topk_block`, re-based to codes and global cycles).
        """
        indices, distances = self.topk_block(queries_bits, k)
        indices += self.report_code_base
        return indices, self._cycles(distances)

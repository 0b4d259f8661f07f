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
  *nearest* per query — ``O(q n)`` selection on 4-byte
  ``distance * n + index`` keys plus an ``O(q k log k)`` sort of the
  kept ones.  Queries run in tiles
  (:func:`~repro.util.bitops.default_cdist_tile`), so peak memory is
  one tile's ``(tile_q, n)`` kernel transients plus its keys — never a
  ``q``-proportional blow-up at the paper's ``n = 2**20`` scale.  Rows
  wider than one word add the kernel's ``(w, n)`` column-order copy of
  the partition (``n * w * 8`` bytes), taken once per call before the
  tile loop, never once per tile.
* :meth:`FunctionalKnnBoard.query_topk` is ``topk_block`` spelled as
  report records: the ``k`` earliest ``(code, cycle)`` per query.
"""

from __future__ import annotations

import numpy as np

from ..util.bitops import (
    _cdist_columns,
    _word_columns,
    default_cdist_tile,
    pack_bits,
    popcount_cdist,
)
from .stream import StreamLayout

__all__ = ["FunctionalKnnBoard"]

_KEY32_LIMIT = 2**32


def _key_dtype(bound: int) -> type:
    """Selection keys ``rank * n + index`` are uint32 while ``bound`` — no
    less than any value a key takes on the way — fits, uint64 beyond."""
    return np.uint32 if bound < _KEY32_LIMIT else np.uint64


def _select_smallest(keys: np.ndarray, k: int, n: int, out=(None, None)):
    """Each row's ``k`` smallest of ``(q, n)`` unique ``rank * n + index``
    keys, ascending, as ``(ranks, indices)``: an ``O(n)`` partition, a
    sort of the ``k`` kept, one divmod into ``out``.  Reorders ``keys``."""
    if k < keys.shape[1]:
        keys.partition(k - 1, axis=1)
        keys = keys[:, :k]
    keys.sort(axis=1)
    return np.divmod(keys, n, *out)


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
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest vectors per query: ``(indices, distances)``,
        ``(q, k_eff)`` int64, ``k_eff = min(k, n)``, rows ordered by
        (distance, partition-local index) — the library-wide tie-break.

        Selection packs each ``(distance, index)`` pair into one unique
        key ``distance * n + index`` (uint32 while ``(d + 1) * n`` fits,
        else uint64), partitions the ``k_eff`` smallest to the front of
        each row in ``O(n)``, sorts only those and divmods them back —
        never a full ``O(n log n)`` sort, and the tie-break at the
        ``k``-th distance is exact rather than partition's arbitrary
        boundary subset.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        qp = pack_bits(queries_bits)
        n_q, n = qp.shape[0], self.n
        k_eff = min(int(k), n)
        key_dtype = _key_dtype((self.layout.d + 1) * n)
        indices = np.empty((n_q, k_eff), dtype=np.int64)
        distances = np.empty((n_q, k_eff), dtype=np.int64)
        idx = np.arange(n, dtype=key_dtype)
        tile = default_cdist_tile(n, self._packed.shape[1])
        columns = _word_columns(qp, self._packed)  # once, not per tile
        for lo in range(0, n_q, tile):
            dist = _cdist_columns(qp[lo : lo + tile], columns, np.bitwise_xor)
            keys = np.multiply(dist, n, dtype=key_dtype)
            keys += idx
            _select_smallest(
                keys, k_eff, n, (distances[lo : lo + tile], indices[lo : lo + tile])
            )
        return indices, distances

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

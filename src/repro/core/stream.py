"""Symbol-stream encoding for the kNN automata design (paper Fig. 2c).

A query occupies one fixed-length *block* of symbols:

====================  =========================  =======================
symbol                cycle (0-indexed)          purpose
====================  =========================  =======================
``SOF``               0                          guard-state trigger
query bits            1 .. d                     Hamming phase
``PAD`` (``^EOF``)    d+1 .. 2d+L+1              temporal-sort phase
``EOF``               2d+L+2                     counter reset
====================  =========================  =======================

``L`` is the collector-tree depth of the Hamming macro (1 for all the
paper's workloads).  The block length is ``2d + L + 3`` symbols; with
``L = 1`` and the paper's 1-indexed figure convention that is the
``2d + 4``-cycle trace of Fig. 3 (d=4 → 12 symbols).

The temporal sort guarantees that the reporting state of a vector with
inverted Hamming distance ``m`` (= ``d`` − Hamming distance) fires at
block-local offset ``2d + L + 2 − m``; :func:`decode_report_offset`
inverts that relation.  Both directions are pure arithmetic, so the
engine can also *predict* report times without cycle simulation
(:mod:`repro.core.functional`), which tests cross-validate against the
cycle-accurate simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.symbols import EOF, PAD, SOF
from ..util.bitops import is_binary

__all__ = [
    "StreamLayout",
    "encode_query",
    "encode_query_batch",
    "encode_query_blocks",
    "decode_report_offset",
    "decode_report_offsets",
    "decode_partition_topk",
]


@dataclass(frozen=True)
class StreamLayout:
    """Geometry of one query block for dimensionality ``d`` and tree depth ``L``."""

    d: int
    collector_depth: int = 1

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimensionality must be >= 1")
        if self.collector_depth < 1:
            raise ValueError("collector depth must be >= 1")

    @property
    def block_length(self) -> int:
        """Symbols per query: SOF + d bits + (d + L + 1) pads + EOF."""
        return 2 * self.d + self.collector_depth + 3

    @property
    def n_pad(self) -> int:
        return self.d + self.collector_depth + 1

    @property
    def eof_offset(self) -> int:
        """Block-local 0-indexed cycle of the EOF symbol."""
        return self.block_length - 1

    @property
    def first_report_offset(self) -> int:
        """Earliest block-local cycle a report can legally occupy (m = d)."""
        return self.report_offset(self.d)

    def report_offset(self, inverted_hamming: int) -> int:
        """Block-local cycle at which a vector with this ``m`` reports."""
        if not 0 <= inverted_hamming <= self.d:
            raise ValueError(
                f"inverted Hamming distance must be in [0, {self.d}]"
            )
        return 2 * self.d + self.collector_depth + 2 - inverted_hamming

    def inverted_hamming(self, offset: int) -> int:
        """Inverse of :meth:`report_offset` (block-local offset)."""
        m = 2 * self.d + self.collector_depth + 2 - offset
        if not 0 <= m <= self.d:
            raise ValueError(f"offset {offset} outside the valid report window")
        return m


def encode_query(bits: np.ndarray, layout: StreamLayout) -> np.ndarray:
    """Encode one binary query vector as a symbol block (uint8 array)."""
    bits = np.asarray(bits).ravel()
    if bits.shape[0] != layout.d:
        raise ValueError(f"query has {bits.shape[0]} dims, layout expects {layout.d}")
    return encode_query_blocks(bits, layout.block_length)


def encode_query_blocks(queries: np.ndarray, block_length: int) -> np.ndarray:
    """Concatenate 0/1 queries as back-to-back blocks of ``block_length``
    symbols: ``SOF``, the query bits, ``PAD`` up to the ``EOF`` that
    closes the block.  The kNN block is :attr:`StreamLayout.block_length`
    long; a design without a sort phase (range search's threshold
    macros) streams a shorter one."""
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries[None, :]
    if not is_binary(queries):
        raise ValueError("query bits must be 0/1")
    out = np.full((queries.shape[0], block_length), PAD, dtype=np.uint8)
    out[:, 0], out[:, -1] = SOF, EOF
    out[:, 1 : 1 + queries.shape[1]] = queries
    return out.ravel()


def encode_query_batch(queries: np.ndarray, layout: StreamLayout) -> np.ndarray:
    """Concatenate query blocks; queries processed back-to-back (Fig. 3).

    The EOF of block ``i`` resets every counter while the SOF of block
    ``i + 1`` streams in, so no inter-query gap symbols are needed.
    """
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != layout.d:
        raise ValueError(
            f"queries have {queries.shape[1]} dims, layout expects {layout.d}"
        )
    return encode_query_blocks(queries, layout.block_length)


def decode_report_offset(
    cycle: int, layout: StreamLayout
) -> tuple[int, int, int]:
    """Map a global report cycle to ``(query_index, inverted_hamming, distance)``.

    The report window of a block spans local offsets
    ``[layout.first_report_offset, layout.eof_offset]`` (inverted
    Hamming distances ``d`` down to ``0``); cycles outside it are not
    reports the temporal-sort design can produce.  A negative cycle
    would otherwise floor-divide to a negative query index and corrupt
    the merge silently; a cycle in the SOF/Hamming/early-padding region
    would be rejected by :meth:`StreamLayout.inverted_hamming`, but
    only with a bare offset — the explicit check here names the block,
    the offending local offset, and the valid window so a corrupted
    report stream (or a mismatched layout) is diagnosable.
    """
    cycle = int(cycle)
    if cycle < 0:
        raise ValueError(f"report cycle must be non-negative, got {cycle}")
    block = cycle // layout.block_length
    local = cycle % layout.block_length
    lo = layout.first_report_offset
    # local <= eof_offset always holds (it is block_length - 1 and
    # local is a modulo), so only the lower bound can be violated.
    if local < lo:
        raise ValueError(
            f"report cycle {cycle} lands at block-local offset {local} of "
            f"query block {block}, outside the valid report window "
            f"[{lo}, {layout.eof_offset}] (SOF/Hamming/padding region); the "
            "report stream is corrupted or decoded with a mismatched "
            "StreamLayout"
        )
    m = layout.inverted_hamming(local)
    return block, m, layout.d - m


def decode_report_offsets(
    cycles: np.ndarray, layout: StreamLayout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`decode_report_offset` over an array of cycles.

    Returns ``(query_index, inverted_hamming, distance)`` int64 arrays
    of the input's shape.  One array op per output — no per-report
    Python runs, which is what keeps the engine's decode path
    ``O(reports)`` NumPy work instead of ``O(reports)`` interpreter
    dispatches.  Validation matches the scalar decoder: any negative
    cycle or cycle landing outside a block's report window raises, and
    the error names the first offending record.
    """
    cycles = np.asarray(cycles, dtype=np.int64)
    if cycles.size and cycles.min() < 0:
        bad = int(cycles.ravel()[np.argmin(cycles)])
        raise ValueError(f"report cycle must be non-negative, got {bad}")
    blocks = cycles // layout.block_length
    local = cycles % layout.block_length
    lo = layout.first_report_offset
    invalid = local < lo
    if invalid.any():
        flat = np.nonzero(invalid.ravel())[0][0]
        raise ValueError(
            f"report cycle {int(cycles.ravel()[flat])} lands at block-local "
            f"offset {int(local.ravel()[flat])} of query block "
            f"{int(blocks.ravel()[flat])}, outside the valid report window "
            f"[{lo}, {layout.eof_offset}] (SOF/Hamming/padding region); the "
            "report stream is corrupted or decoded with a mismatched "
            "StreamLayout"
        )
    m = (2 * layout.d + layout.collector_depth + 2) - local
    return blocks, m, layout.d - m


def decode_partition_topk(
    q_idx: np.ndarray,
    codes: np.ndarray,
    cycles: np.ndarray,
    n_q: int,
    k: int,
    layout: StreamLayout,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Keep the earliest ``k`` reports per query: they ARE the top-k.

    Reports arrive ordered by activation time; the temporal sort means
    earlier activation = smaller distance, and simultaneous activations
    are consumed in state-ID (= dataset index) order, matching the
    library-wide tie-break.  One decode serves both back-ends, so the
    candidate blocks they merge are bit-identical by construction.

    Fully vectorized: one lexsort over the report batch, a cumsum-based
    gather of each query's first ``k`` rows, and one
    :func:`decode_report_offsets` call — no per-report (or per-query)
    Python.  Returns ``(indices, distances)`` as ``(n_q, k)`` int64
    arrays padded with ``-1`` (the engine's pads) where a query produced
    fewer than ``k`` reports, or ``None`` for an empty batch.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape[0] == 0:
        return None
    q_idx = np.asarray(q_idx, dtype=np.int64)
    cycles = np.asarray(cycles, dtype=np.int64)
    order = np.lexsort((codes, cycles, q_idx))
    q_sorted = q_idx[order]
    starts = np.searchsorted(q_sorted, np.arange(n_q), side="left")
    ends = np.searchsorted(q_sorted, np.arange(n_q), side="right")
    take = np.minimum(ends - starts, k)
    total = int(take.sum())
    if total == 0:
        return None
    # Flat positions of each query's first `take[qi]` sorted rows:
    # a per-query arange built from one cumsum, no Python loop.
    col = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(take) - take, take
    )
    sel = order[np.repeat(starts, take) + col]
    rows = np.repeat(np.arange(n_q, dtype=np.int64), take)
    _, _, dists = decode_report_offsets(cycles[sel], layout)
    idx_block = np.full((n_q, k), -1, dtype=np.int64)
    dist_block = np.full((n_q, k), -1, dtype=np.int64)
    idx_block[rows, col] = codes[sel]
    dist_block[rows, col] = dists
    return idx_block, dist_block

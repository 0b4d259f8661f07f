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
    "decode_report_offset",
    "decode_report_offsets",
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
    if not is_binary(bits):
        raise ValueError("query bits must be 0/1")
    block = np.empty(layout.block_length, dtype=np.uint8)
    block[0] = SOF
    block[1 : 1 + layout.d] = bits
    block[1 + layout.d : -1] = PAD
    block[-1] = EOF
    return block


def encode_query_batch(queries: np.ndarray, layout: StreamLayout) -> np.ndarray:
    """Concatenate query blocks; queries processed back-to-back (Fig. 3).

    The EOF of block ``i`` resets every counter while the SOF of block
    ``i + 1`` streams in, so no inter-query gap symbols are needed.
    """
    queries = np.asarray(queries)
    if queries.ndim == 1:
        queries = queries[None, :]
    q, d = queries.shape
    if d != layout.d:
        raise ValueError(f"queries have {d} dims, layout expects {layout.d}")
    out = np.empty(q * layout.block_length, dtype=np.uint8)
    for i in range(q):
        out[i * layout.block_length : (i + 1) * layout.block_length] = encode_query(
            queries[i], layout
        )
    return out


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

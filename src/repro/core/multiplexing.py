"""Symbol-stream multiplexing (Section VI-B, Fig. 6).

The base design spends a whole 8-bit symbol on one query bit.  Stream
multiplexing packs up to seven parallel queries into the unused bits:
query ``s`` occupies bit-slice ``s`` of each data symbol, and each
dataset vector gets one replica per slice of the kNN vector macro
(:func:`~repro.core.macros.build_vector_macro`) whose match sets
(``symbols``) are TCAM-style *ternary* symbol sets (``0b*******1``
etc.).  Bit 7 stays reserved so the SOF/EOF/PAD control symbols
(all ≥ 0x80) can never alias a data symbol — this is why the gain is 7x, not 8x ("We cannot
achieve an 8x improvement because of special symbols like the SOF and
EOF").

The paper deems this infeasible on Gen 1 — 7x the STE footprint on a
board already 41-91 % full, and 7x the report traffic against a 63 Gbps
PCIe budget — and :func:`multiplexing_feasibility` reproduces that
arithmetic; the NFA construction itself is functional and verified by
the test suite against seven independent base-design runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, PAD, SOF, SymbolSet
from .macros import MacroConfig, build_vector_macro, collector_tree_depth
from .stream import StreamLayout

__all__ = [
    "MAX_SLICES",
    "slice_symbol_set",
    "encode_multiplexed_batch",
    "build_multiplexed_network",
    "report_bandwidth_gbps",
    "multiplexing_feasibility",
    "MultiplexFeasibility",
]

MAX_SLICES = 7  # bit 7 is reserved for control symbols


def slice_symbol_set(bit_slice: int, value: int) -> SymbolSet:
    """Ternary match: data symbol whose bit ``bit_slice`` equals ``value``.

    Bit 7 is pinned to 0 so control symbols never match; the remaining
    positions are don't-cares — exactly the exhaustive extended-ASCII
    enumeration the paper describes for TCAM-style ternary matching.
    """
    if not 0 <= bit_slice < MAX_SLICES:
        raise ValueError(f"bit_slice must be in [0, {MAX_SLICES})")
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    pattern = ["*"] * 8
    pattern[7 - bit_slice] = str(value)
    pattern[0] = "0"  # bit 7 (MSB) clear: data symbols only
    return SymbolSet.ternary("0b" + "".join(pattern))


def encode_multiplexed_batch(
    query_group: np.ndarray, layout: StreamLayout
) -> np.ndarray:
    """Encode up to 7 queries into one symbol block per query *group*.

    ``query_group`` is ``(s, d)`` with ``s <= 7``; data symbol ``i`` is
    ``sum(q[s][i] << s)``.
    """
    query_group = np.asarray(query_group, dtype=np.uint8)
    if query_group.ndim == 1:
        query_group = query_group[None, :]
    s, d = query_group.shape
    if s > MAX_SLICES:
        raise ValueError(f"at most {MAX_SLICES} queries per multiplexed block")
    if d != layout.d:
        raise ValueError(f"queries have d={d}, layout expects {layout.d}")
    weights = (1 << np.arange(s, dtype=np.uint16))[:, None]
    data_symbols = (query_group.astype(np.uint16) * weights).sum(axis=0)
    block = np.empty(layout.block_length, dtype=np.uint8)
    block[0] = SOF
    block[1 : 1 + d] = data_symbols.astype(np.uint8)
    block[1 + d : -1] = PAD
    block[-1] = EOF
    return block


def build_multiplexed_network(
    dataset: np.ndarray,
    n_slices: int,
    config: MacroConfig = MacroConfig(),
    name: str = "knn-muxed",
) -> tuple[AutomataNetwork, StreamLayout]:
    """Replicate each vector macro across ``n_slices`` bit slices.

    Report code of (vector ``v``, slice ``s``) is ``s * n + v``; the
    host maps it back with ``divmod(code, n)``.
    """
    dataset = np.asarray(dataset)
    n, d = dataset.shape
    if not 1 <= n_slices <= MAX_SLICES:
        raise ValueError(f"n_slices must be in [1, {MAX_SLICES}]")
    network = AutomataNetwork(name)
    for s in range(n_slices):
        for v in range(n):
            build_vector_macro(
                network, dataset[v], s * n + v, f"s{s}v{v}_", config,
                symbols=[slice_symbol_set(s, int(bit)) for bit in dataset[v]],
            )
    layout = StreamLayout(d, collector_tree_depth(d, config.max_fan_in))
    return network, layout


def report_bandwidth_gbps(
    n: int, d: int, clock_hz: float = 133e6, id_bits: int = 32
) -> float:
    """Sustained report bandwidth of the base design (Section VI-C).

    ``32 (n + d)`` bits per query every ``2d`` cycles: a sparse-vector
    activation encoding plus 32-bit time-step offsets.  Reproduces the
    paper's 36.2 Gbps for kNN-WordEmbed (n = 1024, d = 64).
    """
    bits_per_query = id_bits * (n + d)
    seconds_per_query = 2 * d / clock_hz
    return bits_per_query / seconds_per_query / 1e9


@dataclass(frozen=True)
class MultiplexFeasibility:
    """Resource/bandwidth verdict for an ``s``-way multiplexed design."""

    n_slices: int
    utilization: float  # board fraction after s-fold replication
    report_bandwidth_gbps: float
    pcie_budget_gbps: float

    @property
    def fits_board(self) -> bool:
        return self.utilization <= 1.0

    @property
    def fits_pcie(self) -> bool:
        return self.report_bandwidth_gbps <= self.pcie_budget_gbps

    @property
    def feasible(self) -> bool:
        return self.fits_board and self.fits_pcie


def multiplexing_feasibility(
    base_utilization: float,
    n: int,
    d: int,
    n_slices: int = MAX_SLICES,
    pcie_budget_gbps: float = 63.0,
    clock_hz: float = 133e6,
) -> MultiplexFeasibility:
    """The paper's Gen 1 feasibility arithmetic (Section VI-B).

    Replicating a 41-91 %-utilized board 7x overflows it, and 7x the
    report stream exceeds 200 Gbps against a 63 Gbps PCIe Gen 3 x8
    budget.
    """
    return MultiplexFeasibility(
        n_slices=n_slices,
        utilization=base_utilization * n_slices,
        report_bandwidth_gbps=report_bandwidth_gbps(n, d, clock_hz) * n_slices,
        pcie_budget_gbps=pcie_budget_gbps,
    )

"""Vector packing (Section VI-A, Fig. 5).

Hamming macros for different vectors share their unconditional
skeleton.  Vector packing overlays ``p`` macros onto one *vector
ladder*: per dimension, a bit-0 state and a bit-1 state, each driven by
both states of the previous rung — so exactly one rung state activates
per query dimension, tracking the query unconditionally.  Each packed
vector then only needs its own collector tree (tapping the rung states
that equal its bits), counter, and sorting/report tail.

The paper finds packing *theoretically* attractive (Table VIII credits
2.93-3.31x for groups of 4) but practically unroutable on Gen 1
tooling: the ladder rungs have high fan-out (2 for the ladder itself
plus one collector edge per packed vector whose bit matches), which is
exactly what the compiler's routing model penalizes.  This module
provides both:

* :func:`build_packed_network` — a functional packed NFA, verified
  against the unpacked design by the test suite (identical reports);
* :func:`packing_savings` — the paper's analytical model (1 NFA state
  ≈ 1 STE) for the resource savings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.elements import STE, Counter, CounterMode, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, SOF, SymbolSet
from ..util.bitops import is_binary
from .macros import MacroConfig, collector_tree_depth, macro_ste_cost

__all__ = ["PackedGroupHandles", "build_packed_group", "build_packed_network",
           "packing_savings", "packed_group_ste_cost"]

_WILD = SymbolSet.wildcard()
_SOF_SET = SymbolSet.single(SOF)
_EOF_SET = SymbolSet.single(EOF)
_NOT_EOF = SymbolSet.negated_single(EOF)


@dataclass
class PackedGroupHandles:
    """Element names of one packed group (ladder + per-vector tails)."""

    guard: str
    ladder: list[tuple[str, str]]  # per dimension: (bit0 state, bit1 state)
    counters: list[str]
    report_states: list[str]
    sort_state: str
    collector_depth: int


def build_packed_group(
    network: AutomataNetwork,
    vectors: np.ndarray,
    report_codes: list[int],
    prefix: str,
    config: MacroConfig = MacroConfig(max_fan_in=8),
) -> PackedGroupHandles:
    """Overlay ``vectors`` (p, d) onto one shared vector ladder."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError("vectors must be (p, d)")
    p, d = vectors.shape
    if len(report_codes) != p:
        raise ValueError("need one report code per packed vector")
    if not is_binary(vectors):
        raise ValueError("vectors must be binary")

    guard = network.add_ste(STE(f"{prefix}guard", _SOF_SET, start=StartMode.ALL_INPUT))

    # Vector ladder: one (bit0, bit1) rung per dimension; both rung
    # states of dimension i are driven by both states of dimension i-1
    # (and by the guard for i = 0), so the ladder advances on any query.
    ladder: list[tuple[str, str]] = []
    prev: tuple[str, ...] = (guard,)
    for i in range(d):
        s0 = network.add_ste(STE(f"{prefix}L{i}b0", SymbolSet.single(0)))
        s1 = network.add_ste(STE(f"{prefix}L{i}b1", SymbolSet.single(1)))
        for up in prev:
            network.connect(up, s0)
            network.connect(up, s1)
        ladder.append((s0, s1))
        prev = (s0, s1)

    depth = collector_tree_depth(d, config.max_fan_in)
    counters: list[str] = []
    reports: list[str] = []

    # Shared sort skeleton: tail stars sized to the collector depth so
    # every packed vector's sort phase starts on the same cycle as in
    # the unpacked design (identical report offsets).
    upstream: str = ladder[-1][0]
    extra: str = ladder[-1][1]
    tail_prev = [upstream, extra]
    tails = []
    for j in range(depth):
        tail = network.add_ste(STE(f"{prefix}tail{j}", _WILD))
        for up in tail_prev:
            network.connect(up, tail)
        tails.append(tail)
        tail_prev = [tail]
    sort_state = network.add_ste(STE(f"{prefix}sort", _NOT_EOF))
    network.connect(tails[-1] if tails else guard, sort_state)
    network.connect(sort_state, sort_state)
    eof_state = network.add_ste(STE(f"{prefix}eof", _EOF_SET))
    network.connect(sort_state, eof_state)

    for v in range(p):
        # Per-vector collector tree over the rung states matching v's bits.
        frontier = [ladder[i][int(vectors[v, i])] for i in range(d)]
        for level in range(depth):
            width = (len(frontier) + config.max_fan_in - 1) // config.max_fan_in
            nodes = []
            for j in range(width):
                node = network.add_ste(STE(f"{prefix}v{v}c{level}_{j}", _WILD))
                for src in frontier[j * config.max_fan_in : (j + 1) * config.max_fan_in]:
                    network.connect(src, node)
                nodes.append(node)
            frontier = nodes
        counter = network.add_counter(
            Counter(
                f"{prefix}v{v}ctr",
                threshold=d,
                mode=CounterMode.PULSE,
                max_increment=config.counter_max_increment,
            )
        )
        for node in frontier:
            network.connect(node, counter, "count")
        network.connect(sort_state, counter, "count")
        network.connect(eof_state, counter, "reset")
        report = network.add_ste(
            STE(
                f"{prefix}v{v}rep", _WILD, reporting=True, report_code=report_codes[v]
            )
        )
        network.connect(counter, report)
        counters.append(counter)
        reports.append(report)

    return PackedGroupHandles(
        guard=guard,
        ladder=ladder,
        counters=counters,
        report_states=reports,
        sort_state=sort_state,
        collector_depth=depth,
    )


def build_packed_network(
    dataset: np.ndarray,
    group_size: int = 4,
    config: MacroConfig = MacroConfig(max_fan_in=8),
    name: str = "knn-packed",
    report_code_base: int = 0,
) -> tuple[AutomataNetwork, list[PackedGroupHandles]]:
    """Pack the dataset into ladder groups of ``group_size`` vectors."""
    dataset = np.asarray(dataset)
    if dataset.ndim != 2:
        raise ValueError("dataset must be (n, d)")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    network = AutomataNetwork(name)
    handles = []
    for g, start in enumerate(range(0, dataset.shape[0], group_size)):
        chunk = dataset[start : start + group_size]
        codes = [report_code_base + start + j for j in range(chunk.shape[0])]
        handles.append(
            build_packed_group(network, chunk, codes, prefix=f"g{g}_", config=config)
        )
    return network, handles


def packed_group_ste_cost(d: int, p: int, max_fan_in: int = 8) -> int:
    """STE count of one packed group under the 1-state-=-1-STE model."""
    depth = collector_tree_depth(d, max_fan_in)
    n_collectors = 0
    width = d
    for _ in range(depth):
        width = (width + max_fan_in - 1) // max_fan_in
        n_collectors += width
    shared = 1 + 2 * d + depth + 2  # guard + ladder + tails + sort + eof
    per_vector = n_collectors + 1  # collector tree + report state
    return shared + p * per_vector


def packing_savings(d: int, p: int, max_fan_in: int = 8) -> float:
    """Analytical resource savings of packing ``p`` vectors (Section VI-A).

    Ratio of the unpacked design's STE cost to the packed design's,
    as in the paper's "simple analytical model where each NFA state
    incurs one STE resource cost".  For groups of 4 this lands at the
    2.9-3.3x range Table VIII credits.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    unpacked = p * macro_ste_cost(d, max_fan_in)
    return unpacked / packed_group_ste_cost(d, p, max_fan_in)

"""Hamming and sorting macros — the paper's core automata design (Fig. 2).

One *Hamming macro* per dataset vector computes the inverted Hamming
distance (number of matching dimensions) between the encoded vector and
the streamed query; the attached *sorting macro* performs the temporally
encoded sort by uniformly incrementing the distance counter until it
crosses the threshold ``d``, so closer vectors report earlier.

Structure built here, per vector ``x`` of dimensionality ``d``:

* **guard state** — ``SOF``-matching start state, protects the NFA from
  mid-stream activations;
* **star chain** — ``d`` wildcard states advancing one dimension per
  cycle regardless of match outcomes;
* **match states** — state ``i`` matches symbol value ``x[i]``; both the
  star and match state of dimension ``i`` are driven by the star state
  of dimension ``i-1`` (the guard for ``i = 0``);
* **collector tree** — a uniform-depth OR-reduction of the match states
  into the counter's count port.  Uniform depth matters: match
  activations for distinct dimensions occur on distinct cycles, and a
  depth-balanced tree preserves that, so the increment-by-one counter
  never sees two simultaneous increments and no match is ever lost;
* **tail states** — ``L`` wildcard states extending the star chain so
  the sort phase begins exactly one cycle after the last possible
  collector arrival;
* **sort state** — a self-looping ``^EOF`` state that unconditionally
  increments the counter each pad cycle (the temporal sort);
* **inverted-Hamming-distance counter** — threshold ``d``, pulse mode;
* **EOF state** — resets the counter for the next query block;
* **reporting state** — wildcard state after the counter; its report
  record ``(code, cycle)`` encodes the vector ID and, via the cycle
  offset, the distance (:mod:`repro.core.stream`).

Resource cost per vector: ``2d + L_states + 5`` STEs and one counter,
where ``L_states`` is the collector-tree node count plus tail length.

:func:`build_vector_macro` is the only builder of this macro.  The
paper's other vector automata each change one part of it: ``symbols``
(the match set per dimension, ``None`` for none — Jaccard's 1-bits,
§II-C; multiplexing's ternary bit slices, §VI-B), ``threshold``
(default ``d``; range search's ``d − r``, the Jaccard filter's ``tau``)
and ``sort`` (``False``: the threshold filter — no tail stars, and a
*hold* state that only arms the EOF reset replaces the sort state, so
it costs ``L`` fewer STEs than :func:`macro_ste_cost`).  Designs that
reuse part of it call :func:`build_collector_tree` (packing, §VI-A),
:func:`build_macro_tail` (counter increment, §VII-A) or
:func:`gate_report` (activation reduction, §VI-C; index gating, §III-D).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..automata.elements import STE, BooleanElement, BooleanOp, Counter, CounterMode, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, SOF, SymbolSet
from ..util.bitops import is_binary

__all__ = ["MacroConfig", "MacroHandles", "build_vector_macro", "build_knn_network",
           "build_collector_tree", "build_macro_tail", "gate_report",
           "collector_tree_depth", "collector_nodes", "macro_ste_cost"]

_WILD = SymbolSet.wildcard()
_SOF_SET = SymbolSet.single(SOF)
_EOF_SET = SymbolSet.single(EOF)
_NOT_EOF = SymbolSet.negated_single(EOF)


@dataclass(frozen=True)
class MacroConfig:
    """Build-time parameters for vector macros.

    ``max_fan_in`` bounds both collector-node inputs and counter count
    port drivers, modelling the routing-matrix fan-in limit that the
    paper says motivates the reduction tree (Section III-A).
    ``counter_max_increment`` > 1 models the counter-increment
    architectural extension (Section VII-A) — it is carried onto the
    counters so extension-aware designs can exploit it.
    """

    max_fan_in: int = 16
    counter_max_increment: int = 1

    def __post_init__(self) -> None:
        if self.max_fan_in < 2:
            raise ValueError("max_fan_in must be >= 2")
        if self.counter_max_increment < 1:
            raise ValueError("counter_max_increment must be >= 1")


@dataclass
class MacroHandles:
    """Element names of one built macro (for wiring optimizations/tests)."""

    guard: str
    stars: list[str]
    matches: list[str]
    collectors: list[list[str]]  # per tree level, leaf level first
    tails: list[str]
    sort_state: str  # the hold state of a ``sort=False`` macro
    counter: str
    eof_state: str
    report_state: str
    collector_depth: int


def collector_tree_depth(d: int, max_fan_in: int = 16) -> int:
    """Uniform tree depth needed to reduce ``d`` match states."""
    depth, width = 1, (d + max_fan_in - 1) // max_fan_in
    while width > max_fan_in:
        width = (width + max_fan_in - 1) // max_fan_in
        depth += 1
    return depth


def collector_nodes(d: int, max_fan_in: int = 16) -> int:
    """Node count of the collector tree over ``d`` match states."""
    n_nodes, width = 0, d
    for _ in range(collector_tree_depth(d, max_fan_in)):
        width = (width + max_fan_in - 1) // max_fan_in
        n_nodes += width
    return n_nodes


def macro_ste_cost(d: int, max_fan_in: int = 16) -> int:
    """STE count of one vector macro (used by the resource model).

    guard + d stars + d matches + collector nodes + L tails + sort +
    EOF + report.
    """
    depth = collector_tree_depth(d, max_fan_in)
    return 1 + 2 * d + collector_nodes(d, max_fan_in) + depth + 3


def build_collector_tree(
    network: AutomataNetwork,
    leaves: Sequence[str],
    depth: int,
    prefix: str,
    max_fan_in: int,
) -> list[list[str]]:
    """Uniform-depth OR-reduction of ``leaves``: one list of node names
    per level, leaf level first.  No leaves build no nodes."""
    levels: list[list[str]] = []
    frontier = list(leaves)
    for level in range(depth):
        width = (len(frontier) + max_fan_in - 1) // max_fan_in
        nodes = []
        for j in range(width):
            node = network.add_ste(STE(f"{prefix}collect{level}_{j}", _WILD))
            for src in frontier[j * max_fan_in : (j + 1) * max_fan_in]:
                network.connect(src, node)
            nodes.append(node)
        levels.append(nodes)
        frontier = nodes
    return levels


def build_macro_tail(
    network: AutomataNetwork,
    upstream: str,
    counter: str,
    report_code: int,
    prefix: str,
    sort: bool = True,
) -> tuple[str, str, str]:
    """The sort → EOF → report tail of one macro, entered from ``upstream``.

    The sort state self-loops through the pad phase and increments
    ``counter`` every cycle; with ``sort=False`` a hold state in its
    place only keeps the EOF state armed.  EOF resets the counter, and
    the counter's pulse drives the reporting state.  Returns the names
    of the sort (or hold), EOF and report states.
    """
    state = network.add_ste(STE(f"{prefix}{'sort' if sort else 'hold'}", _NOT_EOF))
    network.connect(upstream, state)
    network.connect(state, state)  # self-loop through the pad phase
    if sort:
        network.connect(state, counter, "count")
    eof_state = network.add_ste(STE(f"{prefix}eof", _EOF_SET))
    network.connect(state, eof_state)
    network.connect(eof_state, counter, "reset")
    report_state = network.add_ste(
        STE(f"{prefix}report", _WILD, reporting=True, report_code=report_code)
    )
    network.connect(counter, report_state)
    return state, eof_state, report_state


def gate_report(
    network: AutomataNetwork, report_state: str, enable: str, name: str
) -> str:
    """Move ``report_state``'s report onto a new ``AND(report_state,
    enable)`` boolean ``name``, so ``enable`` can veto it; returns
    ``name``."""
    ste = network.elements[report_state]
    gate = network.add_boolean(
        BooleanElement(name, BooleanOp.AND, reporting=True, report_code=ste.report_code)
    )
    ste.reporting = False
    ste.report_code = None
    network.connect(report_state, gate, "in")
    network.connect(enable, gate, "in")
    return gate


def build_vector_macro(
    network: AutomataNetwork,
    vector: np.ndarray,
    report_code: int,
    prefix: str,
    config: MacroConfig = MacroConfig(),
    *,
    symbols: Sequence[SymbolSet | None] | None = None,
    threshold: int | None = None,
    sort: bool = True,
) -> MacroHandles:
    """Append one Hamming + sorting macro for ``vector`` to ``network``.

    ``symbols[i]`` is dimension ``i``'s match set (``None``: no match
    state; default ``vector[i]``), ``threshold`` the counter threshold
    (default ``d``), and ``sort=False`` builds the threshold-filter
    variant — see the module docstring.
    """
    vector = np.asarray(vector).ravel()
    d = vector.shape[0]
    if d < 1:
        raise ValueError("vector must have at least one dimension")
    if not is_binary(vector):
        raise ValueError("vector bits must be 0/1")
    if symbols is None:
        symbols = [SymbolSet.single(int(bit)) for bit in vector]
    elif len(symbols) != d:
        raise ValueError(f"need one match set per dimension ({d}), got {len(symbols)}")
    if not sort and all(s is None for s in symbols):
        raise ValueError(
            f"macro {prefix!r} matches no dimension (the empty set): without "
            "a sort phase it never reaches a threshold and its counter "
            "would have no drivers"
        )

    guard = network.add_ste(
        STE(f"{prefix}guard", _SOF_SET, start=StartMode.ALL_INPUT)
    )

    stars: list[str] = []
    matches: list[str] = []
    upstream = guard
    for i, match_set in enumerate(symbols):
        star = network.add_ste(STE(f"{prefix}star{i}", _WILD))
        network.connect(upstream, star)
        if match_set is not None:
            match = network.add_ste(STE(f"{prefix}match{i}", match_set))
            network.connect(upstream, match)
            matches.append(match)
        stars.append(star)
        upstream = star

    depth = collector_tree_depth(d, config.max_fan_in)
    collectors = build_collector_tree(network, matches, depth, prefix, config.max_fan_in)

    counter = network.add_counter(
        Counter(
            f"{prefix}ctr",
            threshold=d if threshold is None else threshold,
            mode=CounterMode.PULSE,
            max_increment=config.counter_max_increment,
        )
    )
    for node in collectors[-1]:
        network.connect(node, counter, "count")

    # Tail stars so the sort state goes live exactly one cycle after the
    # last collector arrival (uniform depth => no increment collisions).
    tails: list[str] = []
    if sort:
        for j in range(depth):
            tail = network.add_ste(STE(f"{prefix}tail{j}", _WILD))
            network.connect(upstream, tail)
            tails.append(tail)
            upstream = tail

    sort_state, eof_state, report_state = build_macro_tail(
        network, upstream, counter, report_code, prefix, sort
    )
    return MacroHandles(
        guard=guard,
        stars=stars,
        matches=matches,
        collectors=collectors,
        tails=tails,
        sort_state=sort_state,
        counter=counter,
        eof_state=eof_state,
        report_state=report_state,
        collector_depth=depth,
    )


def build_knn_network(
    dataset: np.ndarray,
    config: MacroConfig = MacroConfig(),
    name: str = "knn",
    report_code_base: int = 0,
) -> tuple[AutomataNetwork, list[MacroHandles]]:
    """Build the full board network: one macro per dataset vector.

    ``report_code_base`` offsets the report codes so that partitioned
    engines can keep globally unique vector IDs across board
    configurations (Section III-C).
    """
    dataset = np.asarray(dataset)
    if dataset.ndim != 2:
        raise ValueError("dataset must be (n, d)")
    network = AutomataNetwork(name)
    handles = [
        build_vector_macro(
            network, dataset[i], report_code_base + i, prefix=f"v{i}_", config=config
        )
        for i in range(dataset.shape[0])
    ]
    return network, handles

"""Architectural extension models and constructs (Section VII).

Three mutually orthogonal extensions the paper proposes for future AP
generations, each with the analytic gain model used in Table VIII:

* **Counter increment** (VII-A): counters that accept up to 8
  simultaneous increment signals let one symbol carry 7 query
  dimensions (bit-sliced, one lane per bit with bit 7 reserved), so the
  Hamming phase shrinks from ``d`` to ``ceil(d/7)`` cycles while the
  sort phase stays ``d`` — query latency ``d + d/7`` instead of ``2d``,
  a 1.75x gain.  :func:`build_counter_increment_macro` constructs the
  functional automaton (it *requires* ``max_increment > 1``; with plain
  counters it visibly undercounts, which is the point).
* **Dynamic counter thresholds** (VII-B): a counter's threshold driven
  by another counter's live count enables ``if (A > B)`` constructs;
  :func:`build_comparison_macro` is Fig. 8.
* **STE decomposition** (VII-C): an 8-input STE used as ``x`` smaller
  LUTs packs the many low-discrimination states of the kNN design
  (wildcards need 0 input bits; 0/1 match states need 2 over the
  restricted alphabet) into fewer physical STEs — Table VII.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.elements import STE, Counter, CounterMode, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, SOF, SymbolSet
from ..core.macros import build_macro_tail, macro_ste_cost
from ..core.multiplexing import slice_symbol_set

__all__ = [
    "counter_increment_speedup",
    "build_counter_increment_macro",
    "dimension_packed_stream",
    "build_comparison_macro",
    "bits_required",
    "ste_decomposition_savings",
    "ste_decomposition_table",
    "CompoundedGains",
    "compounded_gains",
]

_WILD = SymbolSet.wildcard()


# ---------------------------------------------------------------------------
# VII-A: counter increment extension
# ---------------------------------------------------------------------------

def counter_increment_speedup(dims_per_symbol: int = 7) -> float:
    """Query-latency gain: ``2d / (d + d/m)`` (Section VII-A's 1.75x)."""
    if dims_per_symbol < 1:
        raise ValueError("dims_per_symbol must be >= 1")
    return 2.0 / (1.0 + 1.0 / dims_per_symbol)


def dimension_packed_stream(query: np.ndarray, dims_per_symbol: int = 7) -> np.ndarray:
    """Encode a query with ``m`` dimensions per symbol (bit lanes 0..m-1)."""
    query = np.asarray(query, dtype=np.uint8).ravel()
    if not 1 <= dims_per_symbol <= 7:
        raise ValueError("dims_per_symbol must be in [1, 7] (bit 7 reserved)")
    d = query.shape[0]
    n_groups = -(-d // dims_per_symbol)
    padded = np.zeros(n_groups * dims_per_symbol, dtype=np.uint16)
    padded[:d] = query
    groups = padded.reshape(n_groups, dims_per_symbol)
    weights = 1 << np.arange(dims_per_symbol, dtype=np.uint16)
    symbols = (groups * weights).sum(axis=1).astype(np.uint8)
    # Sort phase: d pad cycles + slack, then EOF (mirrors the base layout).
    pad_len = d + 2
    return np.concatenate(
        [
            np.array([SOF], dtype=np.uint8),
            symbols,
            np.full(pad_len, 0xFD, dtype=np.uint8),
            np.array([EOF], dtype=np.uint8),
        ]
    )


def build_counter_increment_macro(
    network: AutomataNetwork,
    vector: np.ndarray,
    report_code: int,
    prefix: str,
    dims_per_symbol: int = 7,
    extension_enabled: bool = True,
) -> dict:
    """Vector macro that evaluates ``m`` dimensions per symbol.

    Dimension ``j`` of symbol group ``g`` is matched by a ternary STE on
    bit lane ``j``; all lanes of a group drive the counter's count port
    *simultaneously*, which only counts correctly when the counter has
    the increment extension (``extension_enabled``).  With it disabled
    the counter saturates at +1 per cycle and distances are undercounted
    — the quantitative argument for the extension.
    """
    vector = np.asarray(vector, dtype=np.uint8).ravel()
    d = vector.shape[0]
    m = dims_per_symbol
    if not 1 <= m <= 7:
        raise ValueError("dims_per_symbol must be in [1, 7]")
    n_groups = -(-d // m)

    guard = network.add_ste(
        STE(f"{prefix}guard", SymbolSet.single(SOF), start=StartMode.ALL_INPUT)
    )
    counter = network.add_counter(
        Counter(
            f"{prefix}ctr",
            threshold=d,
            mode=CounterMode.PULSE,
            max_increment=8 if extension_enabled else 1,
        )
    )

    upstream = guard
    for g in range(n_groups):
        star = network.add_ste(STE(f"{prefix}star{g}", _WILD))
        network.connect(upstream, star)
        for j in range(m):
            dim = g * m + j
            if dim >= d:
                break
            match = network.add_ste(
                STE(f"{prefix}m{dim}", slice_symbol_set(j, int(vector[dim])))
            )
            network.connect(upstream, match)
            # Collector-free: the extension counts parallel activations.
            network.connect(match, counter, "count")
        upstream = star

    _, _, report = build_macro_tail(network, upstream, counter, report_code, prefix)
    return {
        "counter": counter,
        "report": report,
        "n_groups": n_groups,
        "hamming_cycles": n_groups,
    }


# ---------------------------------------------------------------------------
# VII-B: dynamic counter thresholds (Fig. 8)
# ---------------------------------------------------------------------------

def build_comparison_macro(
    network: AutomataNetwork,
    prefix: str,
    report_code: int,
    enable_a_symbol: int,
    enable_b_symbol: int,
    probe_symbol: int,
    static_cap: int = 255,
) -> dict:
    """Fig. 8's ``if (A > B)`` construct using a dynamic threshold.

    Counter A counts ``enable_a_symbol`` occurrences; counter B counts
    ``enable_b_symbol``.  With the extension, A's threshold port is
    driven by B's live count and A runs in latch mode, so A's output is
    a continuous ``count_A >= count_B`` signal.  A ``probe_symbol``
    strobes the comparison: the probe also bumps B's count by one on
    the sampling cycle, turning the latched condition into a strict
    ``count_A > count_B``, and a probe-delayed AND gate emits the
    (reporting) verdict one cycle after the probe.  Without the
    extension this construct is impossible: thresholds are fixed at
    design time (Section VII-B).
    """
    from ..automata.elements import BooleanElement, BooleanOp

    ctr_b = network.add_counter(
        Counter(f"{prefix}B", threshold=static_cap, mode=CounterMode.LATCH)
    )
    ctr_a = network.add_counter(
        Counter(
            f"{prefix}A",
            threshold=static_cap,
            mode=CounterMode.LATCH,
            threshold_source=f"{prefix}B",
        )
    )
    en_a = network.add_ste(
        STE(f"{prefix}enA", SymbolSet.single(enable_a_symbol), start=StartMode.ALL_INPUT)
    )
    en_b = network.add_ste(
        STE(f"{prefix}enB", SymbolSet.single(enable_b_symbol), start=StartMode.ALL_INPUT)
    )
    probe = network.add_ste(
        STE(f"{prefix}probe", SymbolSet.single(probe_symbol), start=StartMode.ALL_INPUT)
    )
    network.connect(en_a, ctr_a, "count")
    network.connect(en_b, ctr_b, "count")
    network.connect(probe, ctr_b, "count")  # strict >: compare against B + 1
    # Two-cycle strobe: the comparison is sampled after B's probe bump
    # has propagated into A's dynamic threshold.
    strobe0 = network.add_ste(STE(f"{prefix}strobe0", _WILD))
    strobe = network.add_ste(STE(f"{prefix}strobe1", _WILD))
    network.connect(probe, strobe0)
    network.connect(strobe0, strobe)
    verdict = network.add_boolean(
        BooleanElement(
            f"{prefix}gt", BooleanOp.AND, reporting=True, report_code=report_code
        )
    )
    network.connect(ctr_a, verdict, "in")
    network.connect(strobe, verdict, "in")
    return {"counter_a": ctr_a, "counter_b": ctr_b, "report": verdict}


# ---------------------------------------------------------------------------
# VII-C: STE decomposition (Table VII)
# ---------------------------------------------------------------------------

def bits_required(symbols: SymbolSet, alphabet: list[int]) -> int:
    """Minimal symbol bits an STE needs over a restricted alphabet.

    The paper's premise: "extended ASCII characters frequently remain
    unused", so a state only has to discriminate among the symbols that
    actually occur.  Returns the size of the smallest bit-position
    subset under which the state's accept/reject decision on
    ``alphabet`` is a well-defined function (greedy search, exact for
    the small alphabets involved).
    """
    accept = {s for s in alphabet if symbols.matches(s)}
    if not accept or accept == set(alphabet):
        return 0

    def consistent(bit_subset: tuple[int, ...]) -> bool:
        seen: dict[tuple[int, ...], bool] = {}
        for s in alphabet:
            key = tuple((s >> b) & 1 for b in bit_subset)
            val = s in accept
            if seen.setdefault(key, val) != val:
                return False
        return True

    from itertools import combinations

    for size in range(1, 9):
        for subset in combinations(range(8), size):
            if consistent(subset):
                return size
    return 8  # pragma: no cover - size 8 always succeeds


def ste_decomposition_savings(
    d: int,
    x: int,
    max_fan_in: int = 16,
    non_decomposable_per_macro: int = 2,
) -> float:
    """Table VII model: STE savings at decomposition factor ``x``.

    An 8-input STE splits into ``x`` sub-STEs of ``8 - log2(x)``
    inputs.  In the kNN macro nearly every state discriminates on at
    most 3 symbol bits over the stream alphabet (wildcards: 0; match
    states: 2; see :func:`bits_required`), so they pack ``x`` per
    physical STE; a couple of control states per macro (guard + EOF)
    stay whole.  Savings = original cost / packed cost.
    """
    if x < 1 or (x & (x - 1)):
        raise ValueError("x must be a power of two >= 1")
    if x == 1:
        return 1.0
    total = macro_ste_cost(d, max_fan_in)
    fixed = non_decomposable_per_macro
    packed = fixed + (total - fixed) / x
    return total / packed


def ste_decomposition_table(
    dims: tuple[int, ...] = (64, 128, 256),
    factors: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> dict[int, dict[int, float]]:
    """Full Table VII: savings per workload dimensionality and factor."""
    return {
        d: {x: ste_decomposition_savings(d, x) for x in factors} for d in dims
    }


# ---------------------------------------------------------------------------
# VII-D: compounded gains (Table VIII)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompoundedGains:
    """One column of Table VIII."""

    technology_scaling: float
    vector_packing: float
    ste_decomposition: float
    counter_increment: float

    @property
    def total(self) -> float:
        return (
            self.technology_scaling
            * self.vector_packing
            * self.ste_decomposition
            * self.counter_increment
        )

    @property
    def energy_improvement(self) -> float:
        """Performance gain minus the density power cost (Section VII-D)."""
        return self.total / self.technology_scaling


def compounded_gains(
    d: int,
    packing_group: int = 4,
    decomposition_factor: int = 4,
    from_nm: float = 50.0,
    to_nm: float = 28.0,
) -> CompoundedGains:
    """Compute Table VIII's compounded gain column for dimensionality ``d``.

    Defaults are the paper's assumptions: 50->28 nm scaling, packing
    groups of 4, decomposition factor 4 (8-input STEs as ~6-LUTs), and
    8-way counter increments.
    """
    from ..core.packing import packing_savings
    from ..perf.energy import lithography_scale_factor

    return CompoundedGains(
        technology_scaling=lithography_scale_factor(from_nm, to_nm),
        vector_packing=packing_savings(d, packing_group),
        ste_decomposition=ste_decomposition_savings(d, decomposition_factor),
        counter_increment=counter_increment_speedup(7),
    )

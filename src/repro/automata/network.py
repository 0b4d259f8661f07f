"""Automata network graph: the ANML-level IR of the library.

An :class:`AutomataNetwork` is a directed graph over STEs, counters and
boolean elements.  Edges carry a destination *port*:

* ``"in"`` — ordinary activation edge into an STE or boolean element;
* ``"count"`` — increment-enable port of a counter;
* ``"reset"`` — reset port of a counter;
* ``"threshold"`` — dynamic-threshold port (architectural extension,
  Section VII-B); the source must be another counter.

Networks are built by macro constructors (:mod:`repro.core.macros`),
validated structurally here, compiled to AP resources by
:mod:`repro.ap.compiler`, and executed by
:mod:`repro.automata.simulator`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from .elements import STE, BooleanElement, BooleanOp, Counter, Element, StartMode

__all__ = ["AutomataNetwork", "Edge", "NetworkStats", "ValidationError"]

_PORTS = ("in", "count", "reset", "threshold")


class ValidationError(ValueError):
    """Raised when a network violates AP structural constraints."""


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    port: str = "in"

    def __post_init__(self) -> None:
        if self.port not in _PORTS:
            raise ValueError(f"unknown port {self.port!r}; expected one of {_PORTS}")


@dataclass
class NetworkStats:
    """Element and connectivity counts used by the resource model."""

    n_stes: int
    n_counters: int
    n_booleans: int
    n_edges: int
    n_reporting: int
    n_start: int
    max_fan_in: int
    max_fan_out: int

    @property
    def n_states(self) -> int:
        return self.n_stes


class AutomataNetwork:
    """A mutable automata network (set of NFAs sharing one symbol stream)."""

    def __init__(self, name: str = "network"):
        self.name = name
        self.elements: dict[str, Element] = {}
        self.edges: list[Edge] = []
        self._out: dict[str, list[Edge]] = defaultdict(list)
        self._in: dict[str, list[Edge]] = defaultdict(list)

    # -- construction --------------------------------------------------

    def _add(self, element: Element) -> str:
        if element.name in self.elements:
            raise ValueError(f"duplicate element name {element.name!r}")
        self.elements[element.name] = element
        return element.name

    def add_ste(self, ste: STE) -> str:
        return self._add(ste)

    def add_counter(self, counter: Counter) -> str:
        return self._add(counter)

    def add_boolean(self, boolean: BooleanElement) -> str:
        return self._add(boolean)

    def connect(self, src: str, dst: str, port: str = "in") -> Edge:
        if src not in self.elements:
            raise KeyError(f"unknown source element {src!r}")
        if dst not in self.elements:
            raise KeyError(f"unknown destination element {dst!r}")
        dst_el = self.elements[dst]
        if isinstance(dst_el, Counter):
            if port == "in":
                raise ValueError(
                    f"counter {dst!r} has no 'in' port; use 'count'/'reset'/'threshold'"
                )
            if port == "threshold" and not isinstance(self.elements[src], Counter):
                raise ValueError("threshold port must be driven by another counter")
        elif port != "in":
            raise ValueError(f"{type(dst_el).__name__} {dst!r} only has an 'in' port")
        edge = Edge(src, dst, port)
        self.edges.append(edge)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def merge(self, other: "AutomataNetwork", prefix: str = "") -> dict[str, str]:
        """Copy ``other`` into this network, prefixing its element names.

        Returns the name mapping.  This is how macros compose: the kNN
        builder merges one Hamming+sorting macro per dataset vector into
        a single board-level network.
        """
        from dataclasses import replace

        mapping: dict[str, str] = {}
        for name, el in other.elements.items():
            new_name = f"{prefix}{name}" if prefix else name
            el2 = replace(el, name=new_name, annotations=dict(el.annotations))
            if isinstance(el2, Counter) and el2.threshold_source is not None:
                el2.threshold_source = (
                    f"{prefix}{el2.threshold_source}" if prefix else el2.threshold_source
                )
            self._add(el2)
            mapping[name] = new_name
        for e in other.edges:
            self.connect(mapping[e.src], mapping[e.dst], e.port)
        return mapping

    # -- queries -------------------------------------------------------

    def out_edges(self, name: str) -> list[Edge]:
        return list(self._out.get(name, []))

    def in_edges(self, name: str) -> list[Edge]:
        return list(self._in.get(name, []))

    def stes(self) -> list[STE]:
        return [e for e in self.elements.values() if isinstance(e, STE)]

    def counters(self) -> list[Counter]:
        return [e for e in self.elements.values() if isinstance(e, Counter)]

    def booleans(self) -> list[BooleanElement]:
        return [e for e in self.elements.values() if isinstance(e, BooleanElement)]

    def reporting_elements(self) -> list[Element]:
        return [e for e in self.elements.values() if getattr(e, "reporting", False)]

    def stats(self) -> NetworkStats:
        fan_in = {n: len(es) for n, es in self._in.items()}
        fan_out = {n: len(es) for n, es in self._out.items()}
        return NetworkStats(
            n_stes=len(self.stes()),
            n_counters=len(self.counters()),
            n_booleans=len(self.booleans()),
            n_edges=len(self.edges),
            n_reporting=len(self.reporting_elements()),
            n_start=sum(1 for s in self.stes() if s.start is not StartMode.NONE),
            max_fan_in=max(fan_in.values(), default=0),
            max_fan_out=max(fan_out.values(), default=0),
        )

    def connected_components(self) -> list[set[str]]:
        """Weakly connected components = independent NFAs on the stream.

        Components are listed in order of their first element in
        insertion order; the compiler's stable first-fit-decreasing
        placement depends on that order.
        """
        seen: set[str] = set()
        components: list[set[str]] = []
        for root in self.elements:
            if root not in seen:
                components.append(self.reachable_from([root], undirected=True))
                seen |= components[-1]
        return components

    def reachable_from(self, starts: Iterable[str], undirected: bool = False) -> set[str]:
        """``starts`` plus every element an edge path leads to from them
        (``undirected``: following edges against their direction too)."""
        reachable = set(starts)
        stack = list(reachable)
        while stack:
            name = stack.pop()
            for e in self._out.get(name, ()):
                if e.dst not in reachable:
                    reachable.add(e.dst)
                    stack.append(e.dst)
            if undirected:
                for e in self._in.get(name, ()):
                    if e.src not in reachable:
                        reachable.add(e.src)
                        stack.append(e.src)
        return reachable

    def topological_order(self, names: Iterable[str]) -> list[str]:
        """Order ``names`` so every edge between two of them runs forward.

        Used on the boolean elements, which evaluate combinationally
        within a cycle; raises :class:`ValidationError` if they form a
        cycle (self-loops included).
        """
        indegree = dict.fromkeys(names, 0)
        for name in indegree:
            for e in self._out.get(name, ()):
                if e.dst in indegree:
                    indegree[e.dst] += 1
        order = [name for name, deg in indegree.items() if deg == 0]
        for name in order:  # grows while iterated: Kahn's queue
            for e in self._out.get(name, ()):
                if e.dst in indegree:
                    indegree[e.dst] -= 1
                    if indegree[e.dst] == 0:
                        order.append(e.dst)
        if len(order) != len(indegree):
            raise ValidationError("boolean elements form a combinational cycle")
        return order

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check AP structural constraints; raises :class:`ValidationError`.

        Enforced rules (Section II-B/II-C):

        * report codes are unique across *distinct NFAs* (connected
          components) — one automaton may legitimately report one code
          from several accepting states (e.g. a compiled regex), but two
          independent automata sharing a code cannot be told apart by
          the host;
        * boolean elements form a combinational DAG (no boolean cycle);
        * NOT gates have exactly one input, other gates at least one;
        * counters have at least one ``count`` driver;
        * every non-start STE is reachable from some start STE — an
          unreachable STE can never activate and indicates a broken macro.
        """
        component_of: dict[str, int] = {}
        for ci, comp in enumerate(self.connected_components()):
            for name in comp:
                component_of[name] = ci
        codes: dict[int, tuple[str, object]] = {}
        for el in self.reporting_elements():
            code = el.report_code
            # Elements compiled from one logical pattern may span several
            # weak components (e.g. "ab|cd"); they carry a shared
            # "report_group" annotation that overrides component identity.
            group = el.annotations.get("report_group", component_of[el.name])
            if code in codes and codes[code][1] != group:
                raise ValidationError(
                    f"report code {code} shared by independent automata "
                    f"({codes[code][0]!r} and {el.name!r})"
                )
            codes.setdefault(code, (el.name, group))

        booleans = self.booleans()
        for b in booleans:
            n_inputs = len(self._in.get(b.name, []))
            if b.op is BooleanOp.NOT and n_inputs != 1:
                raise ValidationError(f"NOT gate {b.name!r} must have exactly 1 input")
            if n_inputs == 0:
                raise ValidationError(f"boolean {b.name!r} has no inputs")
        self.topological_order(b.name for b in booleans)

        for c in self.counters():
            drivers = [e for e in self._in.get(c.name, []) if e.port == "count"]
            if not drivers:
                raise ValidationError(f"counter {c.name!r} has no count drivers")
            if c.threshold_source is not None and c.threshold_source not in self.elements:
                raise ValidationError(
                    f"counter {c.name!r} threshold_source {c.threshold_source!r} missing"
                )

        # Reachability from start states over activation edges.
        reachable = self.reachable_from(
            s.name for s in self.stes() if s.start is not StartMode.NONE
        )
        for ste in self.stes():
            if ste.name not in reachable:
                raise ValidationError(f"STE {ste.name!r} unreachable from any start state")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"AutomataNetwork({self.name!r}, stes={s.n_stes}, "
            f"counters={s.n_counters}, booleans={s.n_booleans}, edges={s.n_edges})"
        )

"""NFA optimization passes: prefix merging and dead-state elimination.

Real AP toolchains reduce STE footprints by merging structurally
equivalent states; the paper's *vector packing* (Section VI-A) is a
hand-crafted instance of the general transform implemented here:

* :func:`merge_prefix_states` — repeatedly merge STEs that have the same
  symbol set, the same start mode, identical predecessor sets, are not
  reporting, and have no counter-port fan-in.  Two such states are
  enabled under exactly the same conditions and match exactly the same
  symbols, so their activation traces are identical cycle by cycle and
  the merge preserves behaviour (the union of their out-edges preserves
  every downstream enable).  Applied to a board of kNN Hamming macros it
  automatically discovers the shared guard, the vector ladder, and the
  shared sort skeleton — the packing structure of Fig. 5.
* :func:`remove_unreachable` — drop STEs that no start state can reach;
  they can never activate.
* :func:`optimize` — the standard pipeline, returning savings stats.

All passes leave counters and boolean elements untouched (their state is
not position-equivalent in general) and are verified behaviour-preserving
by simulation-equivalence property tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .elements import STE, StartMode
from .network import AutomataNetwork

__all__ = ["OptimizeStats", "merge_prefix_states", "remove_unreachable", "optimize"]


@dataclass
class OptimizeStats:
    """Before/after element counts for an optimization run."""

    stes_before: int
    stes_after: int
    edges_before: int
    edges_after: int
    rounds: int

    @property
    def ste_savings(self) -> float:
        if self.stes_after == 0:
            return float("inf")
        return self.stes_before / self.stes_after


def _rebuild(network: AutomataNetwork, keep: set[str],
             alias: dict[str, str]) -> AutomataNetwork:
    """Copy ``network`` keeping ``keep`` elements, remapping via ``alias``."""
    from dataclasses import replace

    def resolve(name: str) -> str:
        while name in alias:
            name = alias[name]
        return name

    out = AutomataNetwork(network.name)
    for name, el in network.elements.items():
        if name in keep:
            out._add(replace(el, annotations=dict(el.annotations)))
    seen = set()
    for e in network.edges:
        src, dst = resolve(e.src), resolve(e.dst)
        if src in out.elements and dst in out.elements:
            key = (src, dst, e.port)
            if key not in seen:
                seen.add(key)
                out.connect(src, dst, e.port)
    return out


def merge_prefix_states(network: AutomataNetwork) -> tuple[AutomataNetwork, int]:
    """One round of prefix merging; returns (new network, merges done)."""
    # Which elements drive counter ports?  Merging those would change
    # increment multiplicity, so they are excluded.
    drives_counter = set()
    for e in network.edges:
        if e.port in ("count", "reset", "threshold"):
            drives_counter.add(e.src)

    preds: dict[str, frozenset[tuple[str, str]]] = {}
    for name in network.elements:
        preds[name] = frozenset(
            (e.src, e.port) for e in network.in_edges(name)
        )

    groups: dict[tuple, list[str]] = defaultdict(list)
    for name, el in network.elements.items():
        if not isinstance(el, STE) or el.reporting or name in drives_counter:
            continue
        # self-loops make the enable condition depend on the state's own
        # previous activation; exclude them from merging.
        if any(e.src == name for e in network.in_edges(name)):
            continue
        key = (el.symbols.mask, el.start, preds[name])
        groups[key].append(name)

    alias: dict[str, str] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        canon = min(members)
        for m in members:
            if m != canon:
                alias[m] = canon
    if not alias:
        return network, 0
    keep = set(network.elements) - set(alias)
    return _rebuild(network, keep, alias), len(alias)


def remove_unreachable(network: AutomataNetwork) -> tuple[AutomataNetwork, int]:
    """Drop STEs unreachable from any start state."""
    reachable = network.reachable_from(
        s.name for s in network.stes() if s.start is not StartMode.NONE
    )
    removable = {
        name
        for name, el in network.elements.items()
        if isinstance(el, STE) and name not in reachable
    }
    if not removable:
        return network, 0
    keep = set(network.elements) - removable
    return _rebuild(network, keep, {}), len(removable)


def optimize(network: AutomataNetwork, max_rounds: int = 64) -> tuple[
    AutomataNetwork, OptimizeStats
]:
    """Run dead-state elimination + prefix merging to a fixed point."""
    before = network.stats()
    net, _ = remove_unreachable(network)
    rounds = 0
    while rounds < max_rounds:
        net, merged = merge_prefix_states(net)
        rounds += 1
        if merged == 0:
            break
    after = net.stats()
    return net, OptimizeStats(
        stes_before=before.n_stes,
        stes_after=after.n_stes,
        edges_before=before.n_edges,
        edges_after=after.n_edges,
        rounds=rounds,
    )

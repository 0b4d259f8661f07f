"""Reference NFA interpreter: slow, obvious, and independent.

A second, deliberately naive implementation of the AP execution
semantics (dict-and-set bookkeeping, no NumPy, no sparse matrices).
Its only job is to be easy to audit against the paper's Section II-B
prose and Fig. 3, so that the vectorized production simulator
(:mod:`repro.automata.simulator`) can be differentially tested against
it on randomized networks — the classic defense against "fast but
subtly wrong" kernels.

Semantics implemented (identical to the production simulator):

* STE active at cycle ``t`` iff symbol matches and (start-enabled or a
  predecessor was active at ``t-1``);
* counters sample ``count``/``reset`` drivers from cycle ``t-1``,
  increment by ``min(active drivers, max_increment)``, pulse on
  threshold crossing (or latch / roll), and honour dynamic thresholds
  read from the source counter's pre-update count;
* booleans are combinational over current-cycle inputs in topological
  order;
* reporting elements emit ``(code, cycle)`` records.
"""

from __future__ import annotations

from repro.automata.elements import BooleanOp, CounterMode, StartMode
from repro.automata.network import AutomataNetwork
from repro.automata.simulator import Report

__all__ = ["reference_run"]


def reference_run(network: AutomataNetwork, stream) -> list[Report]:
    """Interpret ``stream`` over ``network``; returns report records."""
    network.validate()
    symbols = list(stream)

    stes = {e.name: e for e in network.stes()}
    counters = {e.name: e for e in network.counters()}
    booleans = {e.name: e for e in network.booleans()}

    in_edges: dict[str, list] = {name: network.in_edges(name) for name in network.elements}
    bool_order = network.topological_order(booleans)

    active: set[str] = set()
    counts: dict[str, int] = {name: 0 for name in counters}
    reports: list[Report] = []

    for t, sym in enumerate(symbols):
        prev_active = active
        prev_counts = dict(counts)
        active = set()

        # STEs
        for name, ste in stes.items():
            if not ste.symbols.matches(int(sym)):
                continue
            enabled = ste.start is StartMode.ALL_INPUT or (
                ste.start is StartMode.START_OF_DATA and t == 0
            )
            if not enabled:
                for e in in_edges[name]:
                    if e.port == "in" and e.src in prev_active:
                        enabled = True
                        break
            if enabled:
                active.add(name)

        # Counters (drivers sampled from the previous cycle)
        for name, ctr in counters.items():
            inc = sum(
                1
                for e in in_edges[name]
                if e.port == "count" and e.src in prev_active
            )
            inc = min(inc, ctr.max_increment)
            reset = any(
                e.port == "reset" and e.src in prev_active for e in in_edges[name]
            )
            threshold = (
                prev_counts[ctr.threshold_source]
                if ctr.threshold_source is not None
                else ctr.threshold
            )
            old = counts[name]
            new = old + inc
            crossed = old < threshold <= new
            out = crossed
            if ctr.mode is CounterMode.LATCH:
                out = out or new >= threshold
            if ctr.mode is CounterMode.ROLL and crossed:
                new = 0
            if reset:
                new = 0
            counts[name] = new
            if out:
                active.add(name)

        # Booleans (combinational, topological order)
        for name in bool_order:
            gate = booleans[name]
            inputs = [e.src in active for e in in_edges[name]]
            if gate.op is BooleanOp.AND:
                value = all(inputs)
            elif gate.op is BooleanOp.OR:
                value = any(inputs)
            elif gate.op is BooleanOp.NAND:
                value = not all(inputs)
            elif gate.op is BooleanOp.NOR:
                value = not any(inputs)
            elif gate.op is BooleanOp.XOR:
                value = sum(inputs) % 2 == 1
            elif gate.op is BooleanOp.XNOR:
                value = sum(inputs) % 2 == 0
            else:
                value = not inputs[0]
            if value:
                active.add(name)

        for name in active:
            el = network.elements[name]
            if getattr(el, "reporting", False):
                reports.append(Report(int(el.report_code), t))

    reports.sort(key=lambda r: (r.cycle, r.code))
    return reports

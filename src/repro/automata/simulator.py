"""Cycle-accurate, vectorized NFA simulator for AP networks.

The simulator executes an :class:`~repro.automata.network.AutomataNetwork`
against an 8-bit symbol stream with the timing semantics of the AP
(Section II-B), reverse-engineered cycle-by-cycle from the paper's
Fig. 3 execution trace:

* An **STE** activates at cycle ``t`` iff its symbol set matches the
  input symbol at ``t`` AND it is start-enabled or some upstream element
  was active at ``t - 1``.
* A **counter** samples its ``count``/``reset`` port drivers from cycle
  ``t - 1`` and updates its internal count at cycle ``t`` (this is what
  makes the Fig. 3 count labels read 1 at ``t = 4`` for a match at
  ``t = 2``: match STE at ``t=2`` → collector at ``t=3`` → count update
  at ``t=4``).  Its output activation at cycle ``t`` is a single-cycle
  pulse when the count crosses the threshold during that update
  (``PULSE``/``ROLL``), or is held until reset (``LATCH``).  Downstream
  STEs therefore activate one cycle after the pulse, exactly as the
  paper describes ("the counter activates at time step t = 8 ... the
  reporting state ... activates the next cycle (t = 9)").
* A **boolean element** is combinational within the cycle: it reads the
  current-cycle activations of its inputs (STEs, counters, and earlier
  booleans in topological order).
* A **reporting element** active at cycle ``t`` emits a report record
  ``(report_code, t)`` — the unique ID plus the cycle-accurate offset
  that the host uses to resolve results (Section II-B).

Cycle indices are 0-based in this module; the paper's figures are
1-based (``t_figure = t + 1``).

Implementation notes (hpc): the hot loop is one sparse-matrix/vector
product per cycle over the element activation vector, with the 256-row
match table precomputed as a dense ``(256, n_ste)`` boolean array.  All
per-cycle work is NumPy/SciPy vectorized; no per-element Python loops
run inside the cycle loop except over the (few) boolean gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import BooleanElement, BooleanOp, Counter, CounterMode, StartMode
from .network import AutomataNetwork

__all__ = ["Report", "SimulationResult", "CompiledSimulator", "simulate"]


@dataclass(frozen=True)
class Report:
    """One reporting-element activation: (code, 0-based cycle offset)."""

    code: int
    cycle: int


@dataclass
class SimulationResult:
    """Outcome of streaming one symbol stream through a network."""

    reports: list[Report]
    n_cycles: int
    final_counts: dict[str, int]
    activation_trace: np.ndarray | None = None  # (n_cycles, n_elements) bool
    counter_trace: np.ndarray | None = None  # (n_cycles, n_counters) int64
    element_order: list[str] = field(default_factory=list)

    def reports_by_cycle(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for r in self.reports:
            out.setdefault(r.cycle, []).append(r.code)
        return out

    def activations_of(self, name: str) -> np.ndarray:
        """Cycle indices at which element ``name`` was active (needs trace)."""
        if self.activation_trace is None:
            raise ValueError("simulation was run without record_trace=True")
        idx = self.element_order.index(name)
        return np.nonzero(self.activation_trace[:, idx])[0]


class CompiledSimulator:
    """A network lowered to dense/sparse arrays for repeated simulation.

    Compile once, then call :meth:`run` for every symbol stream; the kNN
    engine reuses one compiled simulator across all queries of a board
    configuration, mirroring how a physical AP is configured once per
    board image (Section III-C).
    """

    def __init__(self, network: AutomataNetwork, validate: bool = True):
        # Imported here, not at module scope: only a process that builds
        # a simulator pays for scipy; functional serving never does.
        from scipy import sparse

        if validate:
            network.validate()
        self.network = network

        stes = network.stes()
        counters = network.counters()
        booleans = network.booleans()
        self.element_order: list[str] = (
            [s.name for s in stes]
            + [c.name for c in counters]
            + [b.name for b in booleans]
        )
        self._index = {name: i for i, name in enumerate(self.element_order)}
        self.n_stes = len(stes)
        self.n_counters = len(counters)
        self.n_booleans = len(booleans)
        self.n_elements = len(self.element_order)

        # Match table: match_table[symbol, i] == STE i matches symbol.
        self.match_table = np.zeros((256, self.n_stes), dtype=bool)
        for i, s in enumerate(stes):
            self.match_table[:, i] = s.symbols.as_array()

        self.start_all = np.array(
            [s.start is StartMode.ALL_INPUT for s in stes], dtype=bool
        )
        self.start_sod = np.array(
            [s.start is StartMode.START_OF_DATA for s in stes], dtype=bool
        )

        # Activation adjacency into STEs: enabled = A_in @ act_prev > 0.
        rows, cols = [], []
        for e in network.edges:
            if e.port == "in" and e.dst in self._index and self._index[e.dst] < self.n_stes:
                rows.append(self._index[e.dst])
                cols.append(self._index[e.src])
        self.A_in = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int8), (rows, cols)),
            shape=(self.n_stes, self.n_elements),
        )

        # Counter port matrices (sampled from the previous cycle).
        def _port_matrix(port: str) -> sparse.csr_matrix:
            r, c = [], []
            for e in network.edges:
                if e.port == port:
                    dst = network.elements[e.dst]
                    if isinstance(dst, Counter):
                        r.append(self._counter_pos(e.dst))
                        c.append(self._index[e.src])
            return sparse.csr_matrix(
                (np.ones(len(r), dtype=np.int64), (r, c)),
                shape=(self.n_counters, self.n_elements),
            )

        self._counters = counters
        self.count_matrix = _port_matrix("count")
        self.reset_matrix = _port_matrix("reset")
        self.thresholds = np.array([c.threshold for c in counters], dtype=np.int64)
        self.max_increments = np.array(
            [c.max_increment for c in counters], dtype=np.int64
        )
        self.latch_mode = np.array(
            [c.mode is CounterMode.LATCH for c in counters], dtype=bool
        )
        self.roll_mode = np.array(
            [c.mode is CounterMode.ROLL for c in counters], dtype=bool
        )
        # Dynamic thresholds (Section VII-B): per-counter source index or -1.
        self.threshold_source = np.full(self.n_counters, -1, dtype=np.int64)
        for i, c in enumerate(counters):
            if c.threshold_source is not None:
                src = network.elements[c.threshold_source]
                if not isinstance(src, Counter):
                    raise ValueError(
                        f"threshold_source of {c.name!r} must be a counter"
                    )
                self.threshold_source[i] = self._counter_pos(c.threshold_source)

        # Boolean evaluation plan: topological order with input indices.
        self._bool_plan: list[tuple[int, BooleanOp, np.ndarray]] = []
        for name in network.topological_order(b.name for b in booleans):
            b = network.elements[name]
            assert isinstance(b, BooleanElement)
            inputs = np.array(
                [self._index[e.src] for e in network.in_edges(name)], dtype=np.int64
            )
            self._bool_plan.append((self._index[name], b.op, inputs))

        # Reporting metadata.
        rep_idx, rep_codes = [], []
        for name, el in network.elements.items():
            if getattr(el, "reporting", False):
                rep_idx.append(self._index[name])
                rep_codes.append(int(el.report_code))
        self.reporting_idx = np.array(rep_idx, dtype=np.int64)
        self.reporting_codes = np.array(rep_codes, dtype=np.int64)

    # -- helpers -------------------------------------------------------

    def _counter_pos(self, name: str) -> int:
        """Index of a counter within the counter block (0..n_counters-1)."""
        return self._index[name] - self.n_stes

    # -- execution -----------------------------------------------------

    def run(
        self,
        stream: np.ndarray | bytes | list[int],
        record_trace: bool = False,
        initial_counts: dict[str, int] | None = None,
    ) -> SimulationResult:
        """Stream symbols through the network and collect reports."""
        stream = np.asarray(
            list(stream) if isinstance(stream, bytes) else stream, dtype=np.int64
        )
        if stream.ndim != 1:
            raise ValueError("symbol stream must be 1-D")
        if stream.size and (stream.min() < 0 or stream.max() > 255):
            raise ValueError("symbols must be 8-bit values (0..255)")
        n_cycles = stream.shape[0]

        act = np.zeros(self.n_elements, dtype=bool)
        counts = np.zeros(self.n_counters, dtype=np.int64)
        if initial_counts:
            for name, v in initial_counts.items():
                counts[self._counter_pos(name)] = int(v)

        trace = (
            np.zeros((n_cycles, self.n_elements), dtype=bool) if record_trace else None
        )
        ctr_trace = (
            np.zeros((n_cycles, self.n_counters), dtype=np.int64)
            if record_trace
            else None
        )
        # Per-cycle (codes, cycle) report batches; materialized into
        # Report objects once after the cycle loop so no per-activation
        # Python object construction runs inside it.
        report_chunks: list[tuple[np.ndarray, int]] = []
        ste_slice = slice(0, self.n_stes)
        ctr_slice = slice(self.n_stes, self.n_stes + self.n_counters)

        for t in range(n_cycles):
            sym = stream[t]
            prev = act

            # Phase 1: STE activations from previous-cycle activations.
            enabled = self.start_all.copy()
            if t == 0:
                enabled |= self.start_sod
            if prev.any():
                enabled |= self.A_in.dot(prev.astype(np.int8)) > 0
            new = np.zeros(self.n_elements, dtype=bool)
            new[ste_slice] = enabled & self.match_table[sym]

            # Phase 2: counters sample previous-cycle port drivers.
            if self.n_counters:
                prev_i8 = prev.astype(np.int64)
                inc = np.minimum(self.count_matrix.dot(prev_i8), self.max_increments)
                resets = self.reset_matrix.dot(prev_i8) > 0
                eff_thr = self.thresholds.copy()
                dyn = self.threshold_source >= 0
                if dyn.any():
                    eff_thr[dyn] = counts[self.threshold_source[dyn]]
                new_counts = counts + inc
                crossed = (counts < eff_thr) & (new_counts >= eff_thr)
                out = crossed.copy()
                if self.latch_mode.any():
                    out |= self.latch_mode & (new_counts >= eff_thr)
                if self.roll_mode.any():
                    new_counts = np.where(
                        self.roll_mode & crossed, 0, new_counts
                    )
                new_counts = np.where(resets, 0, new_counts)
                counts = new_counts
                new[ctr_slice] = out

            # Phase 3: booleans, combinational over current activations.
            for idx, op, inputs in self._bool_plan:
                vals = new[inputs]
                if op is BooleanOp.AND:
                    v = vals.all()
                elif op is BooleanOp.OR:
                    v = vals.any()
                elif op is BooleanOp.NAND:
                    v = not vals.all()
                elif op is BooleanOp.NOR:
                    v = not vals.any()
                elif op is BooleanOp.XOR:
                    v = bool(vals.sum() & 1)
                elif op is BooleanOp.XNOR:
                    v = not (vals.sum() & 1)
                else:  # NOT
                    v = not vals[0]
                new[idx] = v

            # Phase 4: reports — accumulate this cycle's fired codes as
            # one array; Report conversion happens after the loop.
            if self.reporting_idx.size:
                fired = new[self.reporting_idx]
                if fired.any():
                    report_chunks.append((self.reporting_codes[fired], t))

            act = new
            if record_trace:
                trace[t] = act
                ctr_trace[t] = counts

        reports = [
            Report(int(code), t) for codes, t in report_chunks for code in codes
        ]
        final_counts = {
            c.name: int(counts[i]) for i, c in enumerate(self._counters)
        }
        return SimulationResult(
            reports=reports,
            n_cycles=n_cycles,
            final_counts=final_counts,
            activation_trace=trace,
            counter_trace=ctr_trace,
            element_order=list(self.element_order),
        )


def simulate(
    network: AutomataNetwork,
    stream,
    record_trace: bool = False,
) -> SimulationResult:
    """One-shot convenience wrapper: compile and run a single stream."""
    return CompiledSimulator(network).run(stream, record_trace=record_trace)

"""Differential testing: vectorized simulator vs the reference interpreter.

Random networks (STEs, counters in all modes, boolean gates, random
wiring) and random streams; both implementations must produce identical
report records.  This is the deepest correctness net in the suite — it
covers interaction cases no hand-written scenario enumerates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.elements import (
    STE,
    BooleanElement,
    BooleanOp,
    Counter,
    CounterMode,
    StartMode,
)
from repro.automata.network import AutomataNetwork, ValidationError
from tests.automata.reference import reference_run
from repro.automata.simulator import CompiledSimulator
from repro.automata.symbols import SymbolSet


def random_network(rng: np.random.Generator) -> AutomataNetwork:
    """Generate a random valid network over a 4-symbol alphabet."""
    net = AutomataNetwork("fuzz")
    n_stes = int(rng.integers(2, 10))
    alphabet = [0, 1, 2, 3]
    names = []
    for i in range(n_stes):
        # random symbol subset (non-empty w.r.t. alphabet now and then)
        mask = np.zeros(256, dtype=bool)
        for s in alphabet:
            if rng.random() < 0.5:
                mask[s] = True
        if rng.random() < 0.2:
            mask[:] = True  # wildcard
        start = rng.choice(
            [StartMode.NONE, StartMode.ALL_INPUT, StartMode.START_OF_DATA],
            p=[0.5, 0.4, 0.1],
        )
        reporting = rng.random() < 0.4
        names.append(
            net.add_ste(
                STE(
                    f"s{i}",
                    SymbolSet.from_mask(mask),
                    start=start,
                    reporting=reporting,
                    report_code=i if reporting else None,
                )
            )
        )
    # random STE wiring (forward-biased plus some back edges / self loops)
    for i in range(n_stes):
        for j in range(n_stes):
            if rng.random() < 0.25:
                net.connect(names[i], names[j])

    # optional counter
    if rng.random() < 0.7:
        mode = rng.choice(list(CounterMode))
        ctr = net.add_counter(
            Counter(
                "ctr",
                threshold=int(rng.integers(1, 5)),
                mode=mode,
                max_increment=int(rng.choice([1, 1, 8])),
                reporting=True,
                report_code=100,
            )
        )
        drivers = rng.choice(names, size=min(3, n_stes), replace=False)
        for d in drivers:
            net.connect(d, ctr, "count")
        if rng.random() < 0.5:
            net.connect(names[int(rng.integers(0, n_stes))], ctr, "reset")
        if rng.random() < 0.5:
            tgt = net.add_ste(
                STE("after_ctr", SymbolSet.wildcard(), reporting=True,
                    report_code=101)
            )
            net.connect(ctr, tgt)

    # optional boolean
    if rng.random() < 0.5:
        op = rng.choice(list(BooleanOp))
        gate = net.add_boolean(
            BooleanElement("gate", op, reporting=True, report_code=200)
        )
        n_in = 1 if op is BooleanOp.NOT else int(rng.integers(1, 4))
        for src in rng.choice(names, size=min(n_in, n_stes), replace=False):
            net.connect(src, gate)
    return net


class TestDifferential:
    @given(st.integers(0, 10_000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_networks_agree(self, seed, stream_len):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        try:
            net.validate()
        except ValidationError:
            return  # generator produced an invalid network; skip
        stream = rng.integers(0, 4, size=stream_len).astype(np.uint8)
        fast = CompiledSimulator(net).run(stream)
        fast_reports = sorted((r.cycle, r.code) for r in fast.reports)
        ref_reports = [(r.cycle, r.code) for r in reference_run(net, stream)]
        assert fast_reports == ref_reports

    def test_knn_macro_agrees(self):
        from repro.core.macros import build_knn_network
        from repro.core.stream import StreamLayout, encode_query_batch

        rng = np.random.default_rng(7)
        data = rng.integers(0, 2, (5, 9), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 9), dtype=np.uint8)
        net, hs = build_knn_network(data)
        stream = encode_query_batch(
            queries, StreamLayout(9, hs[0].collector_depth)
        )
        fast = CompiledSimulator(net).run(stream)
        assert sorted((r.cycle, r.code) for r in fast.reports) == [
            (r.cycle, r.code) for r in reference_run(net, stream)
        ]

    def test_reduction_network_agrees(self):
        from repro.core.reduction import build_reduced_network
        from repro.core.stream import StreamLayout, encode_query_batch

        rng = np.random.default_rng(8)
        data = rng.integers(0, 2, (16, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (2, 8), dtype=np.uint8)
        net, _ = build_reduced_network(data, k_prime=3, group_size=8)
        stream = encode_query_batch(queries, StreamLayout(8, 1))
        fast = CompiledSimulator(net).run(stream)
        assert sorted((r.cycle, r.code) for r in fast.reports) == [
            (r.cycle, r.code) for r in reference_run(net, stream)
        ]

    def test_comparison_macro_agrees(self):
        from repro.ap.extensions import build_comparison_macro

        net = AutomataNetwork("cmp")
        build_comparison_macro(net, "c_", 9, ord("a"), ord("b"), ord("?"))
        for stream in (b"aab?xx", b"abb?xx", b"ab?xx"):
            fast = CompiledSimulator(net).run(stream)
            assert sorted((r.cycle, r.code) for r in fast.reports) == [
                (r.cycle, r.code) for r in reference_run(net, stream)
            ]

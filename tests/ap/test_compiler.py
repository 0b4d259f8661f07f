"""Tests for the AP compiler: placement, limits, utilization (E3)."""

import numpy as np
import pytest

from repro.ap.compiler import APCompiler, CompileError, RoutingModel
from repro.ap.device import GEN1, APDeviceSpec
from repro.automata.elements import STE, StartMode
from repro.automata.network import AutomataNetwork
from repro.automata.symbols import SymbolSet
from repro.core.macros import build_knn_network


def chain_network(n_states: int) -> AutomataNetwork:
    net = AutomataNetwork("chain")
    net.add_ste(STE("s0", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
    for i in range(1, n_states):
        net.add_ste(STE(f"s{i}", SymbolSet.wildcard()))
        net.connect(f"s{i-1}", f"s{i}")
    return net


class TestPlacement:
    def test_single_macro_compiles(self):
        net, _ = build_knn_network(np.zeros((1, 16), dtype=np.uint8))
        report = APCompiler().compile(net)
        assert report.fits and report.n_components == 1
        assert report.n_counters == 1 and report.n_reporting == 1

    def test_placements_follow_component_insertion_order(self):
        """placements[i] is the i-th NFA by first-inserted element, so
        equal-sized NFAs tie-break the same way on every build."""
        net = AutomataNetwork("chains")
        lengths = [5, 2, 9, 2]
        for c in range(len(lengths)):  # heads first: insertion order != chain order
            net.add_ste(STE(f"c{c}_0", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        for c, length in enumerate(lengths):
            for i in range(1, length):
                net.add_ste(STE(f"c{c}_{i}", SymbolSet.wildcard()))
                net.connect(f"c{c}_{i-1}", f"c{c}_{i}")
        report = APCompiler().compile(net)
        assert [p.n_stes for p in report.placements] == lengths

    def test_component_per_macro(self):
        net, _ = build_knn_network(np.zeros((5, 8), dtype=np.uint8))
        report = APCompiler().compile(net)
        assert report.n_components == 5

    def test_nfa_too_large_rejected(self):
        compiler = APCompiler()
        with pytest.raises(CompileError, match="cannot span AP cores"):
            compiler.compile(chain_network(24_577))

    def test_nfa_at_limit_needs_ideal_routing(self):
        from repro.ap.compiler import IDEAL_ROUTING

        compiler = APCompiler(routing=IDEAL_ROUTING)
        report = compiler.compile(chain_network(24_576))
        assert report.fits

    def test_counter_bound_blocks(self):
        # 5 counters on one tiny NFA: counter demand dominates (4/block).
        net = AutomataNetwork("ctr")
        from repro.automata.elements import Counter

        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        for i in range(5):
            net.add_counter(Counter(f"c{i}", threshold=1))
            net.connect("s", f"c{i}", "count")
        report = APCompiler().compile(net)
        assert report.placements[0].blocks >= 5 / 4

    def test_half_core_packing(self):
        """Components never straddle half cores; over-full ones spill."""
        net, _ = build_knn_network(np.zeros((40, 64), dtype=np.uint8))
        report = APCompiler().compile(net)
        cap = GEN1.blocks_per_half_core
        by_hc: dict[int, float] = {}
        for p in report.placements:
            by_hc[p.half_core] = by_hc.get(p.half_core, 0.0) + p.blocks
        assert all(v <= cap + 1e-6 for v in by_hc.values())


class TestUtilizationCalibration:
    @pytest.mark.parametrize(
        "d,n,paper_util",
        [(64, 1024, 0.417), (128, 1024, 0.909), (256, 512, 0.786)],
    )
    def test_paper_section5a(self, d, n, paper_util):
        """Experiment E3: utilization within 15 % of the apadmin reports.

        The exact numbers depend on Micron's place-and-route internals;
        our calibrated placement-efficiency model must land in range.
        """
        # Placement scales linearly per macro: measure one and multiply.
        net, _ = build_knn_network(np.zeros((1, d), dtype=np.uint8))
        report = APCompiler().compile(net)
        per_macro = report.blocks_used
        util = per_macro * n / GEN1.total_blocks
        assert util == pytest.approx(paper_util, rel=0.15), (d, util)

    def test_128kb_per_board(self):
        """Section V-A: up to 128 Kb of encoded data per configuration."""
        for d, n in [(128, 1024), (256, 512)]:
            assert d * n == 128 * 1024


class TestMaxInstances:
    def test_matches_manual_math(self):
        template, _ = build_knn_network(np.zeros((1, 32), dtype=np.uint8))
        compiler = APCompiler()
        per = compiler.compile(template).blocks_used
        expected = int(GEN1.blocks_per_half_core / per) * GEN1.half_cores
        assert compiler.max_instances(template) == expected

    def test_paper_board_capacity_order(self):
        """Capacity estimates must bracket the paper's 1024x128/512x256."""
        for d, paper_cap in [(128, 1024), (256, 512)]:
            template, _ = build_knn_network(np.zeros((1, d), dtype=np.uint8))
            cap = APCompiler().max_instances(template)
            assert 0.7 * paper_cap < cap < 1.6 * paper_cap, (d, cap)

    @pytest.mark.parametrize("d,capacity", [(64, 2368), (128, 1216), (256, 576)])
    def test_knn_template_capacity_is_pinned(self, d, capacity):
        """The engine sizes partitions (and keys caches) off these exact
        values; they must not move with the graph implementation."""
        template, _ = build_knn_network(np.zeros((1, d), dtype=np.uint8))
        compiler = APCompiler()
        report = compiler.compile(template)
        assert [p.half_core for p in report.placements] == [0]
        assert compiler.max_instances(template) == capacity

    def test_too_large_template(self):
        compiler = APCompiler(routing=RoutingModel(base_efficiency=0.001))
        with pytest.raises(CompileError):
            compiler.max_instances(chain_network(20_000))


class TestRoutingModel:
    def test_efficiency_degrades_with_fanout(self):
        rm = RoutingModel()
        assert rm.efficiency(2) == rm.base_efficiency
        assert rm.efficiency(50) < rm.base_efficiency
        assert rm.efficiency(10_000) >= rm.min_efficiency

    def test_routability_limits(self):
        rm = RoutingModel()
        assert rm.fully_routable(4, 1.5)
        assert not rm.fully_routable(9, 1.5)
        assert not rm.fully_routable(4, 3.5)


class TestCounterWidth:
    def test_oversized_threshold_rejected(self):
        from repro.automata.elements import Counter

        net = AutomataNetwork("wide")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("c", threshold=5000))
        net.connect("s", "c", "count")
        with pytest.raises(CompileError, match="counter register"):
            APCompiler().compile(net)

    def test_knn_thresholds_fit(self):
        # d = 256 (the largest workload) stays far under 12 bits
        assert GEN1.max_counter_threshold == 4095
        net, _ = build_knn_network(np.zeros((1, 256), dtype=np.uint8))
        APCompiler().compile(net)  # must not raise

    def test_narrow_device(self):
        from repro.automata.elements import Counter

        narrow = APDeviceSpec(counter_bits=4)
        net = AutomataNetwork("n")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("c", threshold=16))
        net.connect("s", "c", "count")
        with pytest.raises(CompileError):
            APCompiler(device=narrow).compile(net)

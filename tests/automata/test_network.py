"""Tests for the automata network IR: construction, merging, validation."""

import pytest

from repro.automata.elements import (
    STE,
    BooleanElement,
    BooleanOp,
    Counter,
    StartMode,
)
from repro.automata.network import AutomataNetwork, ValidationError
from repro.automata.symbols import SymbolSet


def chain(net: AutomataNetwork, *names: str) -> None:
    for a, b in zip(names, names[1:]):
        net.connect(a, b)


@pytest.fixture
def simple_net():
    net = AutomataNetwork("t")
    net.add_ste(STE("start", SymbolSet.single(1), start=StartMode.ALL_INPUT))
    net.add_ste(STE("mid", SymbolSet.wildcard()))
    net.add_ste(STE("end", SymbolSet.wildcard(), reporting=True, report_code=0))
    chain(net, "start", "mid", "end")
    return net


class TestElements:
    def test_reporting_requires_code(self):
        with pytest.raises(ValueError, match="report_code"):
            STE("x", SymbolSet.wildcard(), reporting=True)
        with pytest.raises(ValueError, match="report_code"):
            Counter("c", threshold=1, reporting=True)
        with pytest.raises(ValueError, match="report_code"):
            BooleanElement("b", BooleanOp.AND, reporting=True)

    def test_counter_invariants(self):
        with pytest.raises(ValueError):
            Counter("c", threshold=-1)
        with pytest.raises(ValueError):
            Counter("c", threshold=1, max_increment=0)


class TestConstruction:
    def test_duplicate_name_rejected(self, simple_net):
        with pytest.raises(ValueError, match="duplicate"):
            simple_net.add_ste(STE("mid", SymbolSet.wildcard()))

    def test_connect_unknown_elements(self, simple_net):
        with pytest.raises(KeyError):
            simple_net.connect("nope", "mid")
        with pytest.raises(KeyError):
            simple_net.connect("mid", "nope")

    def test_counter_port_rules(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("c", threshold=2))
        with pytest.raises(ValueError, match="no 'in' port"):
            net.connect("s", "c", "in")
        net.connect("s", "c", "count")
        net.connect("s", "c", "reset")
        with pytest.raises(ValueError, match="driven by another counter"):
            net.connect("s", "c", "threshold")

    def test_ste_only_has_in_port(self, simple_net):
        with pytest.raises(ValueError, match="only has an 'in' port"):
            simple_net.connect("start", "mid", "count")

    def test_unknown_port_name(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("c", threshold=1))
        with pytest.raises(ValueError, match="unknown port"):
            net.connect("s", "c", "sideways")


class TestQueries:
    def test_stats(self, simple_net):
        s = simple_net.stats()
        assert s.n_stes == 3 and s.n_edges == 2
        assert s.n_reporting == 1 and s.n_start == 1
        assert s.max_fan_in == 1 and s.max_fan_out == 1

    def test_connected_components(self):
        net = AutomataNetwork("t")
        for i in range(4):
            net.add_ste(STE(f"s{i}", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.connect("s0", "s1")
        net.connect("s2", "s3")
        comps = net.connected_components()
        assert sorted(sorted(c) for c in comps) == [["s0", "s1"], ["s2", "s3"]]

    def test_components_listed_by_first_element(self):
        """The compiler's stable first-fit-decreasing placement depends
        on this order: a component sits where its first-inserted element
        does, whichever way its edges point."""
        net = AutomataNetwork("t")
        for name in "abcde":
            net.add_ste(STE(name, SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.connect("d", "a")
        net.connect("c", "b")
        assert net.connected_components() == [{"a", "d"}, {"b", "c"}, {"e"}]

    def test_reachable_from(self, simple_net):
        simple_net.add_ste(STE("island", SymbolSet.wildcard()))
        assert simple_net.reachable_from(["mid"]) == {"mid", "end"}
        assert simple_net.reachable_from(["start", "island"]) == set(simple_net.elements)
        assert simple_net.reachable_from([]) == set()

    def test_topological_order_covers_only_named_elements(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        for name in ("z", "y", "x"):
            net.add_boolean(BooleanElement(name, BooleanOp.OR))
        net.connect("s", "x")
        net.connect("x", "y")
        net.connect("y", "z")
        net.connect("z", "s")  # back through an STE: registered, not a cycle
        assert net.topological_order(["z", "y", "x"]) == ["x", "y", "z"]
        assert net.topological_order([]) == []


class TestMerge:
    def test_merge_with_prefix(self, simple_net):
        big = AutomataNetwork("big")
        m1 = big.merge(simple_net, prefix="a_")
        m2 = big.merge(simple_net, prefix="b_")
        assert m1["start"] == "a_start" and m2["start"] == "b_start"
        assert len(big.elements) == 6 and len(big.edges) == 4

    def test_merge_remaps_threshold_source(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("b", threshold=5))
        net.add_counter(Counter("a", threshold=5, threshold_source="b"))
        net.connect("s", "a", "count")
        net.connect("s", "b", "count")
        big = AutomataNetwork("big")
        big.merge(net, prefix="x_")
        assert big.elements["x_a"].threshold_source == "x_b"

    def test_merge_does_not_mutate_source(self, simple_net):
        AutomataNetwork("big").merge(simple_net, prefix="p_")
        assert "start" in simple_net.elements
        assert "p_start" not in simple_net.elements


class TestValidation:
    def test_valid_network_passes(self, simple_net):
        simple_net.validate()

    def test_duplicate_report_codes_across_nfas(self):
        net = AutomataNetwork("t")
        net.add_ste(
            STE("a", SymbolSet.wildcard(), start=StartMode.ALL_INPUT,
                reporting=True, report_code=1)
        )
        net.add_ste(
            STE("b", SymbolSet.wildcard(), start=StartMode.ALL_INPUT,
                reporting=True, report_code=1)
        )
        with pytest.raises(ValidationError, match="shared by independent"):
            net.validate()

    def test_duplicate_report_codes_within_one_nfa_allowed(self):
        net = AutomataNetwork("t")
        net.add_ste(
            STE("a", SymbolSet.wildcard(), start=StartMode.ALL_INPUT,
                reporting=True, report_code=1)
        )
        net.add_ste(
            STE("b", SymbolSet.wildcard(), reporting=True, report_code=1)
        )
        net.connect("a", "b")
        net.validate()  # same component: one automaton, one logical code

    def test_report_group_annotation_overrides_components(self):
        net = AutomataNetwork("t")
        for name in ("a", "b"):
            ste = STE(name, SymbolSet.wildcard(), start=StartMode.ALL_INPUT,
                      reporting=True, report_code=1)
            ste.annotations["report_group"] = "pattern-x"
            net.add_ste(ste)
        net.validate()  # disconnected but same logical pattern

    def test_boolean_cycle_detected(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_boolean(BooleanElement("x", BooleanOp.OR))
        net.add_boolean(BooleanElement("y", BooleanOp.OR))
        net.connect("s", "x")
        net.connect("x", "y")
        net.connect("y", "x")
        with pytest.raises(ValidationError, match="combinational cycle"):
            net.validate()

    def test_boolean_self_loop_is_a_cycle(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_boolean(BooleanElement("x", BooleanOp.OR))
        net.connect("s", "x")
        net.connect("x", "x")
        with pytest.raises(
            ValidationError, match="^boolean elements form a combinational cycle$"
        ):
            net.validate()

    def test_not_gate_arity(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_boolean(BooleanElement("n", BooleanOp.NOT))
        net.connect("s", "n")
        net.connect("s", "n")
        with pytest.raises(ValidationError, match="exactly 1 input"):
            net.validate()

    def test_boolean_without_inputs(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_boolean(BooleanElement("b", BooleanOp.AND))
        net.connect("b", "s")
        with pytest.raises(ValidationError, match="no inputs"):
            net.validate()

    def test_counter_without_drivers(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_counter(Counter("c", threshold=1))
        net.connect("s", "c", "reset")
        with pytest.raises(ValidationError, match="no count drivers"):
            net.validate()

    def test_unreachable_ste(self):
        net = AutomataNetwork("t")
        net.add_ste(STE("s", SymbolSet.wildcard(), start=StartMode.ALL_INPUT))
        net.add_ste(STE("island", SymbolSet.wildcard()))
        with pytest.raises(ValidationError, match="unreachable"):
            net.validate()

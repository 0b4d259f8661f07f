"""The network's graph primitives against ``networkx`` as a test oracle.

``AutomataNetwork`` walks its own adjacency lists for components,
reachability and the boolean evaluation order; ``networkx`` — no longer
a dependency of the package — is the independent implementation these
property tests compare with, over random multigraphs with self-loops,
parallel edges, isolated nodes and the empty network.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.elements import STE, BooleanElement, BooleanOp, Counter
from repro.automata.network import AutomataNetwork, ValidationError
from repro.automata.symbols import SymbolSet

nx = pytest.importorskip("networkx")


@st.composite
def multigraphs(draw, kinds=("ste", "bool", "counter")):
    """``(kinds, edges)``: node ``i`` is ``n{i}``; edges are index pairs."""
    n = draw(st.integers(0, 12))
    node_kinds = draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n)) if n else []
    return node_kinds, edges


def build(node_kinds, edges) -> tuple[AutomataNetwork, "nx.MultiDiGraph"]:
    net = AutomataNetwork("graph")
    for i, kind in enumerate(node_kinds):
        if kind == "ste":
            net.add_ste(STE(f"n{i}", SymbolSet.wildcard()))
        elif kind == "bool":
            net.add_boolean(BooleanElement(f"n{i}", BooleanOp.OR))
        else:
            net.add_counter(Counter(f"n{i}", threshold=1))
    oracle = nx.MultiDiGraph()
    oracle.add_nodes_from(net.elements)
    for src, dst in edges:
        port = "count" if node_kinds[dst] == "counter" else "in"
        net.connect(f"n{src}", f"n{dst}", port)
        oracle.add_edge(f"n{src}", f"n{dst}")
    return net, oracle


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_connected_components_match_networkx_in_order(graph):
    net, oracle = build(*graph)
    # list equality: the same components in the same order
    assert net.connected_components() == [
        set(c) for c in nx.weakly_connected_components(oracle)
    ]


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_reachable_from_matches_networkx_descendants(graph, data):
    net, oracle = build(*graph)
    starts = data.draw(st.lists(st.sampled_from(sorted(net.elements)), max_size=4)
                       if net.elements else st.just([]))
    expected = set(starts)
    for s in starts:
        expected |= nx.descendants(oracle, s)
    assert net.reachable_from(starts) == expected


@settings(max_examples=300, deadline=None)
@given(multigraphs(kinds=("bool", "bool", "ste")), st.booleans())
def test_topological_order_is_valid_or_reports_the_cycle(graph, forward_only):
    node_kinds, edges = graph
    if forward_only:  # orient every edge upward: booleans form a DAG for sure
        edges = [(min(e), max(e)) for e in edges if e[0] != e[1]]
    net, oracle = build(node_kinds, edges)
    names = [b.name for b in net.booleans()]
    booleans = nx.DiGraph(oracle.subgraph(names))
    if nx.is_directed_acyclic_graph(booleans):
        # any valid order will do: the simulator == reference suite
        # checks that evaluation in it is right
        order = net.topological_order(names)
        assert sorted(order) == sorted(names)
        position = {name: i for i, name in enumerate(order)}
        assert all(position[u] < position[v] for u, v in booleans.edges)
    else:
        assert not forward_only
        with pytest.raises(
            ValidationError, match="^boolean elements form a combinational cycle$"
        ):
            net.topological_order(names)

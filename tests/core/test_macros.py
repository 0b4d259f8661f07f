"""Tests for the Hamming/sorting macro builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.extensions import build_counter_increment_macro
from repro.automata.network import AutomataNetwork
from repro.automata.simulator import CompiledSimulator, simulate
from repro.core.index_automata import IndexGatedSearch
from repro.core.jaccard import JaccardAPSearch, JaccardThresholdFilter
from repro.core.macros import (
    MacroConfig,
    build_knn_network,
    build_vector_macro,
    collector_tree_depth,
    macro_ste_cost,
)
from repro.core.multiplexing import build_multiplexed_network
from repro.core.packing import build_packed_network
from repro.core.range_search import HammingRangeSearch
from repro.core.reduction import build_reduced_network
from repro.core.stream import StreamLayout, decode_report_offset, encode_query


class TestCollectorTree:
    def test_depth_one_until_fan_in(self):
        assert collector_tree_depth(16, 16) == 1
        assert collector_tree_depth(256, 16) == 1  # 16 collectors, ok

    def test_depth_two_beyond(self):
        assert collector_tree_depth(257, 16) == 2
        assert collector_tree_depth(64, 4) == 2

    def test_paper_workloads_depth_one(self):
        for d in (64, 128, 256):
            assert collector_tree_depth(d, 16) == 1


class TestMacroCost:
    def test_formula_matches_built_network(self):
        for d in (4, 16, 40, 64, 100):
            net = AutomataNetwork("t")
            build_vector_macro(net, np.zeros(d, dtype=np.uint8), 0, "v_")
            assert len(net.stes()) == macro_ste_cost(d), d

    def test_scales_linearly(self):
        # cost ~ 2d + O(d / fan_in): doubling d roughly doubles cost.
        c64, c128 = macro_ste_cost(64), macro_ste_cost(128)
        assert 1.8 < c128 / c64 < 2.2


class TestMacroStructure:
    def test_element_inventory(self):
        net = AutomataNetwork("t")
        h = build_vector_macro(net, np.array([1, 0, 1]), 7, "v_")
        assert len(h.stars) == 3 and len(h.matches) == 3
        assert h.collector_depth == 1
        assert len(net.counters()) == 1
        rep = net.elements[h.report_state]
        assert rep.reporting and rep.report_code == 7
        net.validate()

    def test_counter_threshold_is_dimensionality(self):
        net = AutomataNetwork("t")
        h = build_vector_macro(net, np.zeros(9, dtype=np.uint8), 0, "v_")
        assert net.elements[h.counter].threshold == 9

    def test_rejects_bad_vectors(self):
        net = AutomataNetwork("t")
        with pytest.raises(ValueError, match="0/1"):
            build_vector_macro(net, np.array([0, 2]), 0, "v_")
        with pytest.raises(ValueError, match="at least one"):
            build_vector_macro(net, np.array([]), 0, "v_")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MacroConfig(max_fan_in=1)
        with pytest.raises(ValueError):
            MacroConfig(counter_max_increment=0)

    def test_report_code_base(self):
        data = np.zeros((3, 4), dtype=np.uint8)
        net, handles = build_knn_network(data, report_code_base=100)
        codes = sorted(
            e.report_code for e in net.reporting_elements()
        )
        assert codes == [100, 101, 102]

    def test_deep_collector_tree_uniform(self):
        """With tiny fan-in the tree goes multi-level but stays uniform:
        report offsets must still be affine in the match count."""
        net = AutomataNetwork("t")
        config = MacroConfig(max_fan_in=2)
        d = 8
        h = build_vector_macro(net, np.ones(d, dtype=np.uint8), 0, "v_", config)
        assert h.collector_depth == collector_tree_depth(d, 2) == 2
        layout = StreamLayout(d, h.collector_depth)
        for ones in range(d + 1):
            q = np.zeros(d, dtype=np.uint8)
            q[:ones] = 1
            res = simulate(net, encode_query(q, layout))
            assert len(res.reports) == 1
            _, m, dist = decode_report_offset(res.reports[0].cycle, layout)
            assert m == ones and dist == d - ones


class TestMacroCorrectness:
    @given(st.integers(2, 24), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_distance_decoding_property(self, d, seed):
        """For random (vector, query) pairs the decoded Hamming distance
        equals the direct computation — the core functional claim."""
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 2, d, dtype=np.uint8)
        q = rng.integers(0, 2, d, dtype=np.uint8)
        net, handles = build_knn_network(v[None, :])
        layout = StreamLayout(d, handles[0].collector_depth)
        res = simulate(net, encode_query(q, layout))
        assert len(res.reports) == 1
        _, _, dist = decode_report_offset(res.reports[0].cycle, layout)
        assert dist == int((v != q).sum())

    def test_every_vector_reports_exactly_once_per_query(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, (7, 10), dtype=np.uint8)
        net, handles = build_knn_network(data)
        layout = StreamLayout(10, handles[0].collector_depth)
        from repro.core.stream import encode_query_batch

        queries = rng.integers(0, 2, (3, 10), dtype=np.uint8)
        res = CompiledSimulator(net).run(encode_query_batch(queries, layout))
        seen = {}
        for r in res.reports:
            qi = r.cycle // layout.block_length
            key = (qi, r.code)
            assert key not in seen, "duplicate report"
            seen[key] = r.cycle
        assert len(seen) == 3 * 7


def _pinned_data(d: int, fan_in: int) -> np.ndarray:
    rng = np.random.default_rng(d * 100 + fan_in)
    data = rng.integers(0, 2, (8, d), dtype=np.uint8)
    data[:, 0] = 1  # no empty set: the Jaccard filter rejects one
    return data


def _counter_increment_network(data: np.ndarray, _config: MacroConfig):
    """Collector-free macros: the geometry's fan-in has no effect."""
    net = AutomataNetwork("ci")
    for v in range(data.shape[0]):
        build_counter_increment_macro(net, data[v], v, f"v{v}_", 7)
    return net


_PINNED_BUILDERS = {
    "knn": lambda x, c: build_knn_network(x, c)[0],
    "jaccard-topk": lambda x, c: JaccardAPSearch(x, 3, c).build_network(),
    "jaccard-filter": lambda x, c: JaccardThresholdFilter(
        x, x.shape[1] // 4, c).build_network(),
    "range": lambda x, c: HammingRangeSearch(
        x, x.shape[1] // 3, c).build_network(),
    "multiplexed": lambda x, c: build_multiplexed_network(x, 3, c)[0],
    "packed": lambda x, c: build_packed_network(x, 4, c)[0],
    "reduced": lambda x, c: build_reduced_network(x, 2, 4, c)[0],
    "index-gated": lambda x, c: IndexGatedSearch(x, 2, c).build_network(),
    "counter-increment": _counter_increment_network,
}


# NetworkStats of every builder over 8 vectors at three (d, fan-in)
# geometries: (n_stes, n_counters, n_booleans, n_edges, n_reporting,
# n_start, max_fan_in, max_fan_out).
_PINNED_STATS = {
    ("knn", 12, 16): (240, 8, 0, 352, 8, 8, 12, 3),
    ("knn", 20, 4): (424, 8, 0, 600, 8, 8, 4, 3),
    ("knn", 40, 3): (864, 8, 0, 1200, 8, 8, 4, 3),
    ("jaccard-topk", 12, 16): (197, 8, 0, 266, 8, 8, 9, 3),
    ("jaccard-topk", 20, 4): (338, 8, 0, 449, 8, 8, 4, 3),
    ("jaccard-topk", 40, 3): (633, 8, 0, 817, 8, 8, 3, 3),
    ("jaccard-filter", 12, 16): (189, 8, 0, 250, 8, 8, 9, 2),
    ("jaccard-filter", 20, 4): (322, 8, 0, 425, 8, 8, 4, 2),
    ("jaccard-filter", 40, 3): (609, 8, 0, 785, 8, 8, 3, 2),
    ("range", 12, 16): (232, 8, 0, 336, 8, 8, 12, 2),
    ("range", 20, 4): (408, 8, 0, 576, 8, 8, 4, 2),
    ("range", 40, 3): (840, 8, 0, 1168, 8, 8, 3, 2),
    ("multiplexed", 12, 16): (720, 24, 0, 1056, 24, 24, 12, 3),
    ("multiplexed", 20, 4): (1272, 24, 0, 1800, 24, 24, 4, 3),
    ("multiplexed", 40, 3): (2592, 24, 0, 3600, 24, 24, 4, 3),
    ("packed", 12, 16): (72, 8, 0, 230, 8, 2, 12, 6),
    ("packed", 20, 4): (154, 8, 0, 408, 8, 2, 4, 6),
    ("packed", 40, 3): (348, 8, 0, 842, 8, 2, 4, 6),
    ("reduced", 12, 16): (240, 10, 10, 388, 8, 8, 12, 5),
    ("reduced", 20, 4): (424, 10, 10, 636, 8, 8, 5, 5),
    ("reduced", 40, 3): (864, 10, 10, 1236, 8, 8, 5, 5),
    ("index-gated", 12, 16): (248, 8, 8, 376, 8, 10, 12, 5),
    ("index-gated", 20, 4): (432, 8, 8, 624, 8, 10, 4, 6),
    ("index-gated", 40, 3): (872, 8, 8, 1224, 8, 10, 4, 6),
    ("counter-increment", 12, 16): (144, 8, 0, 256, 8, 8, 14, 8),
    ("counter-increment", 20, 4): (216, 8, 0, 392, 8, 8, 22, 8),
    ("counter-increment", 40, 3): (400, 8, 0, 736, 8, 8, 42, 8),
}


class TestPinnedNetworks:
    @pytest.mark.parametrize(
        "key", list(_PINNED_STATS), ids=lambda k: f"{k[0]}-d{k[1]}-f{k[2]}"
    )
    def test_network_stats(self, key):
        name, d, fan_in = key
        net = _PINNED_BUILDERS[name](
            _pinned_data(d, fan_in), MacroConfig(max_fan_in=fan_in)
        )
        s = net.stats()
        got = (s.n_stes, s.n_counters, s.n_booleans, s.n_edges,
               s.n_reporting, s.n_start, s.max_fan_in, s.max_fan_out)
        assert got == _PINNED_STATS[key]

    def test_counter_max_increment_reaches_every_counter(self):
        """``MacroConfig.counter_max_increment`` is carried onto the
        counter of every vector-macro builder."""
        config = MacroConfig(counter_max_increment=4)
        data = _pinned_data(12, 16)
        for name in ("knn", "jaccard-topk", "jaccard-filter", "range", "multiplexed"):
            net = _PINNED_BUILDERS[name](data, config)
            assert {c.max_increment for c in net.counters()} == {4}, name

"""Cross-module property tests: independent paths must agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.anml import parse_anml, to_anml
from repro.automata.network import ValidationError
from repro.automata.reference import reference_run
from repro.automata.simulator import CompiledSimulator
from tests.automata.test_reference_differential import random_network


class TestAnmlRoundTripFuzz:
    @given(st.integers(0, 5000), st.integers(1, 25))
    @settings(max_examples=30, deadline=None)
    def test_serialized_network_behaves_identically(self, seed, stream_len):
        """ANML round-trip over random networks preserves behaviour,
        not just structure."""
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        try:
            net.validate()
        except ValidationError:
            return
        net2 = parse_anml(to_anml(net))
        stream = rng.integers(0, 4, size=stream_len).astype(np.uint8)
        r1 = sorted((r.cycle, r.code) for r in CompiledSimulator(net).run(stream).reports)
        r2 = sorted((r.cycle, r.code) for r in CompiledSimulator(net2).run(stream).reports)
        assert r1 == r2

    @given(st.integers(0, 5000), st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_parsed_network_agrees_with_reference(self, seed, stream_len):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        try:
            net.validate()
        except ValidationError:
            return
        net2 = parse_anml(to_anml(net))
        stream = rng.integers(0, 4, size=stream_len).astype(np.uint8)
        fast = sorted(
            (r.cycle, r.code) for r in CompiledSimulator(net2).run(stream).reports
        )
        ref = [(r.cycle, r.code) for r in reference_run(net2, stream)]
        assert fast == ref


class TestOptimizerOnEveryDesign:
    @pytest.mark.parametrize("builder", ["knn", "packed", "range", "jaccard"])
    def test_optimize_preserves_all_core_designs(self, builder, rng):
        from repro.automata.optimize import optimize
        from repro.core.jaccard import JaccardAPSearch
        from repro.core.macros import build_knn_network
        from repro.core.packing import build_packed_network
        from repro.core.range_search import HammingRangeSearch
        from repro.core.stream import StreamLayout, encode_query_batch

        data = rng.integers(0, 2, (8, 10), dtype=np.uint8)
        queries = rng.integers(0, 2, (2, 10), dtype=np.uint8)
        if builder == "knn":
            net, _ = build_knn_network(data)
            stream = encode_query_batch(queries, StreamLayout(10, 1))
        elif builder == "packed":
            net, _ = build_packed_network(data, group_size=4)
            stream = encode_query_batch(queries, StreamLayout(10, 1))
        elif builder == "range":
            rs = HammingRangeSearch(data, radius=3)
            net = rs.build_network()
            stream = rs.encode_queries(queries)
        else:
            js = JaccardAPSearch(data, k=3)
            net = js.build_network()
            stream = encode_query_batch(queries, js.layout)
        opt, stats = optimize(net)
        r1 = sorted((r.cycle, r.code) for r in CompiledSimulator(net).run(stream).reports)
        r2 = sorted((r.cycle, r.code) for r in CompiledSimulator(opt).run(stream).reports)
        assert r1 == r2
        assert stats.stes_after <= stats.stes_before

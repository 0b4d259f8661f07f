"""Tests for Hamming range (r-neighbor) search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.simulator import CompiledSimulator
from repro.core.range_search import HammingRangeSearch


class TestFunctional:
    @given(st.integers(2, 20), st.integers(2, 16), st.integers(0, 9999))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, n, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, d), dtype=np.uint8)
        r = int(rng.integers(0, d))
        rs = HammingRangeSearch(data, radius=r)
        res = rs.search(queries)
        for qi in range(3):
            dist = np.abs(data.astype(int) - queries[qi].astype(int)).sum(axis=1)
            expected = np.nonzero(dist <= r)[0]
            assert (res.candidates[qi] == expected).all()
            assert (res.distances[qi] == dist[expected]).all()

    def test_radius_zero_is_exact_match(self, rng):
        data = rng.integers(0, 2, (10, 8), dtype=np.uint8)
        rs = HammingRangeSearch(data, radius=0)
        res = rs.search(data[3])
        assert 3 in res.candidates[0]
        assert (res.distances[0] == 0).all()

    def test_validation(self, rng):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            HammingRangeSearch(data, radius=8)
        with pytest.raises(ValueError):
            HammingRangeSearch(data, radius=-1)
        rs = HammingRangeSearch(data, radius=2)
        with pytest.raises(ValueError):
            rs.search(np.zeros((1, 5), dtype=np.uint8))

    def test_non_bit_values_rejected_before_narrowing(self, rng, non_binary):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            HammingRangeSearch(non_binary(data), radius=2)
        with pytest.raises(ValueError, match="0 and 1"):
            HammingRangeSearch(data, radius=2).search(non_binary(data))
        with pytest.raises(ValueError, match="binary"):
            HammingRangeSearch(data, radius=2).encode_queries(non_binary(data))


class TestCycleAccurate:
    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_automata_match_functional(self, rng, radius):
        data = rng.integers(0, 2, (8, 10), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 10), dtype=np.uint8)
        rs = HammingRangeSearch(data, radius=radius)
        net = rs.build_network()
        net.validate()
        res = CompiledSimulator(net).run(rs.encode_queries(queries))
        got: dict[int, set] = {}
        for r in res.reports:
            got.setdefault(r.cycle // rs.block_length, set()).add(r.code)
        fun = rs.search(queries)
        for qi in range(3):
            assert got.get(qi, set()) == set(fun.candidates[qi].tolist())

    def test_each_candidate_reports_once(self, rng):
        data = rng.integers(0, 2, (6, 8), dtype=np.uint8)
        rs = HammingRangeSearch(data, radius=7)  # everything within range
        net = rs.build_network()
        res = CompiledSimulator(net).run(rs.encode_queries(data[:1]))
        assert len(res.reports) == 6  # one pulse per macro, no repeats

    def test_counter_resets_between_queries(self, rng):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        rs = HammingRangeSearch(data, radius=1)
        net = rs.build_network()
        q = np.vstack([data[0], data[0]])
        res = CompiledSimulator(net).run(rs.encode_queries(q))
        per_block: dict[int, int] = {}
        for r in res.reports:
            per_block[r.cycle // rs.block_length] = per_block.get(
                r.cycle // rs.block_length, 0
            ) + 1
        assert per_block.get(0, 0) == per_block.get(1, 0) > 0


class TestBandwidth:
    def test_reduction_grows_as_radius_shrinks(self, rng):
        data = rng.integers(0, 2, (200, 32), dtype=np.uint8)
        q = rng.integers(0, 2, (10, 32), dtype=np.uint8)
        tight = HammingRangeSearch(data, radius=8).report_reduction(q)
        loose = HammingRangeSearch(data, radius=20).report_reduction(q)
        assert tight >= loose >= 1.0

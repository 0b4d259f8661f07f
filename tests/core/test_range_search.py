"""Tests for Hamming range (r-neighbor) search: the ``range`` workload
on the engine, and its threshold automata through the simulator hooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.simulator import CompiledSimulator
from repro.core.engine import simulate_workload
from repro.core.stream import encode_query_blocks
from repro.core.workload import WorkloadSearch, get_workload

RANGE = get_workload("range")


def _hits(result):
    """Per-query ``(candidates, distances)`` without pads."""
    value = result.value
    return (
        [row[:c] for row, c in zip(value.indices, value.counts)],
        [row[:c] for row, c in zip(value.distances, value.counts)],
    )


def _reports(data, queries, radius):
    """Report codes per query block of one board's simulated automata."""
    network, block_length = RANGE.network(data, {"radius": radius})
    network.validate()
    res = CompiledSimulator(network).run(encode_query_blocks(queries, block_length))
    got: dict[int, list] = {}
    for r in res.reports:
        got.setdefault(r.cycle // block_length, []).append(r.code)
    return got


class TestFunctional:
    @given(st.integers(2, 20), st.integers(2, 16), st.integers(0, 9999))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, n, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, d), dtype=np.uint8)
        r = int(rng.integers(0, d))
        candidates, distances = _hits(
            WorkloadSearch(data, "range", {"radius": r}).search(queries)
        )
        for qi in range(3):
            dist = np.abs(data.astype(int) - queries[qi].astype(int)).sum(axis=1)
            expected = np.nonzero(dist <= r)[0]
            assert (candidates[qi] == expected).all()
            assert (distances[qi] == dist[expected]).all()

    def test_radius_zero_is_exact_match(self, rng):
        data = rng.integers(0, 2, (10, 8), dtype=np.uint8)
        engine = WorkloadSearch(data, "range", {"radius": 0})
        candidates, distances = _hits(engine.search(data[3]))
        assert 3 in candidates[0]
        assert (distances[0] == 0).all()

    def test_validation(self, rng):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            WorkloadSearch(data, "range", {"radius": 8})
        with pytest.raises(ValueError):
            WorkloadSearch(data, "range", {"radius": -1})
        engine = WorkloadSearch(data, "range", {"radius": 2})
        with pytest.raises(ValueError):
            engine.search(np.zeros((1, 5), dtype=np.uint8))

    def test_non_bit_values_rejected_before_narrowing(self, rng, non_binary):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            WorkloadSearch(non_binary(data), "range", {"radius": 2})
        engine = WorkloadSearch(data, "range", {"radius": 2})
        with pytest.raises(ValueError, match="binary"):
            engine.search(non_binary(data))
        with pytest.raises(ValueError, match="0/1"):
            encode_query_blocks(non_binary(data), RANGE.network(data, {"radius": 2})[1])


class TestCycleAccurate:
    @pytest.mark.parametrize("radius", [0, 2, 5])
    def test_automata_match_functional(self, rng, radius):
        data = rng.integers(0, 2, (8, 10), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 10), dtype=np.uint8)
        got = _reports(data, queries, radius)
        candidates, _ = _hits(
            WorkloadSearch(data, "range", {"radius": radius}).search(queries)
        )
        for qi in range(3):
            assert set(got.get(qi, ())) == set(candidates[qi].tolist())

    def test_each_candidate_reports_once(self, rng):
        data = rng.integers(0, 2, (6, 8), dtype=np.uint8)
        got = _reports(data, data[:1], radius=7)  # everything within range
        assert sorted(got[0]) == list(range(6))  # one pulse per macro, no repeats

    def test_counter_resets_between_queries(self, rng):
        data = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        got = _reports(data, np.vstack([data[0], data[0]]), radius=1)
        assert sorted(got.get(0, ())) == sorted(got.get(1, ())) != []


class TestBandwidth:
    def test_reduction_grows_as_radius_shrinks(self, rng):
        """Only rows in range report: the simulated report count (and the
        engine's, which equals it) falls with the radius, against the
        one report per row per query of the kNN design."""
        data = rng.integers(0, 2, (200, 32), dtype=np.uint8)
        q = rng.integers(0, 2, (10, 32), dtype=np.uint8)
        reduction = {}
        for radius in (8, 20):
            params = {"radius": radius}
            _, simulated = simulate_workload("range", data[:40], q, params)
            served = WorkloadSearch(data[:40], "range", params).search(q).counters
            assert simulated == served
            reports = WorkloadSearch(data, "range", params).search(q).counters
            reduction[radius] = data.shape[0] * q.shape[0] / max(1, reports.reports_received)
        assert reduction[8] >= reduction[20] >= 1.0

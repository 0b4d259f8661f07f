"""Tests for the end-to-end AP kNN engine."""

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.core.workload as workload_mod
from repro.ap.device import GEN1, GEN2
from repro.core.engine import (
    PAD_DISTANCE,
    PAD_INDEX,
    APSimilaritySearch,
    simulate_knn,
    simulate_workload,
)


class TestEngineCorrectness:
    def test_single_partition(self, small_dataset, small_queries):
        eng = APSimilaritySearch(small_dataset, k=3, board_capacity=1000)
        res = eng.search(small_queries)
        assert res.n_partitions == 1
        assert res.counters.configurations == 1

    def test_partition_count(self, small_dataset):
        eng = APSimilaritySearch(small_dataset, k=1, board_capacity=10)
        assert eng.partitions == [(0, 10), (10, 20), (20, 24)]

    def test_neighbors_span_partitions(self):
        """Force the true neighbors into different partitions."""
        d = 12
        ones_per_row = [5, 9, 1, 7, 8, 2, 9, 10, 0]  # = distance from q = 0
        data = np.zeros((9, d), dtype=np.uint8)
        for i, ones in enumerate(ones_per_row):
            data[i, :ones] = 1
        q = np.zeros((1, d), dtype=np.uint8)
        eng = APSimilaritySearch(data, k=3, board_capacity=3)
        res = eng.search(q)
        # nearest three live in partitions 2, 0, and 1 respectively
        assert res.indices[0].tolist() == [8, 2, 5]
        assert res.distances[0].tolist() == [0, 1, 2]

    def test_k_clipped_to_n(self, small_dataset, small_queries):
        eng = APSimilaritySearch(small_dataset, k=100)
        res = eng.search(small_queries)
        assert res.k == small_dataset.shape[0]

    def test_duplicate_vectors_tie_break_by_index(self):
        data = np.zeros((5, 8), dtype=np.uint8)
        q = np.zeros((1, 8), dtype=np.uint8)
        eng = APSimilaritySearch(data, k=3, board_capacity=2)
        res = eng.search(q)
        assert res.indices[0].tolist() == [0, 1, 2]


class TestShortTopkRegression:
    """merge_topk may return fewer than k rows; search must not crash."""

    @pytest.mark.parametrize("execution", ["simulate", "functional"])
    def test_single_vector_dataset(self, execution):
        data = np.ones((1, 6), dtype=np.uint8)
        queries = np.zeros((2, 6), dtype=np.uint8)
        if execution == "simulate":
            indices, distances, _ = simulate_knn(data, queries, 4)
        else:
            res = APSimilaritySearch(data, k=4).search(queries)
            assert res.k == 1
            indices, distances = res.indices, res.distances
        assert indices.tolist() == [[0], [0]]
        assert distances.tolist() == [[6], [6]]

    def test_short_merge_pads_instead_of_crashing(self, monkeypatch):
        """A back-end returning fewer reports than vectors must pad, not
        raise the historical broadcast error."""
        rng = np.random.default_rng(14)
        data = rng.integers(0, 2, (6, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (2, 8), dtype=np.uint8)
        engine = APSimilaritySearch(
            data, k=4, board_capacity=6
        )

        # The report-stream seam (simulate back-end, harness replays):
        # a lossy stream through the one decode.
        board = engine_mod.build_functional_board(data, engine.layout)
        q_idx, codes, cycles, _ = engine_mod.run_partition_functional_topk(
            board, queries, engine.layout, 0, 4
        )
        indices, distances = engine_mod.decode_partition_topk(
            q_idx[:1], codes[:1], cycles[:1], 2, 4, engine.layout  # drop most
        )
        assert indices.shape == (2, 4)
        assert (indices.ravel()[1:] == PAD_INDEX).all()
        assert (distances.ravel()[1:] == PAD_DISTANCE).all()
        assert indices[0, 0] != PAD_INDEX

        # The block seam the kNN workload takes: a short block through
        # the merge.
        real = workload_mod.hamming_topk

        def lossy(*args, **carry):
            indices, distances = real(*args, **carry)
            return indices[:, :1], distances[:, :1]  # drop most

        monkeypatch.setattr(workload_mod, "hamming_topk", lossy)
        res = engine.search(queries)
        assert res.indices.shape == (2, 4)
        # each query kept one real candidate, the rest are pad slots
        assert (res.indices[:, 1:] == PAD_INDEX).all()
        assert (res.distances[:, 1:] == PAD_DISTANCE).all()
        assert res.indices[0, 0] != PAD_INDEX

    def test_requested_k_recorded(self):
        data = np.zeros((3, 4), dtype=np.uint8)
        eng = APSimilaritySearch(data, k=9)
        assert eng.requested_k == 9
        assert eng.k == 3


class TestEmptyReportDtypes:
    """Regression: an empty report list must still decode as integers.

    np.array([]) is float64; the historical dtype-less q_idx/codes
    construction of the simulated pass therefore produced float arrays
    for empty batches, poisoning downstream integer index math.
    """

    def test_simulated_partition_empty_queries_int64(self):
        data = np.zeros((3, 4), dtype=np.uint8)
        queries = np.zeros((0, 4), dtype=np.uint8)  # no queries -> no reports
        for name, params in (("knn", {"k": 2}), ("jaccard", {"k": 2}),
                             ("range", {"radius": 1})):
            value, counters = simulate_workload(name, data, queries, params)
            assert value.indices.shape[0] == 0, name
            assert value.indices.dtype == np.int64, name
            assert counters.reports_received == 0, name

    def test_engine_search_with_zero_queries(self):
        data = np.zeros((5, 4), dtype=np.uint8)
        queries = np.zeros((0, 4), dtype=np.uint8)
        res = APSimilaritySearch(data, k=2, board_capacity=3).search(queries)
        indices, _, _ = simulate_knn(data, queries, 2, board_capacity=3)
        for got in (res.indices, indices):
            assert got.shape == (0, 2)
            assert got.dtype == np.int64


class TestExecutionDefault:
    """The engine runs the functional model; the cycle-accurate
    simulator is the oracle ``simulate_knn``, which must agree with it
    bit for bit, counters included."""

    def test_default_is_functional_and_equals_simulate(self):
        rng = np.random.default_rng(21)
        data = rng.integers(0, 2, (40, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        res = APSimilaritySearch(data, k=4, board_capacity=16).search(queries)
        assert res.execution == "functional"
        indices, distances, counters = simulate_knn(
            data, queries, 4, board_capacity=16
        )
        assert (res.indices == indices).all()
        assert (res.distances == distances).all()
        assert res.counters == counters

    @pytest.mark.parametrize("execution", ["auto", "bogus", "simulate"])
    @pytest.mark.parametrize("make,refusal", [
        (lambda data, execution: APSimilaritySearch(
            data, k=2, execution=execution
        ), "unknown execution mode.*simulate_knn"),
        (lambda data, execution: workload_mod.WorkloadSearch(
            data, "knn", {"k": 2, "execution": execution}
        ), r"unknown request parameter\(s\) \['execution'\]"),
    ], ids=["APSimilaritySearch", "WorkloadSearch"])
    def test_unknown_execution_refused(self, make, refusal, execution):
        """The ``execution=`` adapter takes ``"functional"`` alone and
        names the oracle for anything else; the engine refuses an
        ``execution`` request parameter as it does any key its workload
        does not take."""
        data = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match=refusal):
            make(data, execution)


class TestEngineAccounting:
    def test_counters(self, small_dataset, small_queries):
        eng = APSimilaritySearch(small_dataset, k=2, board_capacity=8)
        res = eng.search(small_queries)
        assert res.counters.configurations == 3
        # every partition streams the full query batch
        assert res.counters.symbols_streamed == 3 * 6 * eng.layout.block_length
        # every vector reports once per query
        assert res.counters.reports_received == 24 * 6

    def test_simulate_and_functional_counters_agree(self, small_dataset,
                                                    small_queries):
        eng = APSimilaritySearch(small_dataset, k=2, board_capacity=8)
        _, _, simulated = simulate_knn(
            small_dataset, small_queries, 2, board_capacity=8
        )
        assert eng.search(small_queries).counters == simulated

    def test_estimated_runtime_uses_paper_model(self):
        data = np.zeros((1024, 64), dtype=np.uint8)
        data[:, 0] = 1  # avoid the degenerate all-equal dataset
        eng = APSimilaritySearch(data, k=2, board_capacity=1024)
        t = eng.estimated_runtime_s(4096)
        # one partition, no reconfiguration: q x d cycles at ~7.5 ns
        assert t == pytest.approx(4096 * 64 / 133e6, rel=1e-9)
        assert t == pytest.approx(4096 * 64 * 7.5e-9, rel=0.01)

    def test_gen2_faster_for_partitioned_sets(self):
        data = np.random.default_rng(0).integers(0, 2, (64, 16), dtype=np.uint8)
        e1 = APSimilaritySearch(data, k=1, device=GEN1, board_capacity=8)
        e2 = APSimilaritySearch(data, k=1, device=GEN2, board_capacity=8)
        assert e1.estimated_runtime_s(100) > e2.estimated_runtime_s(100)


class TestEngineValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            APSimilaritySearch(np.full((2, 2), 3, dtype=np.uint8), k=1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            APSimilaritySearch(np.zeros((0, 4), dtype=np.uint8), k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            APSimilaritySearch(np.zeros((2, 2), dtype=np.uint8), k=0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="execution"):
            APSimilaritySearch(np.zeros((2, 2), dtype=np.uint8), k=1,
                               execution="warp")

    def test_rejects_query_dim_mismatch(self, small_dataset):
        eng = APSimilaritySearch(small_dataset, k=1)
        with pytest.raises(ValueError, match="d="):
            eng.search(np.zeros((1, 5), dtype=np.uint8))

    def test_rejects_non_binary_queries(self, small_dataset):
        eng = APSimilaritySearch(small_dataset, k=1)
        with pytest.raises(ValueError, match="binary"):
            eng.search(np.full((1, 16), 2, dtype=np.uint8))

    def test_default_capacity_from_compiler(self, small_dataset):
        eng = APSimilaritySearch(small_dataset, k=1)
        assert eng.board_capacity >= small_dataset.shape[0]

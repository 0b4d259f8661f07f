"""Cross-validation: the fast functional model vs the cycle simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.util.topk as topk_mod
from repro.automata.simulator import CompiledSimulator
from repro.core.engine import (
    build_functional_board,
    decode_partition_topk,
    run_partition_functional_topk,
)
from repro.core.functional import FunctionalKnnBoard
from repro.core.macros import build_knn_network
from repro.core.stream import StreamLayout, encode_query_batch


def simulated_reports(data, queries):
    net, handles = build_knn_network(data)
    layout = StreamLayout(data.shape[1], handles[0].collector_depth)
    res = CompiledSimulator(net).run(encode_query_batch(queries, layout))
    return sorted((r.cycle, r.code) for r in res.reports), layout


class TestFunctionalEquivalence:
    @given(
        st.integers(1, 8),  # n
        st.integers(2, 12),  # d
        st.integers(1, 4),  # q
        st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_identical_report_records(self, n, d, q, seed):
        """The functional board must produce byte-identical report
        streams to the cycle-accurate simulator — cycle offsets included."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (q, d), dtype=np.uint8)
        sim_reports, layout = simulated_reports(data, queries)
        board = FunctionalKnnBoard(data, layout)
        _, codes, cycles = board.query_reports(queries)
        func_reports = sorted(zip(cycles.tolist(), codes.tolist()))
        assert func_reports == sim_reports

    def test_report_ordering_within_query(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, (20, 16), dtype=np.uint8)
        queries = rng.integers(0, 2, (4, 16), dtype=np.uint8)
        board = FunctionalKnnBoard(data, StreamLayout(16, 1))
        q_idx, codes, cycles = board.query_reports(queries)
        # grouped by query; within a query cycles ascend; ties by code.
        for qi in range(4):
            mask = q_idx == qi
            c = cycles[mask]
            k = codes[mask]
            assert (np.diff(c) >= 0).all()
            same = np.nonzero(np.diff(c) == 0)[0]
            assert (k[same] < k[same + 1]).all()

    def test_report_code_base_offsets_codes(self):
        data = np.zeros((3, 4), dtype=np.uint8)
        board = FunctionalKnnBoard(data, StreamLayout(4, 1), report_code_base=50)
        _, codes, _ = board.query_reports(np.zeros((1, 4), dtype=np.uint8))
        assert sorted(codes.tolist()) == [50, 51, 52]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FunctionalKnnBoard(np.zeros((2, 4), dtype=np.uint8), StreamLayout(8, 1))

    def test_values_a_uint8_cast_would_wrap_are_rejected(self):
        """256 would compile as 0 and 257 search as 1 if the board cast
        to uint8 before validating."""
        rows = np.zeros((3, 8), dtype=np.int64)
        rows[1, 2] = 256
        with pytest.raises(ValueError, match="only 0 and 1"):
            FunctionalKnnBoard(rows, StreamLayout(8, 1))
        board = FunctionalKnnBoard(np.zeros((3, 8), dtype=np.int64), StreamLayout(8, 1))
        query = np.zeros((1, 8), dtype=np.int64)
        query[0, 5] = 257
        for search in (board.query_reports, lambda q: board.topk_block(q, 2),
                       lambda q: board.query_topk(q, 2)):
            with pytest.raises(ValueError, match="only 0 and 1"):
                search(query)


class TestQueryTopk:
    """query_topk must equal query_reports truncated to k per query."""

    @given(
        st.integers(1, 40),  # n
        st.integers(2, 16),  # d
        st.integers(1, 5),  # q
        st.integers(1, 50),  # k (often > n)
        st.integers(0, 10_000),
        st.sampled_from(["random", "duplicates", "constant"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_truncated_reports(self, n, d, q, k, seed, flavor):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        if flavor == "duplicates":  # heavy ties: few distinct rows
            data = data[rng.integers(0, max(1, n // 4), n)]
        elif flavor == "constant":  # maximal ties: one distinct row
            data[:] = data[0]
        queries = rng.integers(0, 2, (q, d), dtype=np.uint8)
        board = FunctionalKnnBoard(data, StreamLayout(d, 1))
        q_idx, codes, cycles = board.query_reports(queries)
        top_codes, top_cycles = board.query_topk(queries, k)
        k_eff = min(k, n)
        assert top_codes.shape == top_cycles.shape == (q, k_eff)
        assert top_codes.dtype == top_cycles.dtype == np.int64
        for qi in range(q):
            mask = q_idx == qi
            assert top_codes[qi].tolist() == codes[mask][:k_eff].tolist()
            assert top_cycles[qi].tolist() == cycles[mask][:k_eff].tolist()

    @given(
        st.integers(1, 30),  # n (1 = the single-vector board)
        st.sampled_from([2, 63, 64, 65, 193, 257]),  # d
        st.integers(1, 40),  # k (often >= n)
        st.integers(0, 10_000),
        st.booleans(),  # uint64 keys, forced through a tiny limit
    )
    @settings(max_examples=60, deadline=None)
    def test_forced_ties_at_kth_distance(self, n, d, k, seed, wide_keys):
        """Rows at only two distinct distances from the query, so the
        k-th neighbour almost always sits inside a tie: the kept set
        must be the lowest-index ties, for both key widths."""
        rng = np.random.default_rng(seed)
        near, far = rng.integers(0, 2, (2, d), dtype=np.uint8)
        data = np.where(rng.integers(0, 2, (n, 1)) == 1, near, far).astype(np.uint8)
        queries = np.stack([near, far, 1 - near])
        board = FunctionalKnnBoard(data, StreamLayout(d, 2))
        q_idx, codes, cycles = board.query_reports(queries)
        limit = 1 if wide_keys else topk_mod._KEY32_LIMIT
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topk_mod, "_KEY32_LIMIT", limit)
            top_codes, top_cycles = board.query_topk(queries, k)
        k_eff = min(k, n)
        expected_codes = codes.reshape(3, n)[:, :k_eff]
        expected_cycles = cycles.reshape(3, n)[:, :k_eff]
        assert (top_codes == expected_codes).all()
        assert (top_cycles == expected_cycles).all()

    @given(
        st.integers(1, 30),  # n
        st.sampled_from([3, 64, 100, 256]),  # d
        st.integers(0, 4),  # q (0 = empty batch)
        st.integers(1, 40),  # k
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_block_equals_decoded_report_stream(self, n, d, q, k, seed):
        """The workload's direct block is what the report-stream route
        (flatten -> the one decode) produces, pads included."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        data[n // 2 :] = data[0]  # ties across the k-th distance
        queries = rng.integers(0, 2, (q, d), dtype=np.uint8)
        layout = StreamLayout(d, 2)
        board = build_functional_board(data, layout)
        indices, distances = board.topk_block(queries, k)
        k_eff = min(k, n)
        assert indices.shape == distances.shape == (q, k_eff)
        assert indices.dtype == distances.dtype == np.int64
        q_idx, codes, cycles, _ = run_partition_functional_topk(
            board, queries, layout, 0, k
        )
        decoded = decode_partition_topk(q_idx, codes, cycles, q, k_eff, layout)
        if q == 0:
            assert decoded is None
        else:
            assert (decoded[0] == indices).all()
            assert (decoded[1] == distances).all()

    def test_report_code_base_applied(self):
        data = np.zeros((4, 6), dtype=np.uint8)
        board = FunctionalKnnBoard(data, StreamLayout(6, 1), report_code_base=30)
        codes, _ = board.query_topk(np.zeros((1, 6), dtype=np.uint8), 2)
        assert codes.tolist() == [[30, 31]]

    def test_rejects_bad_k(self):
        board = FunctionalKnnBoard(np.zeros((2, 4), dtype=np.uint8), StreamLayout(4, 1))
        with pytest.raises(ValueError, match="k must be"):
            board.query_topk(np.zeros((1, 4), dtype=np.uint8), 0)

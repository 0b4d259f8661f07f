"""Tests for Jaccard similarity search (Section II-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.simulator import CompiledSimulator
from repro.core.jaccard import JaccardThresholdFilter, jaccard_similarity_matrix
from repro.core.macros import MacroConfig, collector_tree_depth
from repro.core.stream import StreamLayout, encode_query_batch, encode_query_blocks
from repro.core.workload import WorkloadSearch, get_workload

JACCARD = get_workload("jaccard")


def _layout(d):
    """The kNN query block both Jaccard designs read."""
    return StreamLayout(d, collector_tree_depth(d, MacroConfig().max_fan_in))


def brute_jaccard(queries, dataset):
    q = np.asarray(queries, dtype=np.int64)
    d = np.asarray(dataset, dtype=np.int64)
    inter = (q[:, None, :] & d[None, :, :]).sum(-1)
    union = (q[:, None, :] | d[None, :, :]).sum(-1)
    out = np.ones(inter.shape, float)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out, inter


class TestSimilarityMatrix:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40),
           st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, nq, n, d, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, 2, (nq, d), dtype=np.uint8)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        got = jaccard_similarity_matrix(q, data)
        exp, _ = brute_jaccard(q, data)
        assert np.allclose(got, exp)

    def test_empty_vs_empty_is_one(self):
        z = np.zeros((1, 8), dtype=np.uint8)
        assert jaccard_similarity_matrix(z, z)[0, 0] == 1.0


class TestTopKSearch:
    """The ``jaccard`` workload on the engine, and its intersection
    automata through the simulator hooks."""

    def test_functional_topk(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, (30, 20), dtype=np.uint8)
        queries = rng.integers(0, 2, (6, 20), dtype=np.uint8)
        res = WorkloadSearch(data, "jaccard", {"k": 4}).search(queries).value
        sims, inter = brute_jaccard(queries, data)
        for qi in range(6):
            order = np.lexsort((np.arange(30), -sims[qi]))[:4]
            assert (res.indices[qi] == order).all()
            assert np.allclose(res.similarities[qi], sims[qi][order])
            assert (res.intersections[qi] == inter[qi][order]).all()

    def test_cycle_accurate_intersections(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, (8, 12), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 12), dtype=np.uint8)
        net, block_length = JACCARD.network(data, {"k": 3})
        net.validate()
        res = CompiledSimulator(net).run(encode_query_blocks(queries, block_length))
        _, inter = brute_jaccard(queries, data)
        layout = _layout(12)
        assert layout.block_length == block_length
        seen = 0
        for r in res.reports:
            qi, local = divmod(r.cycle, block_length)
            m = layout.inverted_hamming(local)
            assert m == inter[qi, r.code]
            seen += 1
        assert seen == 3 * 8

    def test_empty_set_vector_supported_in_sort_mode(self):
        data = np.zeros((2, 6), dtype=np.uint8)
        data[1, 0] = 1
        net, block_length = JACCARD.network(data, {"k": 2})
        net.validate()
        q = np.ones((1, 6), dtype=np.uint8)
        res = CompiledSimulator(net).run(encode_query_blocks(q, block_length))
        assert len(res.reports) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSearch(np.zeros((0, 4), dtype=np.uint8), "jaccard", {"k": 1})
        with pytest.raises(ValueError):
            WorkloadSearch(np.full((2, 4), 2, dtype=np.uint8), "jaccard", {"k": 1})
        engine = WorkloadSearch(np.ones((2, 4), dtype=np.uint8), "jaccard", {"k": 1})
        with pytest.raises(ValueError):
            engine.search(np.ones((1, 5), dtype=np.uint8))

    def test_non_bit_values_rejected_before_narrowing(self, non_binary):
        bits = np.ones((2, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            WorkloadSearch(non_binary(bits), "jaccard", {"k": 1})
        with pytest.raises(ValueError, match="binary"):
            WorkloadSearch(bits, "jaccard", {"k": 1}).search(non_binary(bits))
        with pytest.raises(ValueError, match="0 and 1"):
            jaccard_similarity_matrix(non_binary(bits), bits)
        with pytest.raises(ValueError, match="0 and 1"):
            jaccard_similarity_matrix(bits, non_binary(bits))
        with pytest.raises(ValueError, match="binary"):
            JaccardThresholdFilter(non_binary(bits), tau=1)
        filt = JaccardThresholdFilter(bits, tau=1)
        with pytest.raises(ValueError, match="0 and 1"):
            filt.candidates(non_binary(bits))
        with pytest.raises(ValueError, match="0/1"):
            encode_query_batch(non_binary(bits), _layout(4))


class TestThresholdFilter:
    def test_functional_candidates(self):
        rng = np.random.default_rng(3)
        data = np.maximum(
            rng.integers(0, 2, (20, 16), dtype=np.uint8),
            np.eye(20, 16, dtype=np.uint8),
        )
        queries = rng.integers(0, 2, (4, 16), dtype=np.uint8)
        filt = JaccardThresholdFilter(data, tau=4)
        cands = filt.candidates(queries)
        _, inter = brute_jaccard(queries, data)
        for qi in range(4):
            assert set(cands[qi].tolist()) == set(
                np.nonzero(inter[qi] >= 4)[0].tolist()
            )

    def test_cycle_accurate_filter(self):
        rng = np.random.default_rng(4)
        data = np.maximum(
            rng.integers(0, 2, (10, 12), dtype=np.uint8),
            np.eye(10, 12, dtype=np.uint8),
        )
        queries = rng.integers(0, 2, (3, 12), dtype=np.uint8)
        filt = JaccardThresholdFilter(data, tau=3)
        net = filt.build_network()
        net.validate()
        stream = encode_query_batch(queries, _layout(12))
        block = stream.shape[0] // 3
        res = CompiledSimulator(net).run(stream)
        got = {}
        for r in res.reports:
            got.setdefault(r.cycle // block, set()).add(r.code)
        cands = filt.candidates(queries)
        for qi in range(3):
            assert got.get(qi, set()) == set(cands[qi].tolist())

    def test_silent_vectors_send_nothing(self):
        data = np.zeros((4, 8), dtype=np.uint8)
        data[:, 0] = 1
        filt = JaccardThresholdFilter(data, tau=5)
        q = np.ones((1, 8), dtype=np.uint8)
        assert all(c.size == 0 for c in filt.candidates(q))
        stream = encode_query_batch(q, _layout(8))
        res = CompiledSimulator(filt.build_network()).run(stream)
        assert res.reports == []

    def test_reduction_factor(self):
        rng = np.random.default_rng(5)
        data = np.maximum(
            rng.integers(0, 2, (64, 32), dtype=np.uint8),
            np.eye(64, 32, dtype=np.uint8),
        )
        q = rng.integers(0, 2, (8, 32), dtype=np.uint8)
        loose = JaccardThresholdFilter(data, tau=2).reduction_factor(q)
        tight = JaccardThresholdFilter(data, tau=12).reduction_factor(q)
        assert tight >= loose >= 1.0

    def test_empty_vector_rejected(self):
        data = np.zeros((2, 8), dtype=np.uint8)
        filt = JaccardThresholdFilter(data, tau=2)
        with pytest.raises(ValueError, match="empty set"):
            filt.build_network()

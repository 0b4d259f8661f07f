"""Tests for the CPU baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu import CPUHammingKnn
from repro.util import bitops
from tests.conftest import brute_force_knn


class TestSearch:
    def test_matches_oracle(self, small_dataset, small_queries, oracle):
        cpu = CPUHammingKnn(small_dataset)
        res = cpu.search(small_queries, 5)
        exp_i, exp_d = oracle(small_dataset, small_queries, 5)
        assert (res.indices == exp_i).all() and (res.distances == exp_d).all()
        assert res.candidates_scanned == 6 * 24
        assert res.elapsed_s >= 0

    def test_query_tiling_invariant(self, small_dataset, small_queries,
                                    monkeypatch):
        cpu = CPUHammingKnn(small_dataset)
        r1 = cpu.search(small_queries, 3)
        # a one-byte budget forces one query per kernel tile
        monkeypatch.setattr(bitops, "_CDIST_TILE_BYTES", 1)
        assert bitops.default_cdist_tile(24, 1) == 1
        r2 = cpu.search(small_queries, 3)
        assert (r1.indices == r2.indices).all()
        assert (r1.distances == r2.distances).all()

    def test_k_clipped(self, small_dataset):
        res = CPUHammingKnn(small_dataset).search(small_dataset[:1], 1000)
        assert res.indices.shape == (1, 24)

    def test_input_validation(self, small_dataset):
        cpu = CPUHammingKnn(small_dataset)
        with pytest.raises(ValueError, match="d="):
            cpu.search(np.zeros((1, 3), dtype=np.uint8), 1)
        with pytest.raises(ValueError):
            CPUHammingKnn(np.zeros((0, 4), dtype=np.uint8))

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(1, 8),
           st.integers(0, 999))
    @settings(max_examples=20, deadline=None)
    def test_property_vs_oracle(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, d), dtype=np.uint8)
        res = CPUHammingKnn(data).search(queries, k)
        exp_i, exp_d = brute_force_knn(data, queries, min(k, n))
        assert (res.indices == exp_i).all() and (res.distances == exp_d).all()


class TestPriorityQueuePath:
    def test_matches_vectorized(self, small_dataset, small_queries):
        cpu = CPUHammingKnn(small_dataset)
        vec = cpu.search(small_queries[:1], 4)
        pq = cpu.search_priority_queue(small_queries[0], 4)
        assert (pq.indices == vec.indices).all()
        assert (pq.distances == vec.distances).all()

    def test_dim_check(self, small_dataset):
        with pytest.raises(ValueError):
            CPUHammingKnn(small_dataset).search_priority_queue(
                np.zeros(3, dtype=np.uint8), 1
            )

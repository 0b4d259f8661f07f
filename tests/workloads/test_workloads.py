"""Tests for workload parameters (Table II) and generators."""

import numpy as np
import pytest

from repro.workloads.generators import (
    clustered_binary,
    gaussian_features,
    queries_near_dataset,
    uniform_binary,
)
from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS


class TestParams:
    def test_table2_rows(self):
        assert WORKLOADS["kNN-WordEmbed"].d == 64
        assert WORKLOADS["kNN-WordEmbed"].k == 2
        assert WORKLOADS["kNN-SIFT"].d == 128
        assert WORKLOADS["kNN-SIFT"].k == 4
        assert WORKLOADS["kNN-TagSpace"].d == 256
        assert WORKLOADS["kNN-TagSpace"].k == 16

    def test_evaluation_constants(self):
        assert N_QUERIES == 4096 and LARGE_N == 2**20

    def test_small_n_and_capacity(self):
        assert WORKLOADS["kNN-TagSpace"].small_n == 512
        assert WORKLOADS["kNN-SIFT"].board_capacity == 1024

    def test_partition_count(self):
        w = WORKLOADS["kNN-TagSpace"]
        assert w.n_partitions(LARGE_N) == 2048
        assert w.n_partitions(1) == 1


class TestGenerators:
    def test_uniform_binary(self):
        data = uniform_binary(100, 16, seed=0)
        assert data.shape == (100, 16)
        assert 0.3 < data.mean() < 0.7

    def test_clustered_binary_structure(self):
        data, labels = clustered_binary(600, 64, n_clusters=6, flip_prob=0.05,
                                        seed=1)
        assert data.shape == (600, 64) and labels.shape == (600,)
        # within-cluster distances must be far below cross-cluster ones
        same, cross = [], []
        for i in range(0, 200, 7):
            for j in range(i + 1, 200, 11):
                dist = np.count_nonzero(data[i] != data[j])
                (same if labels[i] == labels[j] else cross).append(dist)
        assert np.mean(same) < 0.5 * np.mean(cross)

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered_binary(10, 8, n_clusters=0)
        with pytest.raises(ValueError):
            clustered_binary(10, 8, flip_prob=0.7)

    def test_gaussian_features(self):
        X, labels = gaussian_features(200, 32, n_clusters=4, seed=2)
        assert X.shape == (200, 32) and X.dtype == np.float64
        assert set(np.unique(labels)) <= set(range(4))

    def test_queries_near_dataset(self):
        data = uniform_binary(50, 40, seed=3)
        q = queries_near_dataset(data, 10, flip_prob=0.05, seed=4)
        assert q.shape == (10, 40)
        from repro.util.bitops import hamming_cdist_packed, pack_bits

        nearest = hamming_cdist_packed(pack_bits(q), pack_bits(data)).min(axis=1)
        assert nearest.mean() < 0.15 * 40  # queries stay near the corpus

    def test_determinism(self):
        a, _ = clustered_binary(20, 8, seed=9)
        b, _ = clustered_binary(20, 8, seed=9)
        assert (a == b).all()

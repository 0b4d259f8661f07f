"""Tests for the three spatial-index substrates (Section II-A)."""

import numpy as np
import pytest

from repro.index.kdtree import RandomizedKDTrees
from repro.index.kmeans import HierarchicalKMeans
from repro.index.lsh import HammingLSH
from repro.workloads.generators import clustered_binary, queries_near_dataset
from tests.conftest import brute_force_knn


@pytest.fixture(scope="module")
def corpus():
    data, labels = clustered_binary(1500, 32, n_clusters=12, flip_prob=0.06,
                                    seed=7)
    queries = queries_near_dataset(data, 25, flip_prob=0.04, seed=8)
    truth = brute_force_knn(data, queries, 5)[0]
    return data, queries, truth


ALL_INDEXES = [
    lambda d: RandomizedKDTrees(d, n_trees=4, bucket_size=128, seed=0),
    lambda d: HierarchicalKMeans(d, branching=6, bucket_size=128, seed=0),
    lambda d: HammingLSH(d, n_tables=4, hash_bits=10, n_probes=6, seed=0),
]


class TestCommonProperties:
    @pytest.mark.parametrize("make", ALL_INDEXES)
    def test_recall_beats_random(self, corpus, make):
        data, queries, truth = corpus
        index = make(data)
        recall = index.recall_at_k(queries, 5, truth)
        stats = index.search(queries, 5)[2]
        assert recall > 0.6, type(index).__name__
        assert stats["scan_fraction"] < 0.5, "index must actually prune"

    @pytest.mark.parametrize("make", ALL_INDEXES)
    def test_results_are_subset_exact(self, corpus, make):
        """Every returned neighbor must carry its true distance."""
        data, queries, truth = corpus
        index = make(data)
        idx, dist, _ = index.search(queries, 5)
        for qi in range(queries.shape[0]):
            for j in range(5):
                if idx[qi, j] < 0:
                    continue
                true_d = int((data[idx[qi, j]] != queries[qi]).sum())
                assert dist[qi, j] == true_d

    @pytest.mark.parametrize("make", ALL_INDEXES)
    def test_query_validation(self, corpus, make):
        data, _, _ = corpus
        index = make(data)
        with pytest.raises(ValueError):
            index.query_buckets(np.zeros(5, dtype=np.uint8))


class TestScan:
    """``SpatialIndex.scan``: exact top-k over each query's bucket union."""

    def test_global_indices_returned(self, corpus):
        data, queries, _ = corpus
        index = RandomizedKDTrees(data, n_trees=2, bucket_size=128, seed=0)
        allowed = set(index.buckets[0].tolist()) | set(index.buckets[3].tolist())
        idx, dist, scanned = index.scan(queries, [[0, 3]] * len(queries), 2)
        assert set(idx.ravel().tolist()) <= allowed
        assert scanned == len(allowed) * len(queries)

    def test_agrees_with_full_scan_when_buckets_cover_all(self, corpus):
        data, queries, _ = corpus
        index = RandomizedKDTrees(data, n_trees=1, bucket_size=128, seed=1)
        every = list(range(len(index.buckets)))
        idx, dist, _ = index.scan(queries, [every] * len(queries), 3)
        exp_i, exp_d = brute_force_knn(data, queries, 3)
        assert (idx == exp_i).all() and (dist == exp_d).all()

    def test_empty_bucket_set_pads(self, corpus):
        data, queries, _ = corpus
        index = RandomizedKDTrees(data, n_trees=1, bucket_size=128, seed=2)
        idx, dist, scanned = index.scan(queries[:2], [[], [0]], 3)
        assert idx[0].tolist() == [-1] * 3 and dist[0].tolist() == [33] * 3
        assert (idx[1] >= 0).all()
        assert scanned == index.buckets[0].size


class TestKDTree:
    def test_buckets_partition_dataset(self, corpus):
        data, _, _ = corpus
        index = RandomizedKDTrees(data, n_trees=3, bucket_size=64, seed=1)
        per_tree: dict[int, list[int]] = {}
        # every tree's leaves partition [0, n)
        seen = np.concatenate(index.buckets)
        counts = np.bincount(seen, minlength=data.shape[0])
        assert (counts == 3).all()  # each point in exactly one leaf per tree

    def test_bucket_size_respected(self, corpus):
        data, _, _ = corpus
        index = RandomizedKDTrees(data, n_trees=2, bucket_size=100,
                                  max_depth=30, seed=2)
        # splits are data-driven; leaves may slightly exceed only when a
        # dimension is exhausted, which clustered data avoids at d=32
        assert max(len(b) for b in index.buckets) <= 2 * 100

    def test_one_bucket_per_tree(self, corpus):
        data, queries, _ = corpus
        index = RandomizedKDTrees(data, n_trees=4, bucket_size=64, seed=3)
        assert len(index.query_buckets(queries[0])) == 4

    def test_constant_data_single_bucket(self):
        data = np.zeros((50, 8), dtype=np.uint8)
        index = RandomizedKDTrees(data, n_trees=2, bucket_size=10, seed=0)
        assert all(len(b) == 50 for b in index.buckets)


class TestKMeans:
    def test_single_bucket_traversal(self, corpus):
        data, queries, _ = corpus
        index = HierarchicalKMeans(data, branching=4, bucket_size=128, seed=4)
        assert len(index.query_buckets(queries[0])) == 1

    def test_traversal_counts_distance_ops(self, corpus):
        data, queries, _ = corpus
        index = HierarchicalKMeans(data, branching=4, bucket_size=128, seed=5)
        before = index.traversal_distance_ops
        index.query_buckets(queries[0])
        assert index.traversal_distance_ops > before

    def test_leaves_partition_dataset(self, corpus):
        data, _, _ = corpus
        index = HierarchicalKMeans(data, branching=5, bucket_size=100, seed=6)
        seen = np.sort(np.concatenate(index.buckets))
        assert (seen == np.arange(data.shape[0])).all()

    def test_validation(self, corpus):
        data, _, _ = corpus
        with pytest.raises(ValueError):
            HierarchicalKMeans(data, branching=1)


class TestLSH:
    def test_identical_vectors_collide(self):
        data = np.vstack([np.ones((2, 16), dtype=np.uint8),
                          np.zeros((2, 16), dtype=np.uint8)])
        index = HammingLSH(data, n_tables=2, hash_bits=8, seed=0)
        cands = index.candidates(data[0])
        assert 1 in cands  # its twin always collides in every table

    def test_multiprobe_expands_candidates(self, corpus):
        data, queries, _ = corpus
        base = HammingLSH(data, n_tables=3, hash_bits=12, n_probes=0, seed=1)
        probed = HammingLSH(data, n_tables=3, hash_bits=12, n_probes=8, seed=1)
        c0 = np.mean([base.candidates(q).size for q in queries])
        c1 = np.mean([probed.candidates(q).size for q in queries])
        assert c1 >= c0

    def test_multiprobe_improves_recall(self, corpus):
        data, queries, truth = corpus
        base = HammingLSH(data, n_tables=2, hash_bits=14, n_probes=0, seed=2)
        probed = HammingLSH(data, n_tables=2, hash_bits=14, n_probes=10, seed=2)
        assert probed.recall_at_k(queries, 5, truth) >= base.recall_at_k(
            queries, 5, truth
        )

    def test_tables_partition_dataset(self, corpus):
        data, _, _ = corpus
        index = HammingLSH(data, n_tables=3, hash_bits=6, seed=3)
        seen = np.concatenate(index.buckets)
        counts = np.bincount(seen, minlength=data.shape[0])
        assert (counts == 3).all()

    def test_validation(self, corpus):
        data, _, _ = corpus
        with pytest.raises(ValueError):
            HammingLSH(data, hash_bits=0)
        with pytest.raises(ValueError):
            HammingLSH(data, n_probes=-1)

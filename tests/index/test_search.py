"""Tests for the host-traversal + AP bucket-scan integration (E6)."""

import pytest

from repro.ap.device import GEN1, GEN2
from repro.index.kmeans import HierarchicalKMeans
from repro.index.lsh import HammingLSH
from repro.index.search import IndexedAPSearch, indexed_runtime_model
from repro.perf.models import CORTEX_MODEL
from repro.workloads.generators import clustered_binary, queries_near_dataset


@pytest.fixture(scope="module")
def setup():
    data, _ = clustered_binary(1200, 24, n_clusters=10, flip_prob=0.05, seed=11)
    queries = queries_near_dataset(data, 30, flip_prob=0.03, seed=12)
    index = HierarchicalKMeans(data, branching=5, bucket_size=128, seed=13)
    return data, queries, index


class TestIndexedAPSearch:
    def test_results_match_plain_index_search(self, setup):
        data, queries, index = setup
        ap_idx, ap_dist, _ = IndexedAPSearch(index).search(queries, 4)
        plain_idx, plain_dist, _ = index.search(queries, 4)
        assert (ap_idx == plain_idx).all()
        assert (ap_dist == plain_dist).all()

    def test_bucket_batching(self, setup):
        """Queries to the same bucket must share one board load."""
        data, queries, index = setup
        _, _, stats = IndexedAPSearch(index).search(queries, 4)
        assert stats.distinct_buckets_loaded <= stats.bucket_visits
        assert stats.distinct_buckets_loaded <= len(index.buckets)
        assert stats.n_queries == 30
        # k-means: exactly one bucket per query traversal
        assert stats.bucket_visits == 30

    def test_traversal_ops_tracked(self, setup):
        data, queries, index = setup
        _, _, stats = IndexedAPSearch(index).search(queries, 4)
        assert stats.traversal_distance_ops > 0

    def test_index_search_traverses_each_query_once(self, setup):
        """``SpatialIndex.search`` and ``IndexedAPSearch`` traverse the
        same queries once each, so they add the same host distance ops."""
        data, queries, index = setup
        ops0 = index.traversal_distance_ops
        index.search(queries, 4)
        ops1 = index.traversal_distance_ops
        IndexedAPSearch(index).search(queries, 4)
        ops2 = index.traversal_distance_ops
        assert ops1 - ops0 == ops2 - ops1 > 0

    def test_dataset_packed_once_across_searches(self, setup, monkeypatch):
        """The index packs the dataset at construction; searches reuse it."""
        import repro.index.base as base_mod

        data, queries, _ = setup
        packs = []
        real_pack = base_mod.pack_bits

        def counting_pack(bits):
            if bits.shape == data.shape:
                packs.append(bits.shape)
            return real_pack(bits)

        monkeypatch.setattr(base_mod, "pack_bits", counting_pack)
        index = HierarchicalKMeans(data, branching=5, bucket_size=128, seed=13)
        engine = IndexedAPSearch(index)
        first = engine.search(queries, 4)
        second = engine.search(queries, 4)
        assert len(packs) == 1
        assert (first[0] == second[0]).all() and (first[1] == second[1]).all()

    def test_lsh_multiple_visits(self, setup):
        data, queries, _ = setup
        lsh = HammingLSH(data, n_tables=4, hash_bits=8, seed=14)
        _, _, stats = IndexedAPSearch(lsh).search(queries, 4)
        assert stats.bucket_visits >= 30  # up to one visit per table


class TestRuntimeModel:
    def _stats(self, setup):
        data, queries, index = setup
        return IndexedAPSearch(index).search(queries, 4)[2]

    def test_gen2_always_faster_than_gen1(self, setup):
        stats = self._stats(setup)
        t1 = indexed_runtime_model(stats, 24, GEN1, CORTEX_MODEL)
        t2 = indexed_runtime_model(stats, 24, GEN2, CORTEX_MODEL)
        assert t2["ap_s"] < t1["ap_s"]
        assert t1["cpu_s"] == t2["cpu_s"]
        assert t2["speedup"] > t1["speedup"]

    def test_gen1_reconfiguration_dominates(self, setup):
        """The Table V story: on Gen 1 the 45 ms reloads eat the gains."""
        stats = self._stats(setup)
        t1 = indexed_runtime_model(stats, 24, GEN1, CORTEX_MODEL)
        reconfig = stats.distinct_buckets_loaded * GEN1.reconfiguration_latency_s
        assert reconfig / t1["ap_s"] > 0.9

    def test_single_thread_normalization(self, setup):
        stats = self._stats(setup)
        multi = indexed_runtime_model(stats, 24, GEN2, CORTEX_MODEL,
                                      single_thread_host=False)
        single = indexed_runtime_model(stats, 24, GEN2, CORTEX_MODEL,
                                       single_thread_host=True)
        assert single["cpu_s"] == pytest.approx(4 * multi["cpu_s"])

"""Tests for the compiled board-image cache (repro.ap.compiler)."""

import numpy as np
import pytest

from repro.ap.compiler import BoardImageCache, dataset_digest, partition_cache_key
from repro.ap.device import GEN1, GEN2
from repro.core.engine import APSimilaritySearch
from repro.core.macros import MacroConfig


def _bits(n=6, d=8, seed=0):
    return np.random.default_rng(seed).integers(0, 2, (n, d), dtype=np.uint8)


class TestCacheKey:
    def test_same_content_same_key(self):
        a, b = _bits(seed=1), _bits(seed=1)
        assert partition_cache_key(a, MacroConfig(), GEN1) == partition_cache_key(
            b, MacroConfig(), GEN1
        )

    def test_content_changes_key(self):
        a = _bits(seed=1)
        b = a.copy()
        b[0, 0] ^= 1
        assert partition_cache_key(a, MacroConfig(), GEN1) != partition_cache_key(
            b, MacroConfig(), GEN1
        )

    def test_config_device_and_extra_change_key(self):
        a = _bits()
        base = partition_cache_key(a, MacroConfig(), GEN1)
        assert base != partition_cache_key(a, MacroConfig(max_fan_in=4), GEN1)
        assert base != partition_cache_key(a, MacroConfig(), GEN2)
        assert base != partition_cache_key(a, MacroConfig(), GEN1, extra=("x",))

    def test_shape_disambiguated_from_content(self):
        flat = np.zeros((4, 4), dtype=np.uint8)
        tall = np.zeros((8, 2), dtype=np.uint8)
        assert partition_cache_key(flat, MacroConfig(), GEN1) != partition_cache_key(
            tall, MacroConfig(), GEN1
        )

    def test_precomputed_digest_matches_hashing(self):
        a = _bits()
        assert partition_cache_key(
            None, MacroConfig(), GEN1, digest=dataset_digest(a)
        ) == partition_cache_key(a, MacroConfig(), GEN1)
        with pytest.raises(ValueError, match="digest"):
            partition_cache_key(None, MacroConfig(), GEN1)


class TestBoardImageCache:
    def test_get_put_and_stats(self):
        cache = BoardImageCache(max_entries=4)
        key = ("k1",)
        assert cache.get(key) is None
        cache.put(key, "artifact")
        assert cache.get(key) == "artifact"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = BoardImageCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"; "b" is now LRU
        cache.put(("c",), 3)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.stats.evictions == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BoardImageCache(max_entries=0)

    def test_clear(self):
        cache = BoardImageCache()
        cache.put(("a",), 1)
        cache.clear()
        assert len(cache) == 0


class TestEngineCacheIntegration:
    def test_shared_cache_across_identical_shards(self):
        """Two engines over the same shard share compiled artifacts."""
        data = _bits(n=16, d=8, seed=9)
        queries = _bits(n=2, d=8, seed=10)
        cache = BoardImageCache()
        e1 = APSimilaritySearch(
            data, k=2, board_capacity=8, cache=cache
        )
        e2 = APSimilaritySearch(
            data, k=2, board_capacity=8, cache=cache
        )
        e1.search(queries)
        res = e2.search(queries)
        assert res.counters.image_cache_hits == res.n_partitions

    def test_overlapping_shards_at_different_offsets_share(self):
        """Content-addressing is position-independent: the same partition
        content at a *different* dataset offset is still a hit, and the
        re-based report codes keep results exact."""
        from tests.conftest import brute_force_knn

        data = _bits(n=48, d=8, seed=9)
        queries = _bits(n=2, d=8, seed=10)
        cache = BoardImageCache()
        # shards data[0:32] and data[16:48] with cap 16: the [16:32]
        # partition content appears in both, at offsets 16 and 0
        e1 = APSimilaritySearch(data[0:32], k=2, board_capacity=16, cache=cache)
        e2 = APSimilaritySearch(data[16:48], k=2, board_capacity=16, cache=cache)
        e1.search(queries)
        res = e2.search(queries)
        assert res.counters.image_cache_hits == 1  # the shared partition
        exp_i, exp_d = brute_force_knn(data[16:48], queries, 2)
        assert (res.indices == exp_i).all()
        assert (res.distances == exp_d).all()

    def test_identical_content_partitions_share_within_one_engine(self):
        """Duplicate partition content dedupes even inside one search."""
        data = np.zeros((8, 8), dtype=np.uint8)  # 2 identical partitions
        queries = _bits(n=2, d=8, seed=1)
        eng = APSimilaritySearch(data, k=3, board_capacity=4, cache=True)
        res = eng.search(queries)
        assert res.n_partitions == 2
        assert res.counters.image_cache_hits == 1
        assert len(eng.cache) == 1
        # tie-break still yields global indices, not partition-local ones
        assert res.indices[0].tolist() == [0, 1, 2]

    def test_cache_capacity_shorthand(self):
        data = _bits(n=16, d=8)
        eng = APSimilaritySearch(data, k=1, cache=7)
        assert eng.cache is not None and eng.cache.max_entries == 7
        off = APSimilaritySearch(data, k=1, cache=None)
        assert off.cache is None

    def test_cache_zero_disables(self):
        """cache=0 means disabled (CLI --cache-size 0 convention)."""
        data = _bits(n=16, d=8)
        assert APSimilaritySearch(data, k=1, cache=0).cache is None
        assert APSimilaritySearch(data, k=1, cache=False).cache is None

    def test_rejects_bad_cache(self):
        with pytest.raises(ValueError, match="cache"):
            APSimilaritySearch(_bits(), k=1, cache="big")

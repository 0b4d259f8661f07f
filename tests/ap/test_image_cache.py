"""Tests for the compiled board-image cache (repro.ap.compiler)."""

import numpy as np
import pytest

from repro.ap.compiler import BoardImageCache, dataset_digest, partition_cache_key
from repro.ap.device import GEN1, GEN2
from repro.ap.runtime import APRuntime
from repro.core.engine import APSimilaritySearch
from repro.core.macros import MacroConfig, build_knn_network


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


class TestBuildImageCached:
    def test_hit_skips_factory(self):
        bits = _bits()
        runtime = APRuntime()
        cache = BoardImageCache()
        key = partition_cache_key(bits, MacroConfig(), GEN1)
        calls = []

        def factory():
            calls.append(1)
            return build_knn_network(bits, name="p0")[0]

        img1 = runtime.build_image_cached(factory, cache=cache, key=key)
        img2 = runtime.build_image_cached(factory, cache=cache, key=key)
        assert img1 is img2
        assert len(calls) == 1
        assert runtime.counters.image_cache_hits == 1

    def test_no_cache_degrades_to_build_image(self):
        bits = _bits()
        runtime = APRuntime()
        img = runtime.build_image_cached(
            lambda: build_knn_network(bits, name="p0")[0]
        )
        assert img.compilation.fits


class TestEngineCacheIntegration:
    def test_shared_cache_across_identical_shards(self):
        """Two engines over the same shard share compiled artifacts."""
        data = _bits(n=16, d=8, seed=9)
        queries = _bits(n=2, d=8, seed=10)
        cache = BoardImageCache()
        e1 = APSimilaritySearch(
            data, k=2, board_capacity=8, execution="functional", cache=cache
        )
        e2 = APSimilaritySearch(
            data, k=2, board_capacity=8, execution="functional", cache=cache
        )
        e1.search(queries)
        res = e2.search(queries)
        assert res.counters.image_cache_hits == res.n_partitions

    @pytest.mark.parametrize("execution", ["simulate", "functional"])
    def test_overlapping_shards_at_different_offsets_share(self, execution):
        """Content-addressing is position-independent: the same partition
        content at a *different* dataset offset is still a hit, and the
        re-based report codes keep results exact."""
        from tests.conftest import brute_force_knn

        data = _bits(n=48, d=8, seed=9)
        queries = _bits(n=2, d=8, seed=10)
        cache = BoardImageCache()
        # shards data[0:32] and data[16:48] with cap 16: the [16:32]
        # partition content appears in both, at offsets 16 and 0
        e1 = APSimilaritySearch(
            data[0:32], k=2, board_capacity=16, execution=execution,
            cache=cache,
        )
        e2 = APSimilaritySearch(
            data[16:48], k=2, board_capacity=16, execution=execution,
            cache=cache,
        )
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
        eng = APSimilaritySearch(
            data, k=3, board_capacity=4, execution="simulate", cache=True
        )
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


class TestDiskPersistence:
    """cache_dir= marries the LRU with an on-disk artifact store."""

    def test_put_writes_get_reads_across_instances(self, tmp_path):
        c1 = BoardImageCache(cache_dir=tmp_path)
        c1.put(("k1",), {"artifact": 7})
        assert any(tmp_path.glob("*.boardimage.pkl"))
        c2 = BoardImageCache(cache_dir=tmp_path)  # "restarted service"
        assert ("k1",) not in c2  # memory tier empty...
        assert c2.get(("k1",)) == {"artifact": 7}  # ...disk serves it
        assert c2.stats.hits == 1 and c2.stats.disk_hits == 1
        assert c2.stats.misses == 0
        assert ("k1",) in c2  # promoted into memory

    def test_disk_miss_counts_as_miss(self, tmp_path):
        c = BoardImageCache(cache_dir=tmp_path)
        assert c.get(("absent",)) is None
        assert c.stats.misses == 1 and c.stats.disk_hits == 0

    def test_memory_eviction_keeps_disk_entries(self, tmp_path):
        c = BoardImageCache(max_entries=1, cache_dir=tmp_path)
        c.put(("a",), 1)
        c.put(("b",), 2)  # evicts ("a",) from memory only
        assert ("a",) not in c
        assert c.get(("a",)) == 1  # reloaded from disk
        assert c.stats.disk_hits == 1

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        c1 = BoardImageCache(cache_dir=tmp_path)
        c1.put(("k",), 42)
        (path,) = tmp_path.glob("*.boardimage.pkl")
        path.write_bytes(b"not a pickle")
        c2 = BoardImageCache(cache_dir=tmp_path)
        assert c2.get(("k",)) is None
        assert c2.stats.misses == 1

    def test_unpicklable_artifact_degrades_to_memory_only(self, tmp_path):
        import threading

        c = BoardImageCache(cache_dir=tmp_path)
        c.put(("k",), threading.Lock())  # pickle refuses locks
        assert c.get(("k",)) is not None  # memory tier still serves it
        assert not list(tmp_path.glob("*.tmp.*"))  # no half-written temp
        c2 = BoardImageCache(cache_dir=tmp_path)
        assert c2.get(("k",)) is None  # nothing ever reached disk

    def test_clear_keeps_disk(self, tmp_path):
        c = BoardImageCache(cache_dir=tmp_path)
        c.put(("k",), 1)
        c.clear()
        assert len(c) == 0
        assert c.get(("k",)) == 1

    @pytest.mark.parametrize("execution", ["functional", "simulate"])
    def test_engine_warm_starts_from_disk_with_zero_recompiles(
        self, tmp_path, execution
    ):
        """The acceptance scenario: a 'restarted service' (fresh cache
        instance over the same cache_dir) reports zero recompiles."""
        data = _bits(n=30, d=8, seed=5)
        queries = _bits(n=3, d=8, seed=6)
        first = APSimilaritySearch(
            data, k=3, board_capacity=8, execution=execution,
            cache=BoardImageCache(cache_dir=tmp_path),
        )
        r1 = first.search(queries)
        assert r1.counters.image_cache_hits == 0
        restarted = APSimilaritySearch(
            data, k=3, board_capacity=8, execution=execution,
            cache=BoardImageCache(cache_dir=tmp_path),
        )
        r2 = restarted.search(queries)
        recompiles = r2.n_partitions - r2.counters.image_cache_hits
        assert recompiles == 0
        assert restarted.cache.stats.disk_hits == r2.n_partitions
        assert (r1.indices == r2.indices).all()
        assert (r1.distances == r2.distances).all()

    def test_multiboard_warm_starts_from_disk(self, tmp_path):
        from repro.core.multiboard import MultiBoardSearch

        data = _bits(n=40, d=8, seed=7)
        queries = _bits(n=2, d=8, seed=8)
        MultiBoardSearch(
            data, k=2, n_devices=2, board_capacity=10,
            cache=BoardImageCache(cache_dir=tmp_path),
        ).search(queries)
        mb = MultiBoardSearch(
            data, k=2, n_devices=2, board_capacity=10,
            cache=BoardImageCache(cache_dir=tmp_path),
        )
        res = mb.search(queries)
        assert res.counters.image_cache_hits == sum(
            res.per_device_partitions
        )

    def test_load_image_library_cache_dir(self, tmp_path):
        from repro.core.images import export_image_library, load_image_library

        data = _bits(n=16, d=8, seed=3)
        queries = _bits(n=2, d=8, seed=4)
        lib = tmp_path / "lib"
        export_image_library(data, board_capacity=8, directory=lib)
        eng1, _ = load_image_library(lib, k=2, execution="functional",
                                     cache_dir=lib)
        eng1.search(queries)
        eng2, _ = load_image_library(lib, k=2, execution="functional",
                                     cache_dir=lib)
        res = eng2.search(queries)
        assert res.counters.image_cache_hits == res.n_partitions
        with pytest.raises(ValueError, match="not both"):
            load_image_library(lib, k=2, cache=BoardImageCache(),
                               cache_dir=lib)


class TestDiskGarbageCollection:
    """max_disk_entries/max_disk_bytes bound the on-disk store (LRU)."""

    @staticmethod
    def _disk_files(cache_dir):
        return sorted(cache_dir.glob("*.boardimage.pkl"))

    def test_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            BoardImageCache(max_disk_entries=4)
        with pytest.raises(ValueError, match="cache_dir"):
            BoardImageCache(max_disk_bytes=1024)

    def test_rejects_non_positive_budgets(self, tmp_path):
        with pytest.raises(ValueError, match="max_disk_entries"):
            BoardImageCache(cache_dir=tmp_path, max_disk_entries=0)
        with pytest.raises(ValueError, match="max_disk_bytes"):
            BoardImageCache(cache_dir=tmp_path, max_disk_bytes=0)

    def test_entry_budget_never_exceeded(self, tmp_path):
        cache = BoardImageCache(
            max_entries=2, cache_dir=tmp_path, max_disk_entries=3
        )
        for i in range(8):
            cache.put((f"k{i}",), f"artifact-{i}")
            assert len(self._disk_files(tmp_path)) <= 3
        assert cache.stats.disk_evictions == 5

    def test_byte_budget_never_exceeded(self, tmp_path):
        cache = BoardImageCache(cache_dir=tmp_path, max_disk_bytes=600)
        for i in range(6):
            cache.put((f"k{i}",), "x" * 128)
            total = sum(p.stat().st_size for p in self._disk_files(tmp_path))
            assert total <= 600
        assert cache.stats.disk_evictions > 0

    def test_oldest_evicted_first_and_disk_hit_refreshes(self, tmp_path):
        import time

        cache = BoardImageCache(
            max_entries=1, cache_dir=tmp_path, max_disk_entries=2
        )
        cache.put(("old",), "O")
        time.sleep(0.01)
        cache.put(("new",), "N")
        time.sleep(0.01)
        cache.clear()
        assert cache.get(("old",)) == "O"  # disk hit refreshes recency
        time.sleep(0.01)
        cache.put(("third",), "T")  # forces one eviction: "new" is LRU now
        cache.clear()
        assert cache.get(("old",)) == "O"
        assert cache.get(("new",)) is None
        assert cache.get(("third",)) == "T"

    def test_memory_tier_survives_disk_eviction(self, tmp_path):
        cache = BoardImageCache(
            max_entries=8, cache_dir=tmp_path, max_disk_entries=1
        )
        cache.put(("a",), "A")
        cache.put(("b",), "B")  # evicts "a" from disk, not memory
        assert len(self._disk_files(tmp_path)) == 1
        assert cache.get(("a",)) == "A"

    def test_engine_with_bounded_disk_store_stays_correct(self, tmp_path):
        data = _bits(n=40, d=8, seed=9)
        queries = _bits(n=3, d=8, seed=10)
        plain = APSimilaritySearch(
            data, k=3, board_capacity=8, execution="functional"
        ).search(queries)
        eng = APSimilaritySearch(
            data, k=3, board_capacity=8, execution="functional",
            cache=BoardImageCache(
                cache_dir=tmp_path, max_disk_entries=2
            ),
        )
        r1 = eng.search(queries)
        r2 = eng.search(queries)
        assert len(list(tmp_path.glob("*.boardimage.pkl"))) <= 2
        assert (r1.indices == plain.indices).all()
        assert (r2.indices == plain.indices).all()

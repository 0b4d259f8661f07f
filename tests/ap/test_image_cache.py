"""Tests for the compiled board-image cache (repro.ap.compiler)."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.compiler import BoardImageCache, dataset_digest, partition_cache_key
from repro.ap.device import GEN1, GEN2
from repro.core.engine import APSimilaritySearch
from repro.core.macros import MacroConfig
from repro.core.workload import WorkloadSearch


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


class _Tally:
    """Stands in for a metric child or a lock: counts ``inc`` amounts
    and lock entries, delegating to the real object."""

    def __init__(self, real):
        self.real, self.incs, self.entries = real, [], 0

    def inc(self, amount=1):
        self.incs.append(amount)
        self.real.inc(amount)

    def __enter__(self):
        self.entries += 1
        return self.real.__enter__()

    def __exit__(self, *exc):
        return self.real.__exit__(*exc)


def _tallied(cache):
    cache._m_hit, cache._m_miss, cache._m_evict = (
        _Tally(m) for m in (cache._m_hit, cache._m_miss, cache._m_evict)
    )
    return cache


def _entry(key):
    """A key's entry, built from the key alone as a board's words are
    from its content."""
    return ("words", key)


def _sequential(cache, window):
    """The per-key reference: ``get``, then ``put`` on a miss."""
    values, hits = [], 0
    for key in window:
        value = cache.get(key)
        if value is None:
            value = _entry(key)
            cache.put(key, value)
        else:
            hits += 1
        values.append(value)
    return values, hits


def _batched(cache, window):
    """One transaction, as a worker runs a pass: a lookup, each missed
    key built once, one store."""
    entries = cache.lookup(window)
    built = {}
    for i, key in enumerate(window):
        if entries[i] is None:
            entries[i] = built.setdefault(key, _entry(key))
    return entries, cache.store(window, entries)


class TestBatchedTransaction:
    @given(
        keys=st.lists(st.integers(0, 9), max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=8),
        capacity=st.integers(1, 8),
        warm=st.lists(st.integers(0, 9), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_window_settles_as_its_keys_one_by_one(
        self, keys, cuts, capacity, warm
    ):
        """Random key sequences cut into windows — keys repeated inside
        a window, windows wider than the cache, a cache already holding
        some keys: one lookup + one store per window gives the values,
        hits, misses, evictions, length, LRU order and metric totals
        of a get (then put on a miss) per key."""
        bounds = sorted({0, len(keys), *(c for c in cuts if c < len(keys))})
        windows = [keys[a:b] for a, b in zip(bounds, bounds[1:])]
        ref = _tallied(BoardImageCache(max_entries=capacity))
        got = _tallied(BoardImageCache(max_entries=capacity))
        for cache in (ref, got):
            for key in warm:
                cache.put(key, _entry(key))
        for window in windows:
            assert _batched(got, window) == _sequential(ref, window)
        assert got.stats == ref.stats
        assert len(got) == len(ref)
        assert list(got._entries.items()) == list(ref._entries.items())
        for name in ("_m_hit", "_m_miss", "_m_evict"):
            tally = getattr(got, name)
            assert sum(tally.incs) == sum(getattr(ref, name).incs), name
            assert all(n > 0 for n in tally.incs), name
        # one bump per metric per window, not one per key
        assert len(got._m_hit.incs) <= len(windows)
        assert len(got._m_miss.incs) <= len(windows)

    def test_concurrent_transactions_lose_no_update(self):
        """Four threads (more than cores) settling overlapping windows
        through one small cache, switching every microsecond: every key
        is counted once as a hit or a miss, and every miss inserted one
        entry that is either resident or counted as evicted."""
        cache = BoardImageCache(max_entries=5)
        windows = [[(7 * t + i) % 13 for i in range(6)] for t in range(4)]
        errors = []

        def work(window):
            try:
                for _ in range(300):
                    _batched(cache, window)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in windows]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        stats = cache.stats
        assert stats.hits + stats.misses == 4 * 300 * 6
        assert stats.misses - stats.evictions == len(cache) == 5

    def test_a_warm_search_settles_the_cache_once_per_window(self, monkeypatch):
        """A warm q = 1 cached search takes the cache lock twice (one
        lookup, one store) and bumps ``repro_cache_hits_total`` once per
        pass, whatever the pass's board count."""
        from repro.core import workload as wl_mod

        data = _bits(n=64 * 16, d=64, seed=3)
        monkeypatch.setattr(wl_mod, "_PASS_BYTES", 8 * 16 * 8)  # 8 boards a pass
        eng = WorkloadSearch(data, "knn", {"k": 2}, board_capacity=16,
                             cache=True)
        eng.search(data[:1])
        cache = _tallied(eng.cache)
        cache._lock = _Tally(threading.Lock())
        res = eng.search(data[:1])
        windows = [w for t in eng._partition_tasks(eng._boards_per_pass(1))
                   for w in t.window_list()]
        assert len(windows) == 8
        assert res.counters.image_cache_hits == res.n_partitions == 64
        assert cache._lock.entries == 2 * len(windows)
        assert cache._m_hit.incs == [8] * len(windows)
        assert cache._m_miss.incs == cache._m_evict.incs == []


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

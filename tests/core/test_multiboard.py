"""Tests for multi-device scale-out."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.compiler import BoardImageCache
from repro.ap.runtime import RuntimeCounters
from repro.core.engine import APSimilaritySearch
from repro.core.multiboard import MultiBoardSearch, balanced_shard_bounds
from repro.host.parallel import ParallelConfig
from tests.conftest import brute_force_knn


class TestCorrectness:
    @pytest.mark.parametrize("n_devices", [1, 2, 3, 5])
    def test_matches_brute_force(self, rng, n_devices):
        data = rng.integers(0, 2, (50, 12), dtype=np.uint8)
        queries = rng.integers(0, 2, (7, 12), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=4, n_devices=n_devices,
                              board_capacity=8)
        res = mb.search(queries)
        exp_i, exp_d = brute_force_knn(data, queries, 4)
        assert (res.indices == exp_i).all()
        assert (res.distances == exp_d).all()
        assert res.n_devices == n_devices

    def test_global_ids_across_shards(self, rng):
        # nearest vector deliberately in the last shard
        data = np.ones((30, 8), dtype=np.uint8)
        data[29] = 0
        q = np.zeros((1, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=1, n_devices=3, board_capacity=10)
        res = mb.search(q)
        assert res.indices[0, 0] == 29 and res.distances[0, 0] == 0

    def test_counters_aggregate(self, rng):
        data = rng.integers(0, 2, (40, 8), dtype=np.uint8)
        q = rng.integers(0, 2, (2, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=2, n_devices=4, board_capacity=5)
        res = mb.search(q)
        assert sum(res.per_device_partitions) == 8  # 40/5
        assert res.counters.configurations == 8
        assert res.counters.reports_received == 2 * 40

    def test_validation(self, rng):
        data = rng.integers(0, 2, (10, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            MultiBoardSearch(data, k=1, n_devices=0)
        with pytest.raises(ValueError):
            MultiBoardSearch(data, k=1, n_devices=11)
        mb = MultiBoardSearch(data, k=1, n_devices=2)
        with pytest.raises(ValueError, match="d="):
            mb.search(np.zeros((1, 5), dtype=np.uint8))


class TestBalancedShards:
    def test_bounds_balanced_and_nonempty(self):
        """Shard sizes differ by at most one and no shard is empty for
        any 1 <= n_devices <= n (linspace truncation violated this)."""
        for n in (1, 2, 3, 5, 7, 10, 33, 100, 257):
            for n_devices in {d for d in (1, 2, 3, n // 2, n - 1, n)
                              if 1 <= d <= n}:
                bounds = balanced_shard_bounds(n, n_devices)
                sizes = np.diff(bounds)
                assert bounds[0] == 0 and bounds[-1] == n
                assert (sizes > 0).all(), (n, n_devices)
                assert sizes.max() - sizes.min() <= 1, (n, n_devices)

    def test_remainder_spread_over_leading_shards(self):
        assert np.diff(balanced_shard_bounds(10, 3)).tolist() == [4, 3, 3]
        assert np.diff(balanced_shard_bounds(7, 5)).tolist() == [2, 2, 1, 1, 1]

    def test_rejects_degenerate_split(self):
        with pytest.raises(ValueError):
            balanced_shard_bounds(5, 0)
        with pytest.raises(ValueError):
            balanced_shard_bounds(5, 6)

    def test_engines_use_balanced_bounds(self, rng):
        data = rng.integers(0, 2, (11, 4), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=1, n_devices=4, board_capacity=4)
        assert np.diff(mb.shard_bounds).tolist() == [3, 3, 3, 2]
        assert mb.shard_bounds[:-1].tolist() == [0, 3, 6, 9]
        # board partitions never straddle a device boundary
        assert mb.partitions == [(0, 3), (3, 6), (6, 9), (9, 11)]
        assert mb.per_device_partitions == (1, 1, 1, 1)


class TestPadSafety:
    def _lossy(self, monkeypatch, dead_p_idx):
        """Drop every report of the partitions in ``dead_p_idx`` at the
        worker seam (the path all backends share)."""
        import repro.host.parallel as hp

        real = hp.execute_partition

        def lossy(task, queries_bits, cache=None):
            res = real(task, queries_bits, cache)
            if task.p_idx in dead_p_idx:
                res.payload = None
            return res

        monkeypatch.setattr(hp, "execute_partition", lossy)

    def test_short_shard_rows_do_not_corrupt_merge(self, rng, monkeypatch):
        """A shard losing its reports must not inject bogus candidates
        into the cross-shard merge: historically a pad index -1 became
        the valid global index `offset - 1` with a distance that
        outranked every real neighbor."""
        from repro.core.engine import PAD_DISTANCE

        data = rng.integers(0, 2, (20, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=3, n_devices=2, execution="functional")
        assert mb.per_device_partitions == (1, 1)
        # device 0 (data[0:10], single partition, p_idx 0) goes lossy
        self._lossy(monkeypatch, {0})
        res = mb.search(queries)
        # result equals brute force over the surviving shard only —
        # no offset-shifted pads, no negative distances
        exp_i, exp_d = brute_force_knn(data[10:], queries, 3)
        assert (res.indices == exp_i + 10).all()
        assert (res.distances == exp_d).all()
        assert (res.distances != PAD_DISTANCE).all()

    def test_all_shards_short_pads_result(self, rng, monkeypatch):
        from repro.core.engine import PAD_DISTANCE, PAD_INDEX

        data = rng.integers(0, 2, (8, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (2, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=2, n_devices=2, execution="functional")
        self._lossy(monkeypatch, {0, 1})
        res = mb.search(queries)
        assert (res.indices == PAD_INDEX).all()
        assert (res.distances == PAD_DISTANCE).all()

    def test_k_beyond_shard_size_stays_exact(self, rng):
        """k > shard size pads every per-shard block; the offset-aware
        merge must keep those pads out of the global result."""
        data = rng.integers(0, 2, (12, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (4, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=9, n_devices=4, board_capacity=2)
        res = mb.search(queries)
        exp_i, exp_d = brute_force_knn(data, queries, 9)
        assert (res.indices == exp_i).all()
        assert (res.distances == exp_d).all()


class TestBackendParity:
    """Acceptance: serial ≡ thread ≡ process, bit for bit, and exact
    counter aggregation across devices."""

    def _shard_counter_sum(self, mb, data, queries, k, cap):
        """Expected counters: per-shard sequential engines, summed."""
        total = RuntimeCounters()
        bounds = mb.shard_bounds
        for di in range(mb.n_devices):
            shard = data[bounds[di]:bounds[di + 1]]
            r = APSimilaritySearch(
                shard, k=k, board_capacity=cap, execution="functional"
            ).search(queries)
            total.merge(r.counters)
        return total

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_three_way_parity(self, rng, backend):
        data = rng.integers(0, 2, (60, 12), dtype=np.uint8)
        queries = rng.integers(0, 2, (5, 12), dtype=np.uint8)
        single = APSimilaritySearch(
            data, k=5, board_capacity=7, execution="functional"
        ).search(queries)
        mb = MultiBoardSearch(
            data, k=5, n_devices=3, board_capacity=7, execution="functional",
            parallel=ParallelConfig(n_workers=3, backend=backend),
        )
        res = mb.search(queries)
        assert (res.indices == single.indices).all()
        assert (res.distances == single.distances).all()
        assert res.counters == self._shard_counter_sum(mb, data, queries, 5, 7)
        if backend != "serial":
            assert res.n_workers == 3

    @given(st.integers(4, 40), st.integers(2, 12), st.integers(1, 4),
           st.integers(1, 50), st.integers(1, 5), st.integers(0, 1000),
           st.sampled_from(["serial", "thread"]))
    @settings(max_examples=25, deadline=None)
    def test_multiboard_bit_identical_property(self, n, d, q, k, n_devices,
                                               seed, backend):
        """Any device count / backend / k (including k > shard size, so
        pad rows appear) is bit-identical to one engine over the full
        dataset — (distance, index) tie-breaks included — with exact
        counter aggregation."""
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (q, d), dtype=np.uint8)
        n_devices = min(n_devices, n)
        cap = max(1, n // 4)
        single = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional"
        ).search(queries)
        mb = MultiBoardSearch(
            data, k=k, n_devices=n_devices, board_capacity=cap,
            execution="functional",
            parallel=ParallelConfig(n_workers=3, backend=backend),
        )
        res = mb.search(queries)
        assert (res.indices == single.indices).all()
        assert (res.distances == single.distances).all()
        assert res.counters == self._shard_counter_sum(
            mb, data, queries, k, cap
        )


class TestSharedCache:
    def test_devices_share_one_cache_and_warm_runs_hit(self, rng):
        data = rng.integers(0, 2, (40, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        cache = BoardImageCache()
        mb = MultiBoardSearch(data, k=3, n_devices=2, board_capacity=10,
                              execution="functional", cache=cache)
        assert mb.cache is cache  # one pipeline, one cache, every device
        cold = mb.search(queries)
        assert cold.counters.image_cache_hits == 0
        assert len(cache) == sum(cold.per_device_partitions)
        warm = mb.search(queries)
        assert warm.counters.image_cache_hits == sum(
            warm.per_device_partitions
        )
        assert (warm.indices == cold.indices).all()
        assert (warm.distances == cold.distances).all()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_fill_and_hit_the_parent_cache(self, rng, backend):
        """Thread workers share the cache in place; process workers via
        artifact shipping — either way the second search recompiles
        nothing and stays bit-identical."""
        data = rng.integers(0, 2, (40, 8), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 8), dtype=np.uint8)
        cache = BoardImageCache()
        mb = MultiBoardSearch(
            data, k=3, n_devices=2, board_capacity=10, execution="functional",
            parallel=ParallelConfig(n_workers=2, backend=backend), cache=cache,
        )
        plain = MultiBoardSearch(
            data, k=3, n_devices=2, board_capacity=10, execution="functional"
        ).search(queries)
        cold = mb.search(queries)
        assert len(cache) == sum(cold.per_device_partitions)
        warm = mb.search(queries)
        assert warm.counters.image_cache_hits == sum(
            warm.per_device_partitions
        )
        for res in (cold, warm):
            assert (res.indices == plain.indices).all()
            assert (res.distances == plain.distances).all()


class TestScalingModel:
    def test_runtime_shrinks_with_devices(self, rng):
        data = rng.integers(0, 2, (4096, 16), dtype=np.uint8)
        t = {}
        for d in (1, 2, 4, 8):
            mb = MultiBoardSearch(data, k=1, n_devices=d, board_capacity=256)
            t[d] = mb.estimated_runtime_s(1024)
        assert t[1] > t[2] > t[4] > t[8]
        # near-linear while every shard still spans many partitions
        assert t[1] / t[2] == pytest.approx(2.0, rel=0.05)

    def test_scaling_saturates_at_one_partition_per_device(self, rng):
        data = rng.integers(0, 2, (512, 16), dtype=np.uint8)
        t1 = MultiBoardSearch(data, k=1, n_devices=1,
                              board_capacity=512).estimated_runtime_s(256)
        t2 = MultiBoardSearch(data, k=1, n_devices=2,
                              board_capacity=512).estimated_runtime_s(256)
        # each shard already fits one configuration: no speedup left
        assert t2 == pytest.approx(t1, rel=0.01)

    def test_efficiency_metric(self, rng):
        data = rng.integers(0, 2, (2048, 16), dtype=np.uint8)
        t1 = MultiBoardSearch(data, k=1, n_devices=1,
                              board_capacity=128).estimated_runtime_s(512)
        mb4 = MultiBoardSearch(data, k=1, n_devices=4, board_capacity=128)
        eff = mb4.scaling_efficiency(512, t1)
        assert 0.9 <= eff <= 1.01

    def test_degenerate_runtime_reports_nan_not_perfect(self, rng, monkeypatch):
        """A modeled runtime <= 0 must not masquerade as efficiency 1.0
        regardless of device count."""
        data = rng.integers(0, 2, (64, 8), dtype=np.uint8)
        mb = MultiBoardSearch(data, k=1, n_devices=4, board_capacity=16)
        monkeypatch.setattr(mb, "estimated_runtime_s", lambda n_queries: 0.0)
        assert math.isnan(mb.scaling_efficiency(16, 1.0))
        monkeypatch.setattr(mb, "estimated_runtime_s", lambda n_queries: -1.0)
        assert math.isnan(mb.scaling_efficiency(16, 1.0))

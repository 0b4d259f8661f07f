"""Tests for multi-device scale-out (its answers on every backend and
store are the oracle's: ``tests/integration/test_bit_identity.py``)."""

import math

import numpy as np
import pytest

from repro.core.multiboard import MultiBoardSearch, balanced_shard_bounds
from tests.conftest import brute_force_knn


class TestCorrectness:
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
        mb = MultiBoardSearch(data, k=3, n_devices=2)
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
        mb = MultiBoardSearch(data, k=2, n_devices=2)
        self._lossy(monkeypatch, {0, 1})
        res = mb.search(queries)
        assert (res.indices == PAD_INDEX).all()
        assert (res.distances == PAD_DISTANCE).all()


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

"""Tests for the FPGA accelerator cycle-level simulator."""

import numpy as np
import pytest

from repro.baselines.fpga import FPGAKnnAccelerator
from tests.conftest import brute_force_knn


class TestFunctional:
    def test_matches_cpu(self, small_dataset, small_queries):
        exp_i, exp_d = brute_force_knn(small_dataset, small_queries, 4)
        fi, fd, _ = FPGAKnnAccelerator(small_dataset).search(small_queries, 4)
        assert (fi == exp_i).all() and (fd == exp_d).all()

    def test_lane_count_invariant(self, small_dataset, small_queries):
        a, _, _ = FPGAKnnAccelerator(small_dataset, query_lanes=1).search(
            small_queries, 3
        )
        b, _, _ = FPGAKnnAccelerator(small_dataset, query_lanes=12).search(
            small_queries, 3
        )
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            FPGAKnnAccelerator(np.zeros((0, 4), dtype=np.uint8))
        acc = FPGAKnnAccelerator(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            acc.search(np.zeros((1, 8), dtype=np.uint8), 1)


class TestCycleModel:
    def test_batch_count(self, small_dataset):
        acc = FPGAKnnAccelerator(small_dataset, query_lanes=4)
        _, _, stats = acc.search(np.zeros((10, 16), dtype=np.uint8), 2)
        assert stats.batches == 3

    def test_stream_cycles_dominate(self):
        data = np.zeros((4096, 128), dtype=np.uint8)
        acc = FPGAKnnAccelerator(data)
        _, _, stats = acc.search(np.zeros((12, 128), dtype=np.uint8), 4)
        assert stats.cycles_stream > 10 * (stats.cycles_load + stats.cycles_drain)

    def test_beats_per_vector(self):
        acc = FPGAKnnAccelerator(np.zeros((2, 130), dtype=np.uint8),
                                 stream_width=64)
        assert acc.beats_per_vector == 3

    def test_paper_throughput_shape(self):
        """Large kNN-SIFT projected time ~3.7 s (paper: 3.69 s) without
        building the 2^20 dataset: cycles scale linearly in n."""
        d, n_small = 128, 4096
        acc = FPGAKnnAccelerator(np.zeros((n_small, d), dtype=np.uint8))
        _, _, stats = acc.search(np.zeros((4096, d), dtype=np.uint8), 4)
        scale = 2**20 / n_small
        projected = stats.cycles_stream * scale / stats.clock_hz
        assert projected == pytest.approx(3.69, rel=0.1)

    def test_device_time_consistent(self, small_dataset, small_queries):
        _, _, stats = FPGAKnnAccelerator(small_dataset).search(small_queries, 2)
        assert stats.device_time_s == pytest.approx(
            stats.total_cycles / 185e6
        )

"""Tests for the AP device model (paper Section II-B constants)."""

import pytest

from repro.ap.device import GEN1, GEN2, APDeviceSpec, APGeneration
from repro.ap.runtime import RuntimeCounters
from repro.perf.models import ap_time


class TestHierarchy:
    def test_paper_constants(self):
        d = GEN1
        assert d.stes_per_half_core == 24_576
        assert d.total_stes == 1_572_864
        assert d.half_cores == 64
        assert d.total_blocks == 6_144
        assert d.max_nfa_states == 24_576

    def test_block_resources(self):
        assert GEN1.total_counters == 6_144 * 4
        assert GEN1.total_booleans == 6_144 * 12
        assert GEN1.total_reporting_stes == 6_144 * 32

    def test_cycle_time_near_7_5ns(self):
        assert GEN1.cycle_time_s == pytest.approx(7.5e-9, rel=0.01)

    def test_symbol_stream_time(self):
        one_second = RuntimeCounters(symbols_streamed=133_000_000)
        assert ap_time(one_second, GEN1)[1] == pytest.approx(1.0, rel=1e-6)


class TestGenerations:
    def test_gen1_reconfiguration_45ms(self):
        assert GEN1.reconfiguration_latency_s == pytest.approx(45e-3)

    def test_gen2_hundred_x_faster(self):
        ratio = GEN1.reconfiguration_latency_s / GEN2.reconfiguration_latency_s
        assert ratio == pytest.approx(100.0)

    def test_generation_tags(self):
        assert GEN1.generation is APGeneration.GEN1
        assert GEN2.generation is APGeneration.GEN2

    def test_same_fabric(self):
        assert GEN1.total_stes == GEN2.total_stes
        assert GEN1.clock_hz == GEN2.clock_hz

    def test_custom_spec(self):
        tiny = APDeviceSpec(ranks=1, processors_per_rank=1)
        assert tiny.half_cores == 2
        assert tiny.total_stes == 2 * 24_576

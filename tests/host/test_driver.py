"""The device and host lanes of the host driver's partition pipeline,
priced in closed form by :func:`repro.perf.models.pipeline_time` on top
of the one AP pricing function, :func:`repro.perf.models.ap_time`."""

import pytest

from repro.ap.device import GEN1, GEN2
from repro.ap.runtime import RuntimeCounters
from repro.perf.models import ap_time, pipeline_time


class TestDeviceLane:
    def test_ops_serialize_on_device(self):
        # one partition: a configuration, then 1000 symbols, back to back
        res = pipeline_time(1, 1, 0, 1000, 0)
        assert res.device_busy_s == pytest.approx(45e-3 + 1000 / 133e6)
        assert res.makespan_s == pytest.approx(res.device_busy_s)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            pipeline_time(1, 1, 4, -1, 0)

    def test_gen2_configure_cheaper(self):
        one = RuntimeCounters(configurations=1)
        t1, _ = ap_time(one, GEN1)
        t2, _ = ap_time(one, GEN2)
        assert t1 / t2 == pytest.approx(100.0)


class TestHostLane:
    def test_async_decode_overlaps_next_device_op(self):
        # two partitions of ~1 s streaming and 0.2 s decode each: the
        # first decode runs while the second partition streams
        res = pipeline_time(2, 1, 0, 133_000_000, 100_000_000)
        overlap = res.device_busy_s + res.host_busy_s - res.makespan_s
        assert overlap == pytest.approx(0.2)

    def test_decode_validation(self):
        with pytest.raises(ValueError):
            pipeline_time(1, 1, 4, 12, -1)


class TestTimeline:
    def test_accounting(self):
        res = pipeline_time(1, 1, 0, 133_000, 1000)
        assert res.device_busy_s == pytest.approx(45e-3 + 1e-3)
        assert res.host_busy_s == pytest.approx(1000 * 2e-9)
        assert res.makespan_s == pytest.approx(res.device_busy_s + res.host_busy_s)
        assert 0 < res.device_utilization <= 1.0

"""The Section III-C partition schedule and its pipelining policies
(:func:`repro.perf.models.pipeline_time`)."""

import numpy as np
import pytest

from repro.ap.device import GEN1, GEN2
from repro.core.engine import APSimilaritySearch
from repro.perf.models import POLICIES, ap_gen1_model, ap_time, pipeline_time
from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS


def wordembed_schedule(policy, device=GEN1):
    w = WORKLOADS["kNN-WordEmbed"]
    parts = LARGE_N // w.board_capacity
    block = 2 * w.d + 1 + 3
    return pipeline_time(
        parts, N_QUERIES, w.d, block,
        reports_per_partition=w.board_capacity * N_QUERIES,
        device=device, policy=policy,
    )


class TestPolicies:
    def test_query_overlap_reproduces_paper_model(self):
        """The paper's AP row is the query-overlap schedule's makespan."""
        w = WORKLOADS["kNN-WordEmbed"]
        res = wordembed_schedule("query-overlap")
        paper_model = ap_gen1_model().runtime_for(w, LARGE_N, N_QUERIES)
        assert res.makespan_s == pytest.approx(paper_model, rel=0.01)

    def test_policy_ordering(self):
        times = {p: wordembed_schedule(p).makespan_s for p in POLICIES}
        assert times["query-overlap"] <= times["async"] <= times["blocking"]

    def test_gen1_insensitive_to_host_overlap(self):
        """Reconfiguration dominates Gen 1: async ~ blocking."""
        t_async = wordembed_schedule("async").makespan_s
        t_block = wordembed_schedule("blocking").makespan_s
        assert t_block / t_async < 1.25

    def test_gen2_exposes_host_decode_bottleneck(self):
        """On Gen 2 the full report stream makes the *host* the critical
        path — the quantitative motivation for Section VI-C's
        activation reduction."""
        res = wordembed_schedule("query-overlap", device=GEN2)
        assert res.host_busy_s > res.device_busy_s
        # with a p/k' = 8x report reduction the device leads again
        w = WORKLOADS["kNN-WordEmbed"]
        parts = LARGE_N // w.board_capacity
        reduced = pipeline_time(
            parts, N_QUERIES, w.d, 2 * w.d + 4,
            reports_per_partition=w.board_capacity * N_QUERIES // 8,
            device=GEN2, policy="query-overlap",
        )
        assert reduced.host_busy_s < reduced.device_busy_s
        assert reduced.makespan_s < res.makespan_s

    def test_validation(self):
        with pytest.raises(ValueError, match="policy"):
            pipeline_time(1, 1, 4, 12, 1, policy="warp")
        with pytest.raises(ValueError):
            pipeline_time(0, 1, 4, 12, 1)

    def test_device_utilization_bounded(self):
        for p in POLICIES:
            res = wordembed_schedule(p)
            assert 0 < res.device_utilization <= 1.0


def test_served_counters_price_to_the_async_device_busy():
    """A functional search's own counters, priced by ``ap_time``, are the
    async schedule's device busy time for the same boards and stream."""
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, (1000, 64), dtype=np.uint8)
    queries = rng.integers(0, 2, (16, 64), dtype=np.uint8)
    engine = APSimilaritySearch(data, k=2, board_capacity=128, execution="functional")
    result = engine.search(queries)
    boards = result.counters.configurations
    assert boards == 8
    reconfig_s, fabric_s = ap_time(result.counters, GEN1)
    model = pipeline_time(
        boards, len(queries), 64, engine.layout.block_length,
        reports_per_partition=0, device=GEN1, policy="async",
    )
    assert reconfig_s + fabric_s == pytest.approx(model.device_busy_s, rel=1e-12)

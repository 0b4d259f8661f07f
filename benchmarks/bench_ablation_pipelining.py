"""Ablation — how much of the paper's AP performance is pipelining?

The paper's AP timing rests on two concurrency assumptions
(Section IV-B): non-blocking API calls (host decodes while the device
works) and overlap of one query's sort phase with the next query's
Hamming phase (steady-state cost ``d`` cycles per query).  This
ablation prices the full Table IV WordEmbed run under three
policies and attributes the gap, then shows the Gen 2 host-decode
bottleneck that motivates Section VI-C's activation reduction.
"""

import pytest

from repro.ap.device import GEN1, GEN2
from repro.perf.models import POLICIES, pipeline_time
from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS


def schedule_all(device):
    w = WORKLOADS["kNN-WordEmbed"]
    parts = LARGE_N // w.board_capacity
    block = 2 * w.d + 4
    out = {}
    for policy in POLICIES:
        out[policy] = pipeline_time(
            parts, N_QUERIES, w.d, block,
            reports_per_partition=w.board_capacity * N_QUERIES,
            device=device, policy=policy,
        )
    return out


def test_pipelining_gen1(benchmark, report):
    res = benchmark.pedantic(schedule_all, args=(GEN1,), rounds=1, iterations=1)
    rows = [
        [p, f"{r.makespan_s:.2f}",
         f"{r.makespan_s / res['query-overlap'].makespan_s:.2f}x",
         f"{r.device_utilization:.2f}"]
        for p, r in res.items()
    ]
    rows.append(["paper Table IV row", "48.10", "1.00x", ""])
    report(
        "Pipelining ablation, Gen 1 kNN-WordEmbed (n=2^20, q=4096)",
        ["Policy", "Makespan (s)", "vs paper model", "Device util"],
        rows,
    )
    assert res["query-overlap"].makespan_s == pytest.approx(48.10, rel=0.01)
    # Gen 1 is reconfiguration-bound: policies differ by < 10 %
    assert res["blocking"].makespan_s / res["query-overlap"].makespan_s < 1.10


def test_pipelining_gen2_host_bottleneck(benchmark, report):
    res = benchmark.pedantic(schedule_all, args=(GEN2,), rounds=1, iterations=1)
    qo = res["query-overlap"]
    w = WORKLOADS["kNN-WordEmbed"]
    parts = LARGE_N // w.board_capacity
    reduced = pipeline_time(
        parts, N_QUERIES, w.d, 2 * w.d + 4,
        reports_per_partition=w.board_capacity * N_QUERIES // 8,
        device=GEN2, policy="query-overlap",
    )
    report(
        "Gen 2: full report stream vs 8x activation reduction (Sec. VI-C)",
        ["Config", "Makespan (s)", "Device busy (s)", "Host busy (s)",
         "Critical path"],
        [["full reports", f"{qo.makespan_s:.2f}",
          f"{qo.device_busy_s:.2f}",
          f"{qo.host_busy_s:.2f}", "host"],
         ["k'/p = 1/8 reduction", f"{reduced.makespan_s:.2f}",
          f"{reduced.device_busy_s:.2f}",
          f"{reduced.host_busy_s:.2f}", "device"]],
    )
    assert qo.host_busy_s > qo.device_busy_s
    assert reduced.host_busy_s < reduced.device_busy_s
    assert reduced.makespan_s < qo.makespan_s

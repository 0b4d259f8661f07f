"""The benchmark's contract in one place: workload names, metric names,
units and regression bounds.

``BENCHMARK.json`` at the repo root states the same contract for the
driver; ``test_bench_e2e.py`` asserts the two agree, so a metric cannot
be added, renamed or re-bounded in one and not the other.
"""

from __future__ import annotations

RUN_SECONDS = 16  # timed section of one pass (BENCHMARK.json run_seconds)

# (name, why) -- the one-line reason each workload exists.
WORKLOADS = [
    (
        "scan_inproc",
        "kNN-SIFT at n=2^20: kernel + top-k select dominate; 1024 partitions "
        "are 16x the default compile cache, so every board recompiles",
    ),
    (
        "router_points",
        "kNN-WordEmbed single-row requests through BatchRouter: admission, "
        "dispatch and decode dominate; 64 partitions exactly fit the cache",
    ),
    (
        "rack_2x2",
        "kNN-TagSpace over a 2-shard x 2-replica loopback rack of spawned "
        "servers: the only path through wire codec, replication and ShardServer",
    ),
    (
        "mixed_store",
        "knn + jaccard + range WorkloadSearch engines over one mmap .pds: "
        "the shared partition/compile/merge layers under their other users",
    ),
]

# (name, unit, better, bound).  The bound is the share of the parent's
# median a metric may worsen by before a change counts as a regression.
# A metric has ONE bound across all workloads, so the noisiest workload
# sets it: router_points' thread hand-offs spread 8-15 % run to run on a
# shared 2-vCPU box, where the other three stay within 2-7 % (README.md
# has the table).  0.25 is also the largest bound the driver accepts.
END_TO_END = [
    ("queries_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

WORKLOAD_KINDS = ("knn", "jaccard", "range")  # mixed_store's three engines
PARALLEL_BACKENDS = ("serial", "thread", "process", "pinned")
TRACE_LAYERS = (
    "engine", "compiler", "functional", "topk", "batching",
    "rpc", "replication", "dataset", "workload",
)

# (name, unit, better).  Reported by ``--trace 1``; a workload whose
# request path does not cross a layer reports that layer's metrics as 0.
PER_LAYER = [
    ("host.probe_ms", "ms", "lower"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("bitops.cdist_gbps", "GB/s", "higher"),
    ("bitops.cdist_roofline_frac", "ratio", "higher"),
    ("bitops.pack_bits_gbps", "GB/s", "higher"),
    ("functional.query_topk_us", "us", "lower"),
    ("functional.select_share", "ratio", "lower"),
    ("compiler.cache_hit_ratio", "ratio", "higher"),
    ("compiler.cache_evictions_per_search", "count", "lower"),
    ("compiler.build_board_us", "us", "lower"),
    ("engine.search_ms", "ms", "lower"),
    ("engine.partitions_per_search", "count", "lower"),
    ("engine.decode_us", "us", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("topk.merge_blocks_ms", "ms", "lower"),
    ("topk.merge_ragged_ms", "ms", "lower"),
    ("batching.coalescing_ratio", "ratio", "higher"),
    ("batching.batch_rows_mean", "rows", "higher"),
    ("batching.wait_ms_p50", "ms", "lower"),
    ("batching.latency_p95_ms", "ms", "lower"),
    ("rpc.wire_bytes_per_query", "B", "lower"),
    ("rpc.codec_us_per_request", "us", "lower"),
    ("rpc.shard_roundtrip_ms_p50", "ms", "lower"),
    ("rpc.overhead_ms", "ms", "lower"),
    ("rpc.fanout_merge_ms", "ms", "lower"),
    ("rpc.latency_p95_ms", "ms", "lower"),
    ("replication.overhead_us", "us", "lower"),
    ("replication.failovers", "count", "lower"),
    ("replication.hedges", "count", "lower"),
    ("replication.replica_share_max", "ratio", "lower"),
    ("dataset.write_pds_mbps", "MB/s", "higher"),
    ("dataset.open_ms", "ms", "lower"),
    ("dataset.rows_gbps.array", "GB/s", "higher"),
    ("dataset.rows_gbps.mmap", "GB/s", "higher"),
    ("dataset.digest_mbps", "MB/s", "higher"),
    ("dataset.stored_bytes_per_bit", "B/bit", "lower"),
    *[(f"workload.search_ms.{w}", "ms", "lower") for w in WORKLOAD_KINDS],
    *[(f"workload.execute_us.{w}", "us", "lower") for w in WORKLOAD_KINDS],
    *[(f"workload.merge_ms.{w}", "ms", "lower") for w in WORKLOAD_KINDS],
    *[(f"parallel.run_ms.{b}", "ms", "lower") for b in PARALLEL_BACKENDS],
    *[(f"parallel.dispatch_us.{b}", "us", "lower") for b in PARALLEL_BACKENDS],
    *[(f"parallel.speedup.{b}", "ratio", "higher") for b in PARALLEL_BACKENDS],
    *[(f"trace.self_share.{layer}", "ratio", "lower") for layer in TRACE_LAYERS],
    ("trace.kernel_self_share", "ratio", "lower"),
    ("trace.closure", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
END_TO_END_BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
END_TO_END_BETTER = {name: better for name, _, better, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

"""Per-layer metrics: what the spans say, what the public stats objects
count, and small timed calls into single layers at the workload's own
geometry.

Counts (cache hits, evictions, partitions, wire bytes, failovers) are
read from the stack's public stats and repeat exactly; times are
medians.  Each function returns ``{metric name: value}`` for the layers
it covers; ``cli`` fills every metric a workload did not report with 0
("this request path does not cross that layer").
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from repro.ap.compiler import BoardImageCache, partition_cache_key
from repro.core.dataset import PackedDataset, read_pds_header, write_pds
from repro.core.engine import build_functional_board
from repro.host.parallel import ParallelConfig, PartitionTask, run_partitions
from repro.host.replication import HedgePolicy, ReplicaGroup
from repro.host.rpc import (
    RemoteShard,
    pack_array,
    pack_search_response,
    unpack_array,
    unpack_search_response,
)
from repro.util.bitops import hamming_cdist_packed, pack_bits

from . import host, spec
from .protocol import percentile
from .tracing import Tracer, self_times


def _median_s(fn, *args, budget_s: float, min_reps: int = 5) -> float:
    """Median seconds of ``fn(*args)``: at least ``min_reps`` calls, more
    while ``budget_s`` lasts (``--quick`` passes a small budget)."""
    times = []
    begin = time.perf_counter()
    while len(times) < min_reps or (
        time.perf_counter() - begin < budget_s and len(times) < 200
    ):
        times.append(host.timed(fn, *args)[0])
    return statistics.median(times)


def _span_median(tracer: Tracer, name: str, scale: float) -> float:
    durations = [s.duration for s in tracer.spans if s.name == name]
    return statistics.median(durations) * scale if durations else 0.0


def _kind_medians(result) -> dict[str, float]:
    """Median request seconds per search kind of a timed pass."""
    by_kind = defaultdict(list)
    for trial in result.trials:
        for kind, lat in zip(trial.kinds, trial.latencies_s):
            by_kind[kind].append(lat)
    return {kind: statistics.median(v) for kind, v in by_kind.items()}


# -- the trace ---------------------------------------------------------------


def trace_metrics(tracer: Tracer, ref, traced) -> dict:
    """Self-time shares per layer, closure against the untraced pass,
    tracing overhead, and the machine-speed context."""
    spans = tracer.spans
    selfs = self_times(spans)
    roots = [s for s in spans if s.name == "request"]
    request_wall = sum(r.duration for r in roots)
    by_layer = defaultdict(float)
    for s in spans:
        if s.name != "request":
            by_layer[s.layer] += selfs[s.id]
    out = {
        f"trace.self_share.{layer}": by_layer[layer] / request_wall
        for layer in spec.TRACE_LAYERS
    }
    kernel = sum(
        selfs[s.id] for s in spans
        if s.name == "functional.query_topk" or s.name.startswith("workload.execute")
    )
    out["trace.kernel_self_share"] = kernel / request_wall
    # Closure: time the traced requests spent inside layer spans (their
    # wall minus the harness glue that is the root's own self time), over
    # what the same requests cost untraced.
    in_layers = sum(r.duration - selfs[r.id] for r in roots)
    ref_median = _kind_medians(ref)
    untraced_cost = sum(
        ref_median[kind] for trial in traced.trials for kind in trial.kinds
    )
    out["trace.closure"] = in_layers / untraced_cost
    out["trace.overhead_frac"] = 1.0 - traced.queries_per_s / ref.queries_per_s
    out["host.probe_ms"] = statistics.median(
        ref.probe.samples_ms + traced.probe.samples_ms
    )
    out["host.memcpy_gbps"] = host.memcpy_gbps()
    return out


# -- kernel, compile, engine -------------------------------------------------


def kernel_metrics(board, partition_rows: np.ndarray, queries: np.ndarray, k: int,
                   memcpy_gbps: float, budget_s: float) -> dict:
    """The packed-Hamming kernel and top-k select on one board partition
    (``board`` is the ``FunctionalKnnBoard`` compiled from the rows),
    placed against the host's measured copy bandwidth."""
    packed_data = pack_bits(partition_rows)
    packed_q = pack_bits(queries)
    t_cdist = _median_s(hamming_cdist_packed, packed_q, packed_data, budget_s=budget_s)
    t_topk = _median_s(board.query_topk, queries, k, budget_s=budget_s)
    t_pack = _median_s(pack_bits, partition_rows, budget_s=budget_s)
    # bytes the XOR reads: every dataset word once per query row
    cdist_gbps = queries.shape[0] * packed_data.nbytes / t_cdist / 1e9
    return {
        "bitops.cdist_gbps": cdist_gbps,
        "bitops.cdist_roofline_frac": cdist_gbps / memcpy_gbps,
        "bitops.pack_bits_gbps": partition_rows.nbytes / t_pack / 1e9,
        "functional.select_share": 1.0 - t_cdist / t_topk,
    }


def cache_metrics(engines, searches) -> dict:
    """Exact compile-cache behaviour of warm engines: run ``searches``
    (one callable per engine) once more and read the stats deltas."""
    before = [(e.cache.stats.hits, e.cache.stats.misses, e.cache.stats.evictions)
              for e in engines]
    for search in searches:
        search()
    hits = misses = evictions = 0
    for engine, (h0, m0, e0) in zip(engines, before):
        stats = engine.cache.stats
        hits += stats.hits - h0
        misses += stats.misses - m0
        evictions += stats.evictions - e0
    return {
        "compiler.cache_hit_ratio": hits / (hits + misses),
        "compiler.cache_evictions_per_search": evictions / len(engines),
    }


def knn_engine_metrics(tracer: Tracer, engine, queries: np.ndarray,
                       memcpy_gbps: float, budget_s: float) -> dict:
    """``APSimilaritySearch`` at ``queries.shape[0]`` rows: real search
    wall, exact partition and cache counts, and the replay's spans."""
    search_s = _median_s(engine.search, queries, budget_s=budget_s, min_reps=3)
    child_sums = defaultdict(float)  # engine.search span id -> children's time
    search_ids = {s.id for s in tracer.spans if s.name == "engine.search"}
    for s in tracer.spans:
        if s.parent in search_ids:
            child_sums[s.parent] += s.duration
    start, end = engine.partitions[0]
    out = {
        "engine.search_ms": search_s * 1e3,
        "engine.partitions_per_search": len(engine.partitions),
        "engine.decode_us": _span_median(tracer, "engine.decode", 1e6),
        "engine.self_share": 1.0 - statistics.median(child_sums.values()) / search_s,
        "functional.query_topk_us": _span_median(tracer, "functional.query_topk", 1e6),
        "compiler.build_board_us": _span_median(tracer, "compiler.build_board", 1e6),
        "topk.merge_blocks_ms": _span_median(tracer, "topk.merge", 1e3),
    }
    out.update(cache_metrics([engine], [lambda: engine.search(queries)]))
    rows = engine.dataset.rows(start, end)
    out.update(kernel_metrics(build_functional_board(rows, engine.layout), rows,
                              queries, engine.k, memcpy_gbps, budget_s))
    return out


# -- batching ----------------------------------------------------------------


def batching_metrics(stats, ref, engine_search_ms: float) -> dict:
    """``stats`` is the router's public ``BatchRouterStats``;
    ``engine_search_ms`` a direct search at the mean coalesced batch."""
    return {
        "batching.coalescing_ratio": stats.coalescing_ratio,
        "batching.batch_rows_mean": stats.rows / stats.batches,
        "batching.wait_ms_p50": ref.latency_p50_ms - engine_search_ms,
        "batching.latency_p95_ms": percentile(ref.latencies_s, 0.95) * 1e3,
    }


# -- worker pools ------------------------------------------------------------


def parallel_metrics(engine, queries: np.ndarray, budget_s: float) -> dict:
    """``run_partitions`` over the engine's partitions, per backend, with
    ``min(nproc, 2)`` workers on a persistent pool (spawn cost excluded).

    The end-to-end workloads all run serial; this table is where worker
    pools are judged (ROADMAP item 3).  A backend whose pool cannot be
    created here reports 0."""
    tasks = [
        PartitionTask(
            p_idx=p_idx, start=start, end=end,
            dataset_bits=engine.dataset.rows(start, end),
            mode="functional", d=engine.d,
            collector_depth=engine.layout.collector_depth,
            max_fan_in=engine.macro_config.max_fan_in,
            counter_max_increment=engine.macro_config.counter_max_increment,
            device=engine.device, k=engine.k,
            cache_key=partition_cache_key(
                None, engine.macro_config, engine.device, extra=("functional",),
                digest=engine.dataset.partition_digest(start, end),
            ),
        )
        for p_idx, (start, end) in enumerate(engine.partitions)
    ]
    cache = BoardImageCache()  # warmed by each backend's first run, as in service
    workers = min(host.nproc(), 2)
    out = {}
    serial_s = None
    for backend in spec.PARALLEL_BACKENDS:
        run_s = dispatch_s = 0.0
        config = ParallelConfig(
            n_workers=workers, backend=backend, persistent=True,
            fallback_serial=False,
        )
        try:
            run_partitions(tasks, queries, config, cache)  # spawns + warms the pool
            reports = []

            def run():
                reports.append(run_partitions(tasks, queries, config, cache))

            run_s = _median_s(run, budget_s=budget_s)
            dispatch = [r.dispatch_overhead_s for r in reports
                        if r.dispatch_overhead_s is not None]
            dispatch_s = statistics.median(dispatch) if dispatch else 0.0
        except (OSError, RuntimeError, ImportError):
            pass  # no pool on this platform: the row stays 0
        finally:
            config.close()
        if backend == "serial":
            serial_s = run_s
        out[f"parallel.run_ms.{backend}"] = run_s * 1e3
        out[f"parallel.dispatch_us.{backend}"] = dispatch_s * 1e6
        out[f"parallel.speedup.{backend}"] = serial_s / run_s if run_s else 0.0
    return out


# -- dataset stores ----------------------------------------------------------


def _scan_rows(handle: PackedDataset, chunk: int, sink: np.ndarray) -> None:
    for lo in range(0, handle.n, chunk):
        hi = min(lo + chunk, handle.n)
        np.copyto(sink[: hi - lo], handle.rows(lo, hi))
        handle.release(lo, hi)


def dataset_metrics(data: np.ndarray, workdir, budget_s: float) -> dict:
    """Pack, attach, scan and digest one dataset through the public
    ``.pds`` functions.  Each timed attach uses a fresh file so the
    process-wide attach cache and digest memo are cold."""
    n, d = data.shape
    chunk = 1024
    sink = np.empty((chunk, d), dtype=np.uint8)
    paths = [workdir / f"layer_{i}.pds" for i in range(3)]
    try:
        write_s = statistics.median(host.timed(write_pds, p, data)[0] for p in paths)
        open_s, handle = host.timed(PackedDataset.open, paths[0])
        mmap_s = _median_s(_scan_rows, handle, chunk, sink, budget_s=budget_s, min_reps=3)
        array = PackedDataset.ensure(data, validate=False)
        array_s = _median_s(_scan_rows, array, chunk, sink, budget_s=budget_s, min_reps=3)
        # partition digests of a fresh attach: nothing memoized yet
        fresh = PackedDataset.open(paths[1])
        digest_s, _ = host.timed(
            lambda: [fresh.partition_digest(lo, min(lo + chunk, n))
                     for lo in range(0, n, chunk)]
        )
        stored = read_pds_header(paths[0]).payload_nbytes
    finally:
        for p in paths:
            p.unlink(missing_ok=True)
    return {
        "dataset.write_pds_mbps": data.nbytes / write_s / 1e6,
        "dataset.open_ms": open_s * 1e3,
        "dataset.rows_gbps.array": data.nbytes / array_s / 1e9,
        "dataset.rows_gbps.mmap": data.nbytes / mmap_s / 1e9,
        "dataset.digest_mbps": data.nbytes / digest_s / 1e6,
        "dataset.stored_bytes_per_bit": stored / (n * d),
    }


# -- workload engines --------------------------------------------------------


def workload_metrics(tracer: Tracer, engines: dict, ref, queries: np.ndarray) -> dict:
    """The three ``WorkloadSearch`` engines of ``mixed_store``."""
    search_s = _kind_medians(ref)
    out = {}
    for kind in spec.WORKLOAD_KINDS:
        out[f"workload.search_ms.{kind}"] = search_s[kind] * 1e3
        out[f"workload.execute_us.{kind}"] = _span_median(
            tracer, f"workload.execute.{kind}", 1e6)
        out[f"workload.merge_ms.{kind}"] = _span_median(
            tracer, f"workload.merge.{kind}", 1e3)
    out["topk.merge_blocks_ms"] = out["workload.merge_ms.knn"]
    out["topk.merge_ragged_ms"] = out["workload.merge_ms.range"]
    out["compiler.build_board_us"] = statistics.median(
        s.duration for s in tracer.spans if s.name.startswith("workload.compile")
    ) * 1e6
    ordered = [engines[kind] for kind in spec.WORKLOAD_KINDS]
    out.update(cache_metrics(ordered, [lambda e=e: e.search(queries) for e in ordered]))
    out["engine.partitions_per_search"] = len(ordered[0].partitions)
    return out


# -- wire and replication ----------------------------------------------------


def rack_metrics(tracer: Tracer, rack, ref, queries: np.ndarray, budget_s: float) -> dict:
    """The wire, the codec and the replica group, each against the next
    layer in: replica group vs bare shard client, shard client vs an
    in-process engine over the same shard rows.  ``rack`` is the live
    ``Rack2x2`` workload."""
    pool = rack.client.pool
    sent0, received0 = pool.wire_bytes
    reps = 5
    for _ in range(reps):
        rack.client.search(queries)
    sent1, received1 = pool.wire_bytes
    wire_per_query = (sent1 - sent0 + received1 - received0) / (reps * queries.shape[0])

    # Shard 0 over the wire and in process, interleaved so machine drift
    # hits both alike.
    primary = rack.addresses[0]
    local = rack.local_engine(shard=0)
    with RemoteShard(primary) as shard, ReplicaGroup(
        pool.shards[0].address, hedge=HedgePolicy(enabled=False)
    ) as group:
        shard_s, local_s = [], []
        for _ in range(3 if rack.quick else 15):
            shard_s.append(host.timed(shard.search, queries, rack.k)[0])
            local_s.append(host.timed(local.search, queries)[0])
        roundtrip_s, local_s = statistics.median(shard_s), statistics.median(local_s)
        # The group's own cost per request (replica ranking, health
        # bookkeeping) is microseconds; against a 20 ms search it drowns
        # in noise, so it is timed on the cheapest round trip there is.
        group_overhead_s = _median_s(group.ping, budget_s=budget_s, min_reps=50) - (
            _median_s(shard.ping, budget_s=budget_s, min_reps=50))

    result = local.search(queries)

    def codec():
        unpack_array(pack_array(queries))
        unpack_search_response(pack_search_response(result))

    shares = [
        max(r["successes"] for r in replicas) / max(1, sum(r["successes"] for r in replicas))
        for replicas in pool.health_snapshot().values()
    ]
    return {
        "rpc.wire_bytes_per_query": wire_per_query,
        "rpc.codec_us_per_request": _median_s(codec, budget_s=budget_s) * 1e6,
        "rpc.shard_roundtrip_ms_p50": roundtrip_s * 1e3,
        "rpc.overhead_ms": (roundtrip_s - local_s) * 1e3,
        "rpc.fanout_merge_ms": _span_median(tracer, "rpc.fanout_merge", 1e3),
        "rpc.latency_p95_ms": percentile(ref.latencies_s, 0.95) * 1e3,
        "replication.overhead_us": group_overhead_s * 1e6,
        "replication.failovers": sum(g.failovers for g in pool.shards),
        "replication.hedges": sum(g.hedges for g in pool.shards),
        "replication.replica_share_max": max(shares),
    }

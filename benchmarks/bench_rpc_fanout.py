"""RPC shard fan-out: latency and wire traffic vs shard count.

``repro.host.rpc`` turns the local multi-board merge into a
rack-scale one: N :class:`~repro.host.rpc.ShardServer` instances each
own a balanced dataset shard, a :class:`~repro.host.rpc.
RemoteShardPool` fans every query batch out to all of them
concurrently, and one offset-aware merge makes the answer bit-identical
to a single local engine over the concatenated dataset.  This
benchmark measures what the network layer costs:

* **fan-out sweep** — for each shard count S, spin S servers (loopback
  TCP, one per balanced shard), run warm query batches through a
  :class:`~repro.host.rpc.RemoteWorkloadSearch` (``"knn"``), and record warm
  latency, the per-batch wire traffic (requests out, replies back —
  deterministic for a fixed workload), and bit-identity against the
  local reference engine.  ``rpc_overhead`` is warm remote latency
  over warm local latency: the price of crossing loopback TCP, which
  shrinks toward (and below) 1.0 as shards add real parallelism on
  multi-core hosts and the per-shard work drops.
* **batched front door** — the PR 4 admission layer composed in front
  of the rack (``RemoteWorkloadSearch.batched()``): many concurrent
  single-query callers coalescing into merged fan-outs, verified
  bit-identical to the direct batch.

Results land in ``BENCH_rpc.json``; CI runs ``--quick`` and gates the
deterministic metrics (bit-identity, wire bytes) through
``benchmarks/check_regression.py``.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _workload(n, d, n_queries, seed=2017):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (n_queries, d), dtype=np.uint8)
    return data, queries


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_fanout_sweep(n, d, q, k, cap, shard_counts, warm_rounds=3):
    """Latency/wire-bytes rows for S in ``shard_counts`` (S servers)."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.rpc import RemoteWorkloadSearch, serve_shard

    data, queries = _workload(n, d, q)
    local = APSimilaritySearch(
        data, k=k, board_capacity=cap, execution="functional", cache=True
    )
    local.search(queries)  # warm the local compile cache
    t_local = min(_time(lambda: local.search(queries))
                  for _ in range(warm_rounds))
    ref = local.search(queries)

    rows = []
    for n_shards in shard_counts:
        servers = [
            serve_shard(
                data, i, n_shards, board_capacity=cap,
                execution="functional", cache=True,
            ).start()
            for i in range(n_shards)
        ]
        addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
        try:
            with RemoteWorkloadSearch(addresses, "knn", {"k": k}) as remote:
                t_cold = _time(lambda: remote.search(queries))
                times, last = [], None
                sent0, recv0 = remote.pool.wire_bytes
                for _ in range(warm_rounds):
                    t0 = time.perf_counter()
                    last = remote.search(queries)
                    times.append(time.perf_counter() - t0)
                sent1, recv1 = remote.pool.wire_bytes
                t_warm = min(times)
                rows.append({
                    "n": n, "d": d, "q": q, "k": k, "cap": cap,
                    "shards": n_shards,
                    "t_local_warm_s": t_local,
                    "t_cold_s": t_cold,
                    "t_warm_s": t_warm,
                    "rpc_overhead": t_warm / max(t_local, 1e-12),
                    "wire_bytes_out_per_batch": (sent1 - sent0) // warm_rounds,
                    "wire_bytes_back_per_batch": (recv1 - recv0) // warm_rounds,
                    "partial": last.partial,
                    "identical": bool(
                        (last.indices == ref.indices).all()
                        and (last.distances == ref.distances).all()
                    ),
                })
        finally:
            for s in servers:
                s.close()
    return rows


def run_batched_front_door(n, d, q, k, cap, n_shards=2):
    """BatchRouter admission in front of the rack: concurrent callers
    coalesce into merged fan-outs, bit-identical to the direct batch."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.rpc import RemoteWorkloadSearch, serve_shard

    data, queries = _workload(n, d, q, seed=11)
    ref = APSimilaritySearch(
        data, k=k, board_capacity=cap, execution="functional"
    ).search(queries)
    servers = [
        serve_shard(data, i, n_shards, board_capacity=cap,
                    execution="functional").start()
        for i in range(n_shards)
    ]
    addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
    try:
        with RemoteWorkloadSearch(addresses, "knn", {"k": k}) as remote:
            with remote.batched(max_batch=q, max_wait_ms=5.0) as router:
                with ThreadPoolExecutor(max_workers=min(16, q)) as pool:
                    outs = list(pool.map(
                        lambda qi: router.search(queries[qi]), range(q)
                    ))
            stats = router.stats
            identical = all(
                (o.indices[0] == ref.indices[qi]).all()
                and (o.distances[0] == ref.distances[qi]).all()
                for qi, o in enumerate(outs)
            )
            return {
                "callers": stats.calls,
                "fanouts": stats.batches,
                "coalescing_ratio": stats.coalescing_ratio,
                "identical": bool(identical),
            }
    finally:
        for s in servers:
            s.close()


def run_all(quick=False):
    if quick:
        sweep = run_fanout_sweep(
            n=1 << 11, d=64, q=16, k=10, cap=256,
            shard_counts=(1, 2), warm_rounds=2,
        )
        batched = run_batched_front_door(n=1 << 10, d=64, q=12, k=5, cap=256)
    else:
        sweep = run_fanout_sweep(
            n=1 << 15, d=128, q=128, k=10, cap=1 << 12,
            shard_counts=(1, 2, 4, 8),
        )
        batched = run_batched_front_door(
            n=1 << 13, d=128, q=64, k=10, cap=1 << 11, n_shards=4
        )
    return {
        "fanout_sweep": sweep,
        "batched_front_door": batched,
        "quick": quick,
        "cores": _available_cores(),
    }


# -- pytest harness -------------------------------------------------------


def test_rpc_fanout_smoke(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    report(
        "RPC shard fan-out (quick sizes, loopback TCP)",
        ["Shards", "t_warm (s)", "Overhead vs local", "Wire out/back (B)",
         "Bit-identical"],
        [
            [r["shards"], f"{r['t_warm_s']:.4f}", f"{r['rpc_overhead']:.2f}x",
             f"{r['wire_bytes_out_per_batch']}/"
             f"{r['wire_bytes_back_per_batch']}", r["identical"]]
            for r in results["fanout_sweep"]
        ],
    )
    assert all(r["identical"] for r in results["fanout_sweep"])
    assert not any(r["partial"] for r in results["fanout_sweep"])
    assert results["batched_front_door"]["identical"]


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_rpc.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    print("== RPC shard fan-out: latency vs shard count (loopback TCP) ==")
    print(f"{'shards':>7} {'t_local_s':>10} {'t_warm_s':>9} {'overhead':>9} "
          f"{'wire_out_B':>11} {'wire_back_B':>12} {'identical':>10}")
    for r in results["fanout_sweep"]:
        print(f"{r['shards']:>7} {r['t_local_warm_s']:>10.4f} "
              f"{r['t_warm_s']:>9.4f} {r['rpc_overhead']:>8.2f}x "
              f"{r['wire_bytes_out_per_batch']:>11} "
              f"{r['wire_bytes_back_per_batch']:>12} {r['identical']!s:>10}")
    b = results["batched_front_door"]
    print(f"# batched front door: {b['callers']} callers -> {b['fanouts']} "
          f"fan-out(s), coalescing {b['coalescing_ratio']:.1f}x, "
          f"identical={b['identical']}")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    if not all(r["identical"] for r in results["fanout_sweep"]):
        raise SystemExit("FAIL: remote fan-out diverges from the local engine")
    if any(r["partial"] for r in results["fanout_sweep"]):
        raise SystemExit("FAIL: loopback shards reported partial results")
    if not b["identical"]:
        raise SystemExit("FAIL: batched front door diverges from direct batch")
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

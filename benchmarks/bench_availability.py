"""Availability under injected faults: replica failover and hedged reads.

PR 9 wraps every shard slot of the remote fan-out in a
:class:`~repro.host.replication.ReplicaGroup`: health-tracked primary
selection, automatic failover, and hedged reads.  This benchmark
measures the two headline claims with real processes and the
deterministic fault harness (:mod:`repro.host.faults`):

* **kill failover** — a 2-replica group serves a stream of query
  batches while one replica (a real server *process*) is SIGKILLed
  mid-stream.  Every batch must come back complete (never flagged
  partial) and bit-identical to the local reference engine: replica
  death is absorbed inside the group, not surfaced as degradation.
* **hedged tail latency** — a chaos proxy delays every 4th reply by a
  fixed amount (intermittent slowness, the pattern EWMA routing alone
  cannot dodge).  Baseline: a single-replica group behind the proxy —
  its p99 eats the injected delay.  Treatment: a 2-replica group with
  hedging — a speculative duplicate on the healthy replica wins the
  slow requests.  ``p99_cut`` is baseline p99 over hedged p99; the
  gate requires >= 2x.

Results land in ``BENCH_availability.json``.  Every gate is absolute
(never partial, bit-identical, a failover and a hedge recorded, p99
cut >= 2x), so the script needs no baseline: CI runs ``--quick`` and a
false invariant exits non-zero.
"""

import json
import multiprocessing
import os
import signal
import time


def _workload(n, d, n_queries, seed=2017):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (n_queries, d), dtype=np.uint8)
    return data, queries


def _serve_replica_proc(data, address_queue):
    """Child-process entry: serve the full dataset as one shard."""
    from repro.host.rpc import ShardServer

    server = ShardServer(data)
    server.start()
    address_queue.put("{}:{}".format(*server.address))
    server._thread.join()


def _percentile(samples, q):
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[idx]


def run_kill_failover(n, d, q, k, batches, kill_at):
    """SIGKILL one replica of a 2-replica group mid-stream; every batch
    must stay complete and bit-identical."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.replication import HedgePolicy
    from repro.host.rpc import RemoteShardPool

    data, queries = _workload(n, d, q)
    ref = APSimilaritySearch(data, k=k).search(queries)

    ctx = multiprocessing.get_context()
    address_queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_serve_replica_proc, args=(data, address_queue),
            daemon=True,
        )
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    killed = False
    try:
        addresses = [address_queue.get(timeout=60) for _ in range(2)]
        spec = "|".join(addresses)
        with RemoteShardPool(
            [spec], connect_timeout_s=2.0, retries=0,
            hedge=HedgePolicy(fixed_delay_s=5.0),  # isolate pure failover
        ) as pool:
            partials, identical, failovers = [], [], 0
            for b in range(batches):
                if b == kill_at:
                    # kill whichever replica is the tracked primary
                    snap = pool.health_snapshot()[spec]
                    primary = max(snap, key=lambda r: r["successes"])
                    victim = procs[addresses.index(primary["address"])]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=30)
                    killed = True
                res = pool.search(queries, k=k)
                partials.append(bool(res.partial))
                identical.append(bool(
                    (res.indices == ref.indices).all()
                    and (res.distances == ref.distances).all()
                ))
                failovers += res.failovers
        return {
            "batches": batches,
            "kill_at_batch": kill_at,
            "never_partial": not any(partials),
            "all_identical": all(identical),
            "failover_absorbed": killed and failovers >= 1,
            "failovers": failovers,
        }
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=30)


def run_hedged_tail(n, d, q, k, requests, delay_s, every):
    """p99 of an intermittently-slow replica, unhedged vs hedged."""
    from repro.host.faults import ChaosProxy, FaultSpec
    from repro.host.replication import HedgePolicy, ReplicaGroup
    from repro.host.rpc import ShardServer

    data, queries = _workload(n, d, q, seed=11)
    slow = ShardServer(data).start()
    healthy = ShardServer(data).start()
    slow_addr = "{}:{}".format(*slow.address)
    healthy_addr = "{}:{}".format(*healthy.address)
    fault = FaultSpec("delay", delay_s=delay_s, every=every)

    def stream(group, proxy):
        proxy.set_fault(fault)
        latencies = []
        with group:
            group.search(queries, k=k)  # connect/compile warmup
            for _ in range(requests):
                t0 = time.perf_counter()
                res = group.search(queries, k=k)
                latencies.append(time.perf_counter() - t0)
                assert res[0].shape == (q, k)
        return latencies, group.hedges

    try:
        # Baseline: a group of ONE — nowhere to hedge, p99 eats the delay
        with ChaosProxy(slow_addr) as proxy:
            unhedged, _ = stream(
                ReplicaGroup(proxy.address, retries=0), proxy
            )
        # Treatment: the same slow replica plus a healthy one, hedged
        with ChaosProxy(slow_addr) as proxy:
            hedged, hedges = stream(
                ReplicaGroup(
                    f"{proxy.address}|{healthy_addr}", retries=0,
                    hedge=HedgePolicy(fixed_delay_s=max(0.002, delay_s / 10)),
                ),
                proxy,
            )
    finally:
        slow.close()
        healthy.close()

    p99_unhedged = _percentile(unhedged, 0.99)
    p99_hedged = _percentile(hedged, 0.99)
    return {
        "requests": requests,
        "injected_delay_s": delay_s,
        "every": every,
        "p99_unhedged_s": p99_unhedged,
        "p99_hedged_s": p99_hedged,
        "p50_unhedged_s": _percentile(unhedged, 0.50),
        "p50_hedged_s": _percentile(hedged, 0.50),
        "p99_cut": p99_unhedged / max(p99_hedged, 1e-12),
        "hedges_fired": int(hedges),
    }


def run_all(quick=False):
    if quick:
        kill = run_kill_failover(
            n=1 << 10, d=32, q=8, k=5, batches=10, kill_at=4
        )
        tail = run_hedged_tail(
            n=1 << 10, d=32, q=8, k=5, requests=24, delay_s=0.2, every=4
        )
    else:
        kill = run_kill_failover(
            n=1 << 13, d=64, q=32, k=10, batches=40, kill_at=15
        )
        tail = run_hedged_tail(
            n=1 << 12, d=64, q=16, k=10, requests=120, delay_s=0.25, every=4
        )
    return {"kill_failover": kill, "hedged_tail": tail, "quick": quick}


# -- pytest harness -------------------------------------------------------


def test_availability_smoke(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    kill, tail = results["kill_failover"], results["hedged_tail"]
    report(
        "Availability under faults (quick sizes)",
        ["Scenario", "Result"],
        [
            ["kill failover", f"{kill['batches']} batches, "
             f"never_partial={kill['never_partial']}, "
             f"identical={kill['all_identical']}, "
             f"failovers={kill['failovers']}"],
            ["hedged tail", f"p99 {tail['p99_unhedged_s'] * 1e3:.1f}ms -> "
             f"{tail['p99_hedged_s'] * 1e3:.1f}ms "
             f"({tail['p99_cut']:.1f}x cut, {tail['hedges_fired']} hedges)"],
        ],
    )
    assert kill["never_partial"], "replica death surfaced as partial"
    assert kill["all_identical"], "failover diverged from local engine"
    assert kill["failover_absorbed"]
    assert tail["hedges_fired"] >= 1
    assert tail["p99_cut"] >= 2.0, (
        f"hedging cut p99 only {tail['p99_cut']:.2f}x (need >= 2x)"
    )


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_availability.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    kill, tail = results["kill_failover"], results["hedged_tail"]

    print("== kill failover: SIGKILL one replica of a 2-replica group ==")
    print(f"  {kill['batches']} batches, kill at batch "
          f"{kill['kill_at_batch']}: never_partial={kill['never_partial']} "
          f"all_identical={kill['all_identical']} "
          f"failovers={kill['failovers']}")
    print("== hedged tail: every "
          f"{tail['every']}th reply +{tail['injected_delay_s'] * 1e3:.0f}ms ==")
    print(f"  p50 {tail['p50_unhedged_s'] * 1e3:8.2f}ms -> "
          f"{tail['p50_hedged_s'] * 1e3:8.2f}ms")
    print(f"  p99 {tail['p99_unhedged_s'] * 1e3:8.2f}ms -> "
          f"{tail['p99_hedged_s'] * 1e3:8.2f}ms "
          f"({tail['p99_cut']:.1f}x cut, {tail['hedges_fired']} hedge(s))")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    if not (kill["never_partial"] and kill["all_identical"]):
        raise SystemExit("FAIL: replica death leaked into results")
    if not kill["failover_absorbed"]:
        raise SystemExit("FAIL: no failover recorded around the kill")
    if tail["hedges_fired"] < 1:
        raise SystemExit("FAIL: no hedged read fired against the slow replica")
    if tail["p99_cut"] < 2.0:
        raise SystemExit(
            f"FAIL: hedging cut p99 only {tail['p99_cut']:.2f}x (need >= 2x)"
        )
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

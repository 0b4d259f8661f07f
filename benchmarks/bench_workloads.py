"""Workload stack: parallel speedup and wire traffic per registered workload.

PR 6 extracted the kNN-specific compile→partition→execute→merge
pipeline into :mod:`repro.core.workload`: a registry of
:class:`~repro.core.workload.Workload` implementations that all ride
the same host stack (thread/process pools, shared-memory datasets,
batching, remote shards).  This benchmark proves the "for free" claim is not
just a parity statement but a perf one, per built-in workload:

* **parallel sweep** — for each registered workload (kNN, Jaccard
  top-k, Hamming range), time a warm serial
  :class:`~repro.core.workload.WorkloadSearch` against a warm
  thread-parallel one over identical partitions and record the
  speedup plus bit-identity of every wire field;
* **remote wire** — fan each workload out across a 2-shard loopback
  rack through :class:`~repro.host.rpc.RemoteWorkloadSearch` and
  record the deterministic per-batch wire bytes (request out, reply
  back) and bit-identity against the local engine.

Results land in ``BENCH_workloads.json``; CI runs ``--quick`` and
gates bit-identity, the minimum parallel speedup (wide band: timing),
and the wire byte counts (tight band: deterministic) through
``benchmarks/check_regression.py``.
"""

import json
import os
import time


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


WORKLOADS = [
    ("knn", {"k": 10}),
    ("jaccard", {"k": 10}),
    ("range", {"radius": 24}),
]


def _dataset(n, d, n_queries, seed=2017):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = (rng.random((n, d)) < 0.4).astype(np.uint8)
    queries = (rng.random((n_queries, d)) < 0.4).astype(np.uint8)
    return data, queries


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _values_identical(workload, a, b) -> bool:
    import numpy as np

    return all(
        np.asarray(getattr(a, f)).shape == np.asarray(getattr(b, f)).shape
        and (np.asarray(getattr(a, f)) == np.asarray(getattr(b, f))).all()
        for f in workload.wire_fields
    )


def run_parallel_sweep(n, d, q, cap, n_workers, warm_rounds=3):
    """Serial vs thread-parallel WorkloadSearch, per registered workload."""
    from repro.core.workload import WorkloadSearch, get_workload
    from repro.host.parallel import ParallelConfig

    data, queries = _dataset(n, d, q)
    rows = []
    for name, params in WORKLOADS:
        workload = get_workload(name)
        serial = WorkloadSearch(
            data, name, params, board_capacity=cap, cache=True
        )
        par = WorkloadSearch(
            data, name, params, board_capacity=cap, cache=True,
            parallel=ParallelConfig(
                n_workers=n_workers, backend="thread", persistent=True
            ),
        )
        try:
            ref = serial.search(queries)  # also warms the shared-shape cache
            t_serial = min(_time(lambda: serial.search(queries))
                           for _ in range(warm_rounds))
            got = par.search(queries)
            t_parallel = min(_time(lambda: par.search(queries))
                             for _ in range(warm_rounds))
            rows.append({
                "workload": name, "params": params,
                "n": n, "d": d, "q": q, "cap": cap,
                "n_partitions": ref.n_partitions,
                "n_workers": got.n_workers,
                "t_serial_s": t_serial,
                "t_parallel_s": t_parallel,
                "speedup": t_serial / max(t_parallel, 1e-12),
                "identical": _values_identical(workload, got.value, ref.value),
            })
        finally:
            par.parallel.close()  # release the persistent thread pool
    return rows


def run_remote_wire(n, d, q, cap, n_shards=2):
    """Per-batch wire bytes and parity over a loopback rack, per workload."""
    from repro.core.workload import WorkloadSearch, get_workload
    from repro.host.rpc import RemoteWorkloadSearch, serve_shard

    data, queries = _dataset(n, d, q, seed=11)
    rows = []
    for name, params in WORKLOADS:
        workload = get_workload(name)
        ref = WorkloadSearch(
            data, name, params, board_capacity=cap
        ).search(queries)
        servers = [
            serve_shard(data, i, n_shards, board_capacity=cap,
                        execution="functional").start()
            for i in range(n_shards)
        ]
        addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
        try:
            with RemoteWorkloadSearch(addresses, name, params) as remote:
                remote.search(queries)  # warm: handshake + shard compiles
                sent0, recv0 = remote.pool.wire_bytes
                last = remote.search(queries)
                sent1, recv1 = remote.pool.wire_bytes
                rows.append({
                    "workload": name, "params": params,
                    "n": n, "d": d, "q": q, "shards": n_shards,
                    "wire_bytes_out_per_batch": sent1 - sent0,
                    "wire_bytes_back_per_batch": recv1 - recv0,
                    "partial": last.partial,
                    "identical": _values_identical(
                        workload, last.value, ref.value
                    ),
                })
        finally:
            for s in servers:
                s.close()
    return rows


def run_all(quick=False):
    cores = _available_cores()
    if quick:
        sweep = run_parallel_sweep(
            n=1 << 12, d=64, q=24, cap=256,
            n_workers=4, warm_rounds=2,
        )
        remote = run_remote_wire(n=1 << 11, d=64, q=16, cap=256)
    else:
        sweep = run_parallel_sweep(
            n=1 << 15, d=128, q=96, cap=1 << 11, n_workers=8
        )
        remote = run_remote_wire(n=1 << 13, d=128, q=64, cap=1 << 11)
    return {
        "sweep": sweep,
        "remote": remote,
        "quick": quick,
        "cores": cores,
    }


# -- pytest harness -------------------------------------------------------


def test_workloads_smoke(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    report(
        "Workload stack (quick sizes): parallel speedup + wire bytes",
        ["Workload", "Speedup (thread)", "Wire out/back (B)",
         "Bit-identical"],
        [
            [s["workload"], f"{s['speedup']:.2f}x",
             f"{r['wire_bytes_out_per_batch']}/"
             f"{r['wire_bytes_back_per_batch']}",
             s["identical"] and r["identical"]]
            for s, r in zip(results["sweep"], results["remote"])
        ],
    )
    assert all(s["identical"] for s in results["sweep"])
    assert all(r["identical"] for r in results["remote"])
    assert not any(r["partial"] for r in results["remote"])


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_workloads.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    print("== Workload stack: serial vs thread-parallel (warm) ==")
    print(f"{'workload':>9} {'parts':>6} {'workers':>8} {'t_serial_s':>11} "
          f"{'t_par_s':>9} {'speedup':>8} {'identical':>10}")
    for s in results["sweep"]:
        print(f"{s['workload']:>9} {s['n_partitions']:>6} "
              f"{s['n_workers']:>8} {s['t_serial_s']:>11.4f} "
              f"{s['t_parallel_s']:>9.4f} {s['speedup']:>7.2f}x "
              f"{s['identical']!s:>10}")
    print("== Remote rack: deterministic wire bytes per batch ==")
    for r in results["remote"]:
        print(f"{r['workload']:>9} out={r['wire_bytes_out_per_batch']:>8} B  "
              f"back={r['wire_bytes_back_per_batch']:>8} B  "
              f"identical={r['identical']} partial={r['partial']}")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    if not all(s["identical"] for s in results["sweep"]):
        raise SystemExit("FAIL: parallel workload diverges from serial")
    if not all(r["identical"] for r in results["remote"]):
        raise SystemExit("FAIL: remote workload diverges from local engine")
    if any(r["partial"] for r in results["remote"]):
        raise SystemExit("FAIL: loopback shards reported partial results")
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

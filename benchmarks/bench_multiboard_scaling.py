"""Multi-board scale-out: measured wall-clock across devices × backends.

`bench_multiboard.py` sweeps the *modeled* device-side scaling curve;
this benchmark measures the **host side** the model takes for granted:
:class:`~repro.core.multiboard.MultiBoardSearch` now fans every
device's board-partition passes out through `repro.host.parallel`, and
that fan-out has to pay for itself in real seconds, not model seconds.

Three passes, all on the functional back-end:

* **devices × backends sweep** — wall-clock per search for 1/2/4
  devices under serial, thread and process pools, warm compile cache
  (the steady state of a long-lived service), each verified
  bit-identical to a single sequential engine over the full dataset.
  Every row records its parent→worker **IPC payload bytes** (the
  pickled task size; 0 for in-process pools) next to the timings;
* **speedup acceptance** — warm-cache multi-device thread execution
  must beat the warm single-device serial baseline (full sizes only;
  --quick records without asserting);
* **warm-start demo** — a search over a `BoardImageCache(cache_dir=)`
  populated by a previous cache *instance* (a simulated service
  restart) must report **zero recompiles** via the runtime counters.

Timings land in ``BENCH_multiboard.json`` next to
``BENCH_functional.json`` so CI records the trajectory run over run.
Runs under the pytest-benchmark harness like the other benchmarks, or
standalone:
``python benchmarks/bench_multiboard_scaling.py [--quick] [--out PATH]``.
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _workload(n, d, n_queries, seed=2017):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (n_queries, d), dtype=np.uint8)
    return data, queries


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


SWEEP_BACKENDS = ("serial", "thread", "process")


def run_device_backend_sweep(n, d, q, k, cap, device_counts, n_workers,
                             warm_rounds=3):
    """Warm-cache wall clock for every (devices, backend) pair.

    Each row also records ``ipc_payload_bytes`` — the parent→worker
    submission size of one warm search (pickled task bytes; 0 for
    in-process pools).  Warm time is the best of ``warm_rounds``
    searches.
    """
    from repro.ap.compiler import BoardImageCache
    from repro.core.engine import APSimilaritySearch
    from repro.core.multiboard import MultiBoardSearch
    from repro.host.parallel import ParallelConfig

    data, queries = _workload(n, d, q)
    ref = APSimilaritySearch(
        data, k=k, board_capacity=cap, execution="functional"
    ).search(queries)

    rows = []
    for n_devices in device_counts:
        for backend in SWEEP_BACKENDS:
            parallel = ParallelConfig(
                n_workers=n_workers, backend=backend, persistent=True
            )
            cache = BoardImageCache(max_entries=256)
            with parallel:
                mb = MultiBoardSearch(
                    data, k=k, n_devices=n_devices, board_capacity=cap,
                    execution="functional", parallel=parallel, cache=cache,
                )
                t_cold, cold = _time(lambda: mb.search(queries))
                t_warm, warm = _time(lambda: mb.search(queries))
                for _ in range(warm_rounds - 1):
                    t_again, warm = _time(lambda: mb.search(queries))
                    t_warm = min(t_warm, t_again)
            # Payload measured on a one-shot measured config over the
            # same warm cache (measurement pays an extra pickle pass,
            # so it never runs inside the timed loop above).
            measured = MultiBoardSearch(
                data, k=k, n_devices=n_devices, board_capacity=cap,
                execution="functional", cache=cache,
                parallel=ParallelConfig(
                    n_workers=n_workers, backend=backend, measure_ipc=True
                ),
            ).search(queries)
            total_parts = sum(warm.per_device_partitions)
            rows.append({
                "n": n, "d": d, "q": q, "k": k, "cap": cap,
                "devices": n_devices, "backend": backend,
                "transport": warm.transport,
                "workers": warm.n_workers,
                "t_cold_s": t_cold, "t_warm_s": t_warm,
                "ipc_payload_bytes": measured.ipc_payload_bytes,
                "warm_cache_hits": warm.counters.image_cache_hits,
                "partitions": total_parts,
                "identical": bool(
                    (cold.indices == ref.indices).all()
                    and (cold.distances == ref.distances).all()
                    and (warm.indices == ref.indices).all()
                    and (warm.distances == ref.distances).all()
                    and (measured.indices == ref.indices).all()
                ),
            })
    return rows


def run_warm_start_demo(n, d, q, k, cap, n_devices):
    """Simulated service restart: a fresh cache over the same cache_dir
    must serve every partition from disk — zero recompiles."""
    from repro.ap.compiler import BoardImageCache
    from repro.core.multiboard import MultiBoardSearch

    data, queries = _workload(n, d, q, seed=77)
    cache_dir = tempfile.mkdtemp(prefix="bench_multiboard_cache_")
    try:
        first = MultiBoardSearch(
            data, k=k, n_devices=n_devices, board_capacity=cap,
            execution="functional",
            cache=BoardImageCache(cache_dir=cache_dir),
        )
        t_first, r1 = _time(lambda: first.search(queries))
        # fresh cache instance over the same directory = restarted service
        restarted = MultiBoardSearch(
            data, k=k, n_devices=n_devices, board_capacity=cap,
            execution="functional",
            cache=BoardImageCache(cache_dir=cache_dir),
        )
        t_restart, r2 = _time(lambda: restarted.search(queries))
        total_parts = sum(r2.per_device_partitions)
        return {
            "n": n, "devices": n_devices, "partitions": total_parts,
            "t_first_s": t_first, "t_restarted_s": t_restart,
            "first_recompiles": sum(r1.per_device_partitions)
            - r1.counters.image_cache_hits,
            "restart_recompiles": total_parts - r2.counters.image_cache_hits,
            "restart_disk_hits": restarted.cache.stats.disk_hits,
            "identical": bool(
                (r1.indices == r2.indices).all()
                and (r1.distances == r2.distances).all()
            ),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_all(quick=False):
    if quick:
        sweep = run_device_backend_sweep(
            n=1 << 11, d=64, q=16, k=10, cap=256,
            device_counts=(1, 2), n_workers=2, warm_rounds=2,
        )
        warm_start = run_warm_start_demo(
            n=1 << 10, d=64, q=8, k=10, cap=256, n_devices=2
        )
    else:
        # Big enough that one partition pass is tens of milliseconds of
        # GIL-releasing kernel work — the regime where the pool's task
        # overhead is noise and thread fan-out tracks core count — and
        # the per-task pickle payload (query batch + warm artifact) is
        # what the process rows actually measure.
        sweep = run_device_backend_sweep(
            n=1 << 16, d=128, q=256, k=10, cap=1 << 12,
            device_counts=(1, 2, 4), n_workers=4,
        )
        warm_start = run_warm_start_demo(
            n=1 << 14, d=64, q=32, k=10, cap=512, n_devices=4
        )
    return {
        "sweep": sweep,
        "warm_start": warm_start,
        "quick": quick,
        "cores": _available_cores(),
    }


def _speedup_rows(sweep):
    """Warm multi-device speedup over the warm 1-device serial baseline."""
    base = next(
        r["t_warm_s"] for r in sweep
        if r["devices"] == 1 and r["backend"] == "serial"
    )
    return [
        {**r, "speedup_vs_serial_1dev": base / max(r["t_warm_s"], 1e-12)}
        for r in sweep
    ]


# -- pytest harness -------------------------------------------------------


def test_multiboard_scaling_smoke(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    report(
        "Multi-board scale-out: devices x backends (quick sizes, warm cache)",
        ["Devices", "Backend", "t_cold (s)", "t_warm (s)", "IPC bytes",
         "Bit-identical"],
        [
            [r["devices"], r["backend"], f"{r['t_cold_s']:.3f}",
             f"{r['t_warm_s']:.3f}", r["ipc_payload_bytes"], r["identical"]]
            for r in results["sweep"]
        ],
    )
    assert all(r["identical"] for r in results["sweep"])
    assert all(
        r["warm_cache_hits"] == r["partitions"] for r in results["sweep"]
    )
    ws = results["warm_start"]
    assert ws["identical"]
    assert ws["restart_recompiles"] == 0
    assert ws["restart_disk_hits"] == ws["partitions"]


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_multiboard.json",
                        help="write timing rows to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    results["sweep"] = _speedup_rows(results["sweep"])

    print("== multi-board sweep: devices x backends (warm compile cache) ==")
    print(f"{'devices':>8} {'backend':>12} {'t_cold_s':>9} {'t_warm_s':>9} "
          f"{'speedup':>8} {'ipc_bytes':>12} {'identical':>10}")
    for r in results["sweep"]:
        ipc = r["ipc_payload_bytes"]
        print(f"{r['devices']:>8} {r['backend']:>12} {r['t_cold_s']:>9.3f} "
              f"{r['t_warm_s']:>9.3f} {r['speedup_vs_serial_1dev']:>7.2f}x "
              f"{ipc if ipc is not None else '-':>12} "
              f"{r['identical']!s:>10}")

    ws = results["warm_start"]
    print("== warm start from cache_dir (simulated service restart) ==")
    print(f"first run:     {ws['t_first_s']:.3f}s "
          f"({ws['first_recompiles']} recompiles)")
    print(f"restarted run: {ws['t_restarted_s']:.3f}s "
          f"({ws['restart_recompiles']} recompiles, "
          f"{ws['restart_disk_hits']} disk hits)")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# timings written to {args.out}")

    ok = (
        all(r["identical"] for r in results["sweep"])
        and ws["identical"]
        and ws["restart_recompiles"] == 0
        and ws["restart_disk_hits"] == ws["partitions"]
    )
    if not ok:
        raise SystemExit(
            "FAIL: multi-board results diverge or the warm start recompiled"
        )
    if not args.quick:
        best = max(
            r["speedup_vs_serial_1dev"] for r in results["sweep"]
            if r["devices"] >= 2 and r["backend"] != "serial"
        )
        print(f"# best warm multi-device speedup: {best:.2f}x "
              f"({results['cores']} core(s) available)")
        if results["cores"] >= 2 and best < 1.3:
            raise SystemExit(
                f"FAIL: warm multi-device speedup {best:.2f}x < 1.3x "
                f"acceptance over the 1-device serial baseline on "
                f"{results['cores']} cores"
            )
        if results["cores"] < 2:
            # A single-core host cannot show real fan-out speedup; the
            # measured figure is still recorded in the JSON trajectory.
            print("# <2 cores: speedup acceptance recorded, not enforced")
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

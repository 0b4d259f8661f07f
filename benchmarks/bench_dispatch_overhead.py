"""Per-task dispatch overhead: pinned shm ring vs ``ProcessPoolExecutor``.

This benchmark isolates the **per-task dispatch machinery** between
payload-ready and worker-starts-executing, and checks that the
pinned-worker ring actually kills it:

* **dispatch microbenchmark** — one warm worker on each side, one
  small real :class:`~repro.host.parallel.PartitionTask` submitted
  per round, sequentially so no measurement is polluted by queueing
  behind another task's execution.  Measured quantity is
  *submit-to-start* latency: parent stamps ``t_submit`` at the
  submission call, :func:`~repro.host.parallel.execute_partition`
  stamps ``t_start`` on entry in the worker (``time.monotonic`` is
  cross-process comparable on one host).

  - *executor path*: ``ProcessPoolExecutor.submit`` — work-queue hop,
    management-thread pickle, pipe write, worker-side unpickle;
  - *ring path*: :class:`~repro.host.ring.PinnedWorkerPool` — one
    descriptor memcpy into the shm submission ring plus an Event wake.

  Acceptance: the ring must beat the executor decisively (>= 2x in
  the full run), and the measured ratio is tracked against the
  committed baseline in ``check_regression.py``.  The ratio is
  floor-compressed on single-core hosts, where one kernel context
  switch (~50us+) dominates *both* paths' wake latency — the seed
  baseline box (1 core) measures ~3.5x with the ring at ~55-80us per
  task; on multi-core hosts the ring side collapses toward the memcpy
  (+wake) cost and the same measurement clears 5x and the 100us/task
  target with room to spare.  Both milestones (``ratio_5x``,
  ``ring_under_100us``) are recorded in the JSON.

* **engine dispatch accounting** — warm ``APSimilaritySearch``
  per backend (serial/thread/process/pinned) reporting the new
  ``WorkloadRunResult.dispatch_overhead_s``, all bit-identical to serial;

* **workload parity** — every registered workload through a pinned
  ``WorkloadSearch``, values identical to serial;

* **chunked stock dispatch** — the process backend with more tasks
  than workers submits one chunk per worker (``queue_depth ==
  n_workers``), results identical, dispatch accounting recorded.

Results land in ``BENCH_dispatch.json``.  Runs under pytest
(``--quick`` sizes, skipped when the platform lacks
``multiprocessing.shared_memory``) or standalone:
``python benchmarks/bench_dispatch_overhead.py [--quick]``.
"""

import json
import os
import statistics
import time


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _dataset(n, d, n_queries, seed=2017):
    import numpy as np

    rng = np.random.default_rng(seed)
    data = (rng.random((n, d)) < 0.4).astype(np.uint8)
    queries = (rng.random((n_queries, d)) < 0.4).astype(np.uint8)
    return data, queries


def _small_task(n=16, d=64, q=2):
    """A deliberately tiny partition task: dispatch cost dominates."""
    from repro.core.macros import collector_tree_depth
    from repro.host.parallel import PartitionTask

    data, queries = _dataset(n, d, q)
    task = PartitionTask(
        p_idx=0, start=0, end=n, dataset_bits=data, mode="functional",
        d=d, collector_depth=collector_tree_depth(d, n), max_fan_in=16,
        counter_max_increment=1, k=2,
    )
    return task, queries


def run_dispatch_microbench(rounds=40):
    """Submit-to-start latency per task, one warm worker on each side."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.host.parallel import execute_partition
    from repro.host.ring import PinnedWorkerPool
    from repro.host.shm import shm_available

    task, queries = _small_task()
    out = {"rounds": rounds, "shm_supported": shm_available()}

    executor = ProcessPoolExecutor(max_workers=1)
    try:
        executor.submit(execute_partition, task, queries, None).result()
        latencies = []
        for _ in range(rounds):
            t_submit = time.monotonic()
            res = executor.submit(execute_partition, task, queries,
                                  None).result()
            latencies.append(res.t_start - t_submit)
    finally:
        executor.shutdown()
    out["executor_submit_to_start_us"] = statistics.median(latencies) * 1e6

    if not shm_available():
        return out

    with PinnedWorkerPool(1) as pool:
        pool.run_tasks([task], queries)  # warm: worker imports + compiles
        latencies = []
        for _ in range(rounds):
            report = pool.run_tasks([task], queries)
            latencies.append(report.dispatch_latencies_s[0])
    ring_us = statistics.median(latencies) * 1e6
    ratio = out["executor_submit_to_start_us"] / max(ring_us, 1e-9)
    out.update({
        "ring_submit_to_start_us": ring_us,
        "dispatch_ratio": ratio,
        "ratio_5x": ratio >= 5.0,
        "ring_under_100us": ring_us <= 100.0,
    })
    return out


def run_engine_dispatch(n, d, q, k, cap, n_workers, warm_rounds=2):
    """Warm engine searches per backend with dispatch accounting."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.parallel import ParallelConfig
    from repro.host.shm import shm_available

    data, queries = _dataset(n, d, q, seed=11)
    ref = APSimilaritySearch(
        data, k, board_capacity=cap, execution="functional"
    ).search(queries)

    backends = ["thread", "process"]
    if shm_available():
        backends.append("pinned")

    rows = [{
        "backend": "serial",
        "dispatch_us": None,
        "identical": True,
    }]
    for backend in backends:
        cfg = ParallelConfig(
            n_workers=n_workers, backend=backend, persistent=True
        )
        with cfg:
            eng = APSimilaritySearch(
                data, k, board_capacity=cap, execution="functional",
                parallel=cfg,
            )
            last = None
            for _ in range(warm_rounds + 1):
                last = eng.search(queries)
        dispatch = last.dispatch_overhead_s
        rows.append({
            "backend": backend,
            "dispatch_us": None if dispatch is None else dispatch * 1e6,
            "identical": bool(
                (last.indices == ref.indices).all()
                and (last.distances == ref.distances).all()
            ),
        })
    return rows


def run_workload_parity(n, d, q, cap, n_workers):
    """Every registered workload: pinned results identical to serial."""
    import numpy as np

    from repro.core.workload import WorkloadSearch, get_workload
    from repro.host.parallel import ParallelConfig
    from repro.host.shm import shm_available

    if not shm_available():
        return []

    data, queries = _dataset(n, d, q, seed=7)
    params_by_name = {"knn": {"k": 10}, "jaccard": {"k": 10},
                      "range": {"radius": 24}}
    rows = []
    for name, params in params_by_name.items():
        workload = get_workload(name)
        serial = WorkloadSearch(
            data, name, params, board_capacity=cap
        ).search(queries)
        cfg = ParallelConfig(n_workers=n_workers, backend="pinned")
        with cfg:
            pinned = WorkloadSearch(
                data, name, params, board_capacity=cap, parallel=cfg
            ).search(queries)
        identical = all(
            np.asarray(getattr(pinned.value, f)).shape
            == np.asarray(getattr(serial.value, f)).shape
            and (np.asarray(getattr(pinned.value, f))
                 == np.asarray(getattr(serial.value, f))).all()
            for f in workload.wire_fields
        )
        dispatch = pinned.dispatch_overhead_s
        rows.append({
            "workload": name,
            "identical": bool(identical),
            "dispatch_us": None if dispatch is None else dispatch * 1e6,
        })
    return rows


def run_chunking_check(n, d, q, k, cap, n_workers=2):
    """Stock process backend chunks tasks per worker, results identical."""
    from repro.core.engine import APSimilaritySearch
    from repro.host.parallel import ParallelConfig, run_partitions

    data, queries = _dataset(n, d, q, seed=3)
    eng = APSimilaritySearch(data, k, board_capacity=cap,
                             execution="functional")
    tasks = eng._partition_tasks(eng.params)
    serial = run_partitions(tasks, queries, ParallelConfig()).results
    cfg = ParallelConfig(n_workers=n_workers, backend="process",
                         fallback_serial=False)
    with cfg:
        report = run_partitions(tasks, queries, cfg)
    identical = all(
        a.p_idx == b.p_idx
        and (a.payload.indices == b.payload.indices).all()
        and (a.payload.distances == b.payload.distances).all()
        for a, b in zip(report.results, serial)
    )
    return {
        "tasks": len(tasks),
        "n_workers": report.n_workers,
        "queue_depth": report.queue_depth,
        "chunked": report.queue_depth == report.n_workers,
        "identical": bool(identical),
        "dispatch_recorded": report.dispatch_overhead_s is not None,
    }


def run_all(quick=False):
    rounds = 20 if quick else 40
    micro = run_dispatch_microbench(rounds=rounds)
    if quick:
        engine = run_engine_dispatch(
            n=1 << 9, d=64, q=8, k=5, cap=64, n_workers=2, warm_rounds=1
        )
        parity = run_workload_parity(n=1 << 9, d=64, q=8, cap=64,
                                     n_workers=2)
        chunking = run_chunking_check(n=1 << 9, d=64, q=8, k=5, cap=64)
    else:
        engine = run_engine_dispatch(
            n=1 << 11, d=64, q=16, k=10, cap=128, n_workers=2
        )
        parity = run_workload_parity(n=1 << 11, d=64, q=16, cap=256,
                                     n_workers=2)
        chunking = run_chunking_check(n=1 << 11, d=64, q=16, k=10, cap=128)
    return {
        "dispatch": micro,
        "engine": engine,
        "workload_parity": parity,
        "chunking": chunking,
        "quick": quick,
        "cores": _available_cores(),
    }


# -- pytest harness -------------------------------------------------------


def test_dispatch_overhead_smoke(benchmark, report):
    import pytest

    from repro.host.shm import shm_available

    if not shm_available():
        pytest.skip("multiprocessing.shared_memory unsupported here")
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    micro = results["dispatch"]
    report(
        "Per-task dispatch overhead (quick sizes)",
        ["Path", "submit-to-start (us)"],
        [
            ["executor", f"{micro['executor_submit_to_start_us']:.1f}"],
            ["ring", f"{micro['ring_submit_to_start_us']:.1f}"],
        ],
    )
    assert micro["dispatch_ratio"] > 1.0
    assert all(r["identical"] for r in results["engine"])
    assert all(r["identical"] for r in results["workload_parity"])
    assert results["chunking"]["chunked"]
    assert results["chunking"]["identical"]


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_dispatch.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    micro = results["dispatch"]

    print("== dispatch microbench: submit-to-start per task ==")
    print(f"executor : {micro['executor_submit_to_start_us']:8.1f} us")
    if micro["shm_supported"]:
        print(f"ring     : {micro['ring_submit_to_start_us']:8.1f} us")
        print(f"# ratio {micro['dispatch_ratio']:.1f}x "
              f"(5x milestone: {micro['ratio_5x']}, "
              f"100us target: {micro['ring_under_100us']})")
    else:
        print("ring     : shm unsupported on this platform")

    print("== engine dispatch accounting (warm searches) ==")
    for r in results["engine"]:
        dispatch = ("     -" if r["dispatch_us"] is None
                    else f"{r['dispatch_us']:6.1f}")
        print(f"{r['backend']:>8}: dispatch {dispatch} us/task "
              f"identical={r['identical']}")
    for r in results["workload_parity"]:
        print(f"# workload {r['workload']}: pinned identical="
              f"{r['identical']}")
    chunk = results["chunking"]
    print(f"# chunking: {chunk['tasks']} tasks -> queue depth "
          f"{chunk['queue_depth']} over {chunk['n_workers']} workers")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    if not all(r["identical"] for r in results["engine"]):
        raise SystemExit("FAIL: a parallel backend diverged from serial")
    if not all(r["identical"] for r in results["workload_parity"]):
        raise SystemExit("FAIL: pinned workload results diverge from serial")
    if not (chunk["chunked"] and chunk["identical"]
            and chunk["dispatch_recorded"]):
        raise SystemExit("FAIL: chunked process dispatch broke an invariant")
    if micro["shm_supported"]:
        floor = 1.2 if args.quick else 2.0
        if micro["dispatch_ratio"] < floor:
            raise SystemExit(
                f"FAIL: ring dispatch only {micro['dispatch_ratio']:.1f}x "
                f"faster than the executor (>= {floor}x required)"
            )
    else:
        print("# shm unsupported: ring acceptance recorded as skipped")
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

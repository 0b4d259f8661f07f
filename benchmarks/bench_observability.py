"""Observability-plane gates: zero-hot-path overhead + determinism.

The metrics registry's design contract is **attach-only**: with the
registry disabled every instrumented site costs a handful of attribute
loads and integer compares, and with it enabled the cost is a few
locked float adds per *batch* (never per row).  This benchmark freezes
that contract into CI:

* **overhead** — registry mutations per functional hot-path search
  (read off a reset registry, so per-row instrumentation creep is
  caught exactly) times the measured per-mutation cost, gated at <2%
  of the search floor; a paired enabled/disabled wall-clock A/B rides
  along as evidence.
* **determinism** — two identical serial runs (registry reset between
  them) must produce byte-identical ``counter_values()`` maps, and the
  registry must never change results (bit-identity across the
  enabled/disabled runs).
* **trace** — a ``trace_request`` around a search captures the
  execute/merge stage spans, and the stage histogram aggregates them.

Results land in ``BENCH_observability.json``; every gate is absolute,
so a false invariant exits non-zero with no baseline to compare to.
Runs under pytest-benchmark like the other benchmarks, or standalone:
``python benchmarks/bench_observability.py [--quick] [--out PATH]``.
"""

import json
import time

import numpy as np


def _workload(n, d, n_queries, seed=2017):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (n_queries, d), dtype=np.uint8)
    return data, queries


def _best_of(fn, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_overhead(n, q, k, cap, repeats, rounds=4):
    """The <2% overhead gate on the functional hot path.

    Differencing two wall clocks cannot resolve 2% on a shared runner
    (machine-speed drift alone swings paired A/B ratios by ±10% at
    quick sizes), so the *gated* number is constructed from three
    robust measurements instead:

    1. ``ops_per_search`` — how many registry mutations one enabled
       search actually performs, read off a reset registry's snapshot
       (deterministic: counter sums + histogram observation counts);
    2. ``cost_per_op`` — the per-mutation cost, timed over a tight
       loop of the hottest real site (labeled histogram observe),
       where a best-of-N minimum IS stable;
    3. ``t_search`` — the disabled-arm search floor (best-of-N).

    ``overhead_fraction = ops * cost / t_search`` gates at 2%.  This
    catches exactly the regression that matters — instrumentation
    creeping onto a per-row/per-report path multiplies ``ops`` by 1e3+
    and blows the bound — without flaking on runner noise.  The raw
    A/B wall-clock ratio (order-swapped blocks, median of locally
    paired rounds) ships in the JSON as supporting evidence.
    """
    import timeit

    from repro import APSimilaritySearch
    from repro.perf import metrics

    data, queries = _workload(n, 64, q)
    engine = APSimilaritySearch(
        data, k=k, board_capacity=cap
    )
    engine.search(queries[:1])  # warm compile caches off the clock

    reg = metrics.get_registry()
    was_enabled = reg.enabled
    t_disabled = float("inf")
    t_enabled = float("inf")
    ratios = []
    res_disabled = res_enabled = None
    try:
        # -- wall-clock A/B (informational) --
        for r in range(rounds):
            order = (False, True) if r % 2 == 0 else (True, False)
            t_round = {}
            for enabled in order:
                reg.set_enabled(enabled)
                t, res = _best_of(lambda: engine.search(queries), repeats)
                t_round[enabled] = t
                if enabled:
                    t_enabled, res_enabled = min(t_enabled, t), res
                else:
                    t_disabled, res_disabled = min(t_disabled, t), res
            ratios.append(t_round[True] / max(t_round[False], 1e-12))

        # -- ops per search: what one enabled search mutates --
        reg.set_enabled(True)
        reg.reset()
        engine.search(queries)
        ops = 0
        for m in reg.snapshot().metrics:
            for s in m["series"]:
                if m["type"] == "histogram":
                    # Observation counts are exact mutation counts —
                    # per-row timing (the realistic creep hazard, e.g.
                    # observe_many over n latencies) is caught exactly.
                    ops += s["count"]
                else:
                    # Counters/gauges mutate once per batch by design
                    # (inc(rows), set(depth)); a nonzero series counts
                    # as one mutation per search.
                    ops += 1 if s["value"] else 0
        ops = max(ops, 1)

        # -- per-op cost: the hottest real site in a tight loop --
        child = metrics.stage_histogram(reg).labels(stage="execute")
        loop = 10000
        cost_on = min(
            timeit.timeit(lambda: child.observe(1e-3), number=loop)
            for _ in range(3)
        ) / loop
        reg.set_enabled(False)
        cost_off = min(
            timeit.timeit(lambda: child.observe(1e-3), number=loop)
            for _ in range(3)
        ) / loop
    finally:
        reg.set_enabled(was_enabled)
    wall_ratio = sorted(ratios)[len(ratios) // 2]
    overhead_fraction = ops * cost_on / max(t_disabled, 1e-12)
    identical = bool(
        (res_enabled.indices == res_disabled.indices).all()
        and (res_enabled.distances == res_disabled.distances).all()
    )
    return {
        "n": n, "q": q, "k": k, "cap": cap,
        "repeats": repeats * rounds,
        "t_disabled_s": t_disabled,
        "t_enabled_s": t_enabled,
        "wall_ratio_median": wall_ratio,
        "round_ratios": ratios,
        "ops_per_search": ops,
        "cost_per_op_enabled_s": cost_on,
        "cost_per_op_disabled_s": cost_off,
        "overhead_fraction": overhead_fraction,
        "overhead_ratio": 1.0 + overhead_fraction,
        "overhead_ok": bool(overhead_fraction < 0.02),
        "identical": identical,
    }


def run_determinism(n, q, k, cap):
    """Two identical serial runs -> identical counter/gauge values."""
    from repro import APSimilaritySearch
    from repro.perf import metrics

    data, queries = _workload(n, 64, q)
    reg = metrics.get_registry()
    was_enabled = reg.enabled
    reg.set_enabled(True)
    values = []
    try:
        for _ in range(2):
            reg.reset()
            # cache=True so the board-image cache's hit/miss counters
            # flow on the sequential path too.
            engine = APSimilaritySearch(
                data, k=k, board_capacity=cap,
                cache=True,
            )
            engine.search(queries)
            values.append(reg.snapshot().counter_values())
    finally:
        reg.set_enabled(was_enabled)
    nonzero = sum(1 for v in values[0].values() if v)
    return {
        "series_compared": len(values[0]),
        "nonzero_series": nonzero,
        "identical_counters": values[0] == values[1],
        # A determinism pass over an all-zero registry proves nothing.
        "counters_flowed": bool(nonzero > 0),
    }


def run_trace(n, q, k, cap):
    """trace_request captures execute/merge spans; histogram aggregates."""
    from repro import APSimilaritySearch
    from repro.perf import metrics

    data, queries = _workload(n, 64, q)
    reg = metrics.get_registry()
    was_enabled = reg.enabled
    reg.set_enabled(True)
    try:
        reg.reset()
        engine = APSimilaritySearch(
            data, k=k, board_capacity=cap
        )
        with metrics.trace_request("bench-search") as trace:
            engine.search(queries)
        stages = [s.stage for s in trace.spans]
        snap = reg.snapshot()
        hist = snap.get("repro_stage_duration_seconds", stage="execute")
    finally:
        reg.set_enabled(was_enabled)
    return {
        "stages": stages,
        "spans_captured": bool(
            "execute" in stages and "merge" in stages
        ),
        "histogram_fed": bool(hist is not None and hist["count"] >= 1),
    }


def run_all(quick=False):
    if quick:
        # Big enough that the ~5ms search dwarfs timer noise: the 2%
        # gate needs a stable floor even on shared CI runners.
        over = run_overhead(n=1 << 13, q=32, k=10, cap=1024, repeats=3)
        det = run_determinism(n=1 << 10, q=16, k=10, cap=512)
        trc = run_trace(n=1 << 10, q=8, k=10, cap=512)
    else:
        over = run_overhead(n=1 << 15, q=64, k=10, cap=2048, repeats=3)
        det = run_determinism(n=1 << 12, q=32, k=10, cap=1024)
        trc = run_trace(n=1 << 12, q=16, k=10, cap=1024)
    return {
        "overhead": over,
        "determinism": det,
        "trace": trc,
        "quick": quick,
    }


# -- pytest harness -------------------------------------------------------


def test_observability_gates(benchmark, report):
    results = benchmark.pedantic(
        lambda: run_all(quick=True), rounds=1, iterations=1
    )
    over = results["overhead"]
    det = results["determinism"]
    report(
        "Observability plane: overhead + determinism (quick sizes)",
        ["n", "Ops/search", "Cost/op (us)", "Overhead %", "Identical",
         "Deterministic"],
        [[over["n"], over["ops_per_search"],
          f"{over['cost_per_op_enabled_s'] * 1e6:.2f}",
          f"{over['overhead_fraction'] * 100:.3f}",
          over["identical"], det["identical_counters"]]],
    )
    assert over["identical"]
    assert det["identical_counters"] and det["counters_flowed"]
    assert results["trace"]["spans_captured"]
    assert results["trace"]["histogram_fed"]


# -- standalone entry point -----------------------------------------------


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_observability.json",
                        help="write results to this JSON file")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)

    over = results["overhead"]
    print("== registry overhead on the functional hot path ==")
    print(f"  n={over['n']} q={over['q']} repeats={over['repeats']}: "
          f"search {over['t_disabled_s'] * 1e3:.2f}ms, "
          f"{over['ops_per_search']} mutation(s)/search x "
          f"{over['cost_per_op_enabled_s'] * 1e6:.2f}us "
          f"(disabled {over['cost_per_op_disabled_s'] * 1e9:.0f}ns) "
          f"= {over['overhead_fraction'] * 100:.3f}% overhead "
          f"(gate < 2%: {'ok' if over['overhead_ok'] else 'FAIL'}); "
          f"wall-clock A/B median {over['wall_ratio_median']:.4f}, "
          f"bit-identical={over['identical']}")
    det = results["determinism"]
    print("== counter determinism across two serial runs ==")
    print(f"  {det['series_compared']} series "
          f"({det['nonzero_series']} nonzero): "
          f"identical={det['identical_counters']}")
    trc = results["trace"]
    print("== per-request trace spans ==")
    print(f"  stages={trc['stages']} histogram_fed={trc['histogram_fed']}")

    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
    print(f"# results written to {args.out}")

    ok = (
        over["identical"]
        and det["identical_counters"]
        and det["counters_flowed"]
        and trc["spans_captured"]
        and trc["histogram_fed"]
    )
    if not ok:
        raise SystemExit("FAIL: observability invariants violated")
    if not over["overhead_ok"]:
        raise SystemExit(
            f"FAIL: enabled-registry overhead "
            f"{over['overhead_fraction'] * 100:.2f}% >= 2% gate "
            f"({over['ops_per_search']} mutations/search — did "
            f"instrumentation land on a per-row path?)"
        )
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Bench-regression gate: compare fresh ``BENCH_*.json`` runs to baselines.

CI has always *run* the benchmark smokes but never compared them to
anything, so a perf regression — the repo's whole value proposition —
could ship silently.  This gate closes that hole:

* ``benchmarks/baselines/BENCH_*.json`` holds committed ``--quick``
  runs (the baseline trajectory);
* after CI re-runs every benchmark with ``--quick``, this script
  extracts a small set of **tracked metrics** from each fresh file and
  checks them against the baseline within per-metric tolerance bands;
* any violation fails the job (exit 1) with a table naming the metric,
  the baseline, the fresh value, and the allowed band.

Tracked metrics are chosen to be meaningful across machines:

* **bool** invariants (bit-identity flags, warm-start recompiles)
  must simply hold;
* **deterministic ratios/byte counts** (slice-ref payload cut, RPC
  wire bytes) get the tight default band — a fresh value more than 25%
  worse than baseline fails;
* **wall-clock-derived ratios** (kernel/search speedups, RPC
  overhead) are machine-relative but noisy at ``--quick`` sizes, so
  they get explicitly wider bands — they catch collapses (a speedup
  halving), not jitter.

Re-baselining (after an intentional perf change)::

    python benchmarks/bench_parallel_shards.py   --quick
    python benchmarks/bench_functional_hotpath.py --quick
    python benchmarks/bench_multiboard_scaling.py --quick
    python benchmarks/bench_rpc_fanout.py        --quick
    python benchmarks/bench_workloads.py         --quick
    python benchmarks/bench_dispatch_overhead.py --quick
    python benchmarks/bench_dataset_stores.py    --quick
    python benchmarks/bench_availability.py      --quick
    python benchmarks/bench_observability.py     --quick
    python benchmarks/check_regression.py --update

then commit the refreshed ``benchmarks/baselines/`` alongside the
change that justified it.  ``--update`` refuses to run if a fresh file
is missing, so a partial re-baseline cannot silently drop coverage.
"""

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

# Tolerance defaults: deterministic metrics fail beyond a 25% slide;
# wall-clock-derived ratios get wider bands set per metric below.
DEFAULT_TOLERANCE = 0.25
TIMING_TOLERANCE = 0.60


@dataclass(frozen=True)
class Metric:
    """One tracked value extracted from a BENCH json payload.

    ``kind``:
      * ``"bool"`` — fresh must be truthy;
      * ``"higher_better"`` — fail when fresh < baseline * (1 - tol);
      * ``"lower_better"`` — fail when fresh > baseline * (1 + tol).
    """

    name: str
    extract: callable
    kind: str = "higher_better"
    tolerance: float = DEFAULT_TOLERANCE


TRACKED: dict[str, list[Metric]] = {
    "BENCH_functional.json": [
        Metric("bit_identical", lambda d: all(
            r["identical"] for r in d["kernel"] + d["search"]
        ) and all(b["identical"] for b in d["parity"]["backends"].values()),
            kind="bool"),
        Metric("kernel_speedup_min",
               lambda d: min(r["speedup"] for r in d["kernel"]),
               tolerance=TIMING_TOLERANCE),
        Metric("search_speedup_min",
               lambda d: min(r["speedup"] for r in d["search"]),
               tolerance=TIMING_TOLERANCE),
    ],
    "BENCH_multiboard.json": [
        Metric("bit_identical",
               lambda d: all(r["identical"] for r in d["sweep"])
               and d["warm_start"]["identical"], kind="bool"),
        Metric("warm_start_zero_recompiles",
               lambda d: d["warm_start"]["restart_recompiles"] == 0,
               kind="bool"),
    ],
    "BENCH_parallel.json": [
        Metric("bit_identical",
               lambda d: all(r["identical"] for r in d["parity"]["rows"])
               and d["cache"]["identical"], kind="bool"),
        Metric("warm_cache_hit_all",
               lambda d: d["cache"]["warm_hits"] == d["cache"]["n_partitions"],
               kind="bool"),
    ],
    "BENCH_rpc.json": [
        Metric("bit_identical",
               lambda d: all(r["identical"] for r in d["fanout_sweep"])
               and d["batched_front_door"]["identical"], kind="bool"),
        Metric("no_partial_on_loopback",
               lambda d: not any(r["partial"] for r in d["fanout_sweep"]),
               kind="bool"),
        Metric("wire_bytes_out_max",
               lambda d: max(r["wire_bytes_out_per_batch"]
                             for r in d["fanout_sweep"]),
               kind="lower_better"),
        Metric("wire_bytes_back_max",
               lambda d: max(r["wire_bytes_back_per_batch"]
                             for r in d["fanout_sweep"]),
               kind="lower_better"),
        Metric("rpc_overhead_max",
               lambda d: max(r["rpc_overhead"] for r in d["fanout_sweep"]),
               kind="lower_better", tolerance=1.50),
    ],
    "BENCH_dispatch.json": [
        Metric("bit_identical",
               lambda d: all(r["identical"] for r in d["engine"])
               and all(r["identical"] for r in d["workload_parity"])
               and d["chunking"]["identical"], kind="bool"),
        Metric("chunked_dispatch",
               lambda d: d["chunking"]["chunked"]
               and d["chunking"]["dispatch_recorded"], kind="bool"),
        Metric("dispatch_ratio",
               lambda d: d["dispatch"].get("dispatch_ratio"),
               tolerance=TIMING_TOLERANCE),
        Metric("ring_submit_to_start_us",
               lambda d: d["dispatch"].get("ring_submit_to_start_us"),
               kind="lower_better", tolerance=1.50),
    ],
    "BENCH_dataset.json": [
        Metric("bit_identical",
               lambda d: all(r["identical"] for r in d["parity"])
               and d["ipc"]["array"]["identical"]
               and d["ipc"]["mmap"]["identical"]
               and all(r["identical"] for r in d["carrier_walls"]),
               kind="bool"),
        Metric("pds_rejects_corruption",
               lambda d: d["format_rejection"]["all_rejected"], kind="bool"),
        Metric("ipc_payload_cut",
               lambda d: d["ipc"].get("payload_cut")),
        # None off Linux (ru_maxrss semantics differ) — _evaluate skips.
        Metric("mmap_rss_within_budget",
               lambda d: d["rss"]["within_budget"], kind="bool"),
    ],
    "BENCH_availability.json": [
        Metric("kill_failover_complete",
               lambda d: d["kill_failover"]["never_partial"]
               and d["kill_failover"]["all_identical"]
               and d["kill_failover"]["failover_absorbed"], kind="bool"),
        # The acceptance gate is absolute (>= 2x), not baseline-relative:
        # hedging that stops halving an injected 200ms tail is broken on
        # any machine, so encode the floor as a bool invariant and track
        # the raw ratio only with the wide wall-clock band.
        Metric("hedge_cuts_p99_2x",
               lambda d: d["hedged_tail"]["p99_cut"] >= 2.0, kind="bool"),
        Metric("hedges_fired",
               lambda d: d["hedged_tail"]["hedges_fired"] >= 1, kind="bool"),
        Metric("p99_cut", lambda d: d["hedged_tail"]["p99_cut"],
               tolerance=TIMING_TOLERANCE),
    ],
    "BENCH_observability.json": [
        # The overhead gate is absolute (<2% enabled-vs-disabled), not
        # baseline-relative: a registry that costs more than that on
        # any machine violates the attach-only contract, so it is a
        # bool invariant rather than a tolerance-banded ratio.
        Metric("overhead_under_2pct",
               lambda d: d["overhead"]["overhead_ok"], kind="bool"),
        Metric("bit_identical",
               lambda d: d["overhead"]["identical"], kind="bool"),
        Metric("counters_deterministic",
               lambda d: d["determinism"]["identical_counters"]
               and d["determinism"]["counters_flowed"], kind="bool"),
        Metric("trace_spans_captured",
               lambda d: d["trace"]["spans_captured"]
               and d["trace"]["histogram_fed"], kind="bool"),
    ],
    "BENCH_workloads.json": [
        Metric("bit_identical",
               lambda d: all(s["identical"] for s in d["sweep"])
               and all(r["identical"] for r in d["remote"]), kind="bool"),
        Metric("no_partial_on_loopback",
               lambda d: not any(r["partial"] for r in d["remote"]),
               kind="bool"),
        Metric("parallel_speedup_min",
               lambda d: min(s["speedup"] for s in d["sweep"]),
               tolerance=TIMING_TOLERANCE),
        Metric("wire_bytes_out_max",
               lambda d: max(r["wire_bytes_out_per_batch"]
                             for r in d["remote"]),
               kind="lower_better"),
        Metric("wire_bytes_back_max",
               lambda d: max(r["wire_bytes_back_per_batch"]
                             for r in d["remote"]),
               kind="lower_better"),
    ],
}


@dataclass
class Check:
    file: str
    metric: str
    baseline: object
    fresh: object
    band: str
    ok: bool


def _evaluate(metric: Metric, baseline_doc, fresh_doc) -> Check | None:
    base = metric.extract(baseline_doc)
    fresh = metric.extract(fresh_doc)
    if base is None or fresh is None:
        # The platform skipped this path (e.g. no shm) in either run:
        # nothing comparable to gate on.
        return None
    if metric.kind == "bool":
        return Check("", metric.name, bool(base), bool(fresh),
                     "must be true", bool(fresh))
    base = float(base)
    fresh = float(fresh)
    if metric.kind == "higher_better":
        floor = base * (1.0 - metric.tolerance)
        return Check("", metric.name, round(base, 4), round(fresh, 4),
                     f">= {floor:.4g}", fresh >= floor)
    if metric.kind == "lower_better":
        ceiling = base * (1.0 + metric.tolerance)
        return Check("", metric.name, round(base, 4), round(fresh, 4),
                     f"<= {ceiling:.4g}", fresh <= ceiling)
    raise ValueError(f"unknown metric kind {metric.kind!r}")


def run_checks(baseline_dir: Path, fresh_dir: Path) -> tuple[list[Check], list[str]]:
    checks: list[Check] = []
    problems: list[str] = []
    for filename, metrics in sorted(TRACKED.items()):
        baseline_path = baseline_dir / filename
        fresh_path = fresh_dir / filename
        if not baseline_path.exists():
            problems.append(f"missing baseline {baseline_path} — run the "
                            f"benchmark and check_regression.py --update")
            continue
        if not fresh_path.exists():
            problems.append(
                f"missing fresh {fresh_path} — did the benchmark step run?"
            )
            continue
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
        with open(fresh_path) as f:
            fresh_doc = json.load(f)
        for metric in metrics:
            try:
                check = _evaluate(metric, baseline_doc, fresh_doc)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(
                    f"{filename}:{metric.name}: cannot evaluate ({exc!r}) — "
                    "schema drift? re-baseline with --update"
                )
                continue
            if check is not None:
                check.file = filename
                checks.append(check)
    return checks, problems


def update_baselines(baseline_dir: Path, fresh_dir: Path) -> int:
    missing = [f for f in sorted(TRACKED) if not (fresh_dir / f).exists()]
    if missing:
        print("refusing to re-baseline: missing fresh runs for "
              + ", ".join(missing), file=sys.stderr)
        return 1
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for filename in sorted(TRACKED):
        shutil.copyfile(fresh_dir / filename, baseline_dir / filename)
        print(f"re-baselined {baseline_dir / filename}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir",
                        default=Path(__file__).parent / "baselines",
                        type=Path, help="committed baseline directory")
    parser.add_argument("--fresh-dir", default=Path("."), type=Path,
                        help="where the fresh BENCH_*.json files landed")
    parser.add_argument("--update", action="store_true",
                        help="copy the fresh runs over the baselines "
                             "(intentional perf change: commit the result)")
    args = parser.parse_args(argv)

    if args.update:
        return update_baselines(args.baseline_dir, args.fresh_dir)

    checks, problems = run_checks(args.baseline_dir, args.fresh_dir)
    width = max((len(c.metric) for c in checks), default=10)
    current = None
    for c in checks:
        if c.file != current:
            current = c.file
            print(f"== {c.file} ==")
        status = "ok  " if c.ok else "FAIL"
        print(f"  [{status}] {c.metric:<{width}}  baseline={c.baseline!s:<10} "
              f"fresh={c.fresh!s:<10} band: {c.band}")
    for p in problems:
        print(f"  [FAIL] {p}")
    failed = [c for c in checks if not c.ok]
    if failed or problems:
        print(f"\nregression gate: {len(failed)} metric failure(s), "
              f"{len(problems)} structural problem(s)", file=sys.stderr)
        print("if this slide is intentional, re-baseline: "
              "`python benchmarks/check_regression.py --update` "
              "(see module docstring)", file=sys.stderr)
        return 1
    print(f"\nregression gate: {len(checks)} tracked metrics within bands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

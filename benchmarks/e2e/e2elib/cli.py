"""Command line: one run of one workload (the driver's unit), the whole
benchmark as a table, or the benchmark against itself (``--selfcheck``).

    python benchmarks/e2e/run.py                      # everything, one table
    python benchmarks/e2e/run.py --workload rack_2x2  # one workload, both passes
    python benchmarks/e2e/run.py --quick              # CI sizes, seconds not minutes
    python benchmarks/e2e/run.py --selfcheck          # two interleaved sets, gaps vs bounds
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                      # one pass; last stdout line is JSON
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from . import host, spec
from .protocol import cold_setups, timed_section
from .tracing import Tracer, tree_problems
from .workloads import BY_NAME

ROOT = Path(__file__).resolve().parents[1]  # benchmarks/e2e
OUT = ROOT / "out"

QUICK_SECONDS = 0.2
SELFCHECK_RUNS = 3  # per set, per workload


def _warn(message: str) -> None:
    print(f"# WARNING: {message}", file=sys.stderr)


def run_pass(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One pass of one workload, in this process.  Returns the result
    object the driver reads: ``correct``, ``attempted``, ``failed`` and
    the end-to-end metrics (``trace=False``) or the per-layer metrics
    (``trace=True``, which also writes ``out/trace_<name>.json``)."""
    env = host.environment()
    print(f"# env {json.dumps(env)}", file=sys.stderr)
    busy = host.busy_cpus()
    if busy is not None and busy > 0.5 * env["nproc"]:
        _warn(f"other processes are using {busy:.1f} of {env['nproc']} cpus: "
              "timings will be noisier than the bounds assume")
    OUT.mkdir(exist_ok=True)
    workload = BY_NAME[name](seed, quick, OUT / f"tmp-{os.getpid()}-{name}")
    min_trials = 2 if quick else 3
    try:
        if trace:
            cold_setups(workload, min_reps=1, min_seconds=0.0)
            workload.warm()
            ref = timed_section(workload, seconds / 4, min_trials)
            tracer = Tracer()
            workload.start_tracing(tracer)
            traced = timed_section(workload, seconds / 4, min_trials)
            probes = [ref.probe, traced.probe]
            values = dict.fromkeys(spec.PER_LAYER_UNITS, 0.0)
            values.update(workload.layer_metrics(ref, traced))
            units = spec.PER_LAYER_UNITS
            for problem in tree_problems(tracer.spans):
                workload.account.fail(f"malformed trace: {problem}")
            tracer.write(OUT / f"trace_{name}.json",
                         {"workload": name, "seed": seed, "quick": quick, "env": env})
            print(f"# samples: ref_trials={len(ref.trials)} "
                  f"traced_trials={len(traced.trials)} spans={len(tracer.spans)}",
                  file=sys.stderr)
        else:
            setup_s = cold_setups(
                workload,
                min_reps=1 if quick else 5,
                min_seconds=0.0 if quick else 3.0,
            )
            workload.warm()
            timed = timed_section(workload, seconds, min_trials)
            probes = [timed.probe]
            values = {
                "queries_per_s": timed.queries_per_s,
                "latency_p50_ms": timed.latency_p50_ms,
                "cpu_ms_per_query": timed.cpu_s / max(1, timed.rows) * 1e3,
                "peak_rss_mb": timed.peak_rss_mb,
                "setup_s": setup_s,
            }
            units = spec.END_TO_END_UNITS
            print(f"# samples: trials={len(timed.trials)} "
                  f"requests={len(timed.latencies_s)} rows={timed.rows}",
                  file=sys.stderr)
        if any(p.unsteady() for p in probes):
            _warn("host probe median is >15% above its best quartile: "
                  "the machine changed speed during this run")
    finally:
        workload.close()
    account = workload.account
    return {
        "correct": account.failed == 0,
        "attempted": account.attempted,
        "failed": account.failed,
        "metrics": {
            metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()
        },
    }


# -- the whole benchmark, as child processes ---------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One pass in a fresh interpreter, so peak RSS and every cache start
    clean — the same invocation the driver makes."""
    cmd = [
        sys.executable, str(ROOT / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: pass printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def _print_metrics(name: str, result: dict) -> None:
    for metric, cell in result["metrics"].items():
        print(f"{name}/{metric:<40s} {cell['value']:>14.6g} {cell['unit']}")
    print(f"{name}/ops_attempted {result['attempted']}  "
          f"{name}/ops_failed {result['failed']}")


def run_all(names: list[str], seed: int, seconds: float, quick: bool) -> int:
    """Untraced pass then traced pass per workload; every metric by name
    with its unit.  Non-zero if any operation failed anywhere."""
    failed = 0
    for name in names:
        for trace in (False, True):
            result = _child(name, seed, seconds, trace, quick)
            _print_metrics(name, result)
            failed += result["failed"]
    print(f"total ops_failed {failed}")
    return 1 if failed else 0


def selfcheck(names: list[str], seed: int, seconds: float, quick: bool) -> int:
    """The benchmark against itself: two sets of runs of the same code,
    interleaved A, B, A, B ... so machine drift lands on both.  Fails if
    set B's median is worse than set A's by more than a metric's bound."""
    worst = 0
    print(f"{'workload/metric':<34s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>11s} {'bound':>6s}")
    for name in names:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for rep in range(SELFCHECK_RUNS):
            for which in (0, 1):
                result = _child(name, seed + 2 * rep + which, seconds, False, quick)
                if not result["correct"]:
                    print(f"{name}: {result['failed']} operations failed")
                    return 1
                sets[which].append(result["metrics"])
        for metric, _, better, bound in spec.END_TO_END:
            a, b = (statistics.median(run[metric]["value"] for run in s) for s in sets)
            worse_by = (b - a) / a if better == "lower" else (a - b) / a
            flag = "  FAIL" if worse_by > bound else ""
            worst += bool(flag)
            print(f"{name + '/' + metric:<34s} {a:>12.5g} {b:>12.5g} "
                  f"{worse_by:>+10.1%} {bound:>6.0%}{flag}")
    print(f"{worst} of {len(names) * len(spec.END_TO_END)} pairs outside their bound")
    return 1 if worst else 0


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory bookkeeping helper.

    The process and pinned pools of ``parallel.*`` start it; it outlives
    them until the interpreter exits.  A pass must leave no process
    behind, so it is stopped (it restarts on demand) before the result
    is printed."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are a function of this alone")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed section per pass (default {spec.RUN_SECONDS}, "
                             f"--quick {QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run exactly one pass in this process and print its "
                             "result as one JSON line: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="CI sizes (n <= 2^13, a few trials)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of runs; fail on a gap beyond a bound")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else spec.RUN_SECONDS
    names = [args.workload] if args.workload else spec.WORKLOAD_NAMES

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_pass(args.workload, args.seed, seconds, bool(args.trace), args.quick)
        _stop_resource_tracker()
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.selfcheck:
        return selfcheck(names, args.seed, seconds, args.quick)
    return run_all(names, args.seed, seconds, args.quick)

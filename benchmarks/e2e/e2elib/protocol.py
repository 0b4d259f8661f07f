"""The measurement protocol every workload runs under.

Inputs come from the seed alone.  Cold set-up is repeated and its
median reported; the timed section runs trials of a *fixed operation
count* (so two commits do identical work per trial) back to back until
the run's seconds are spent, with ``gc.collect()`` before each trial
and the fixed host probe after it.  Throughput is the median over
trials, latency the median over every timed request.  One request in
eight has its answer checked against the oracle once the clock is
stopped; every set-up and warm-up answer is checked.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

from . import host

SAMPLE_EVERY = 8  # one timed request in this many is oracle-checked


@dataclass
class Account:
    """Operations attempted and failed (exception, partial result, or
    oracle mismatch) across every phase of a run."""

    attempted: int = 0
    failed: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, why: str) -> None:
        with self._lock:
            self.failed += 1
        print(f"# FAILED op: {why}", file=sys.stderr)


@dataclass
class Sample:
    """One request kept for checking: what was asked, what came back."""

    kind: str  # "knn" | "jaccard" | "range"
    queries: object
    result: object


@dataclass
class Trial:
    rows: int
    wall_s: float
    latencies_s: list[float]
    kinds: list[str]  # parallel to latencies_s: which search each was
    samples: list[Sample]


def issue(account: Account, search, queries):
    """One caller-visible request: ``(result or None, seconds)``.

    An exception or a partial (degraded) result is a failed operation,
    not a crash — the run goes on and exits non-zero at the end."""
    account.attempt()
    t0 = time.perf_counter()
    try:
        result = search(queries)
    except Exception:  # boundary: count it, show it, keep measuring
        account.fail(traceback.format_exc(limit=3).strip().replace("\n", " | "))
        return None, time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    if getattr(result, "failed_shards", ()):
        account.fail(f"partial result, failed shards {result.failed_shards}")
        return None, elapsed
    return result, elapsed


def cold_setups(workload, min_reps: int, min_seconds: float,
                max_reps: int = 40) -> float:
    """Median seconds from nothing to the first answer.

    The unit is a fresh engine or rack with an empty compile cache plus
    its first request; one shot of it spreads ~40 % on a shared box, the
    median of several does not.  The last instance stays up for the
    timed section."""
    times = []
    begin = time.perf_counter()
    while True:
        workload.teardown()
        gc.collect()
        t0 = time.perf_counter()
        sample = workload.setup()
        times.append(time.perf_counter() - t0)
        workload.verify([sample])
        if len(times) >= max_reps:
            break
        if len(times) >= min_reps and time.perf_counter() - begin >= min_seconds:
            break
    return statistics.median(times)


@dataclass
class TimedResult:
    trials: list[Trial]
    cpu_s: float
    peak_rss_mb: float
    probe: host.Probe

    @property
    def rows(self) -> int:
        return sum(t.rows for t in self.trials)

    @property
    def latencies_s(self) -> list[float]:
        return [lat for t in self.trials for lat in t.latencies_s]

    @property
    def queries_per_s(self) -> float:
        return statistics.median(t.rows / t.wall_s for t in self.trials)

    @property
    def latency_p50_ms(self) -> float:
        return statistics.median(self.latencies_s) * 1e3


def timed_section(workload, seconds: float, min_trials: int) -> TimedResult:
    """Run fixed-size trials until ``seconds`` are spent (at least
    ``min_trials``), then check the sampled answers off the clock."""
    probe = host.Probe()
    trials: list[Trial] = []
    pids = workload.child_pids()
    cpu_self = 0.0
    cpu_children0 = host.child_cpu_seconds(pids)
    deadline = time.perf_counter() + seconds
    while len(trials) < min_trials or time.perf_counter() < deadline:
        gc.collect()
        c0 = time.process_time()
        trials.append(workload.trial())
        cpu_self += time.process_time() - c0
        probe.run()
    cpu_children = host.child_cpu_seconds(pids) - cpu_children0
    peak = host.peak_rss_mb(pids)
    workload.verify([s for t in trials for s in t.samples])
    return TimedResult(trials, cpu_self + cpu_children, peak, probe)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]

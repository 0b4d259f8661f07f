"""What the benchmark reads off the machine: identity, CPU seconds,
peak memory, and a fixed probe of how fast the box is right now."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_IS_LINUX = sys.platform.startswith("linux")


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> dict:
    """Box identity recorded with every run (and in the trace file)."""
    model = platform.processor() or "unknown"
    if _IS_LINUX:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def busy_cpus(sample_s: float = 0.25) -> float | None:
    """CPUs' worth of work the rest of the box is doing right now: the
    non-idle share of ``/proc/stat`` across a short sleep (this process is
    asleep for it, so what shows is everyone else).  ``None`` off Linux.

    Sampled rather than read off the load average, which still carries
    the previous pass of this very benchmark a minute later."""
    if not _IS_LINUX:
        return None

    def jiffies() -> tuple[int, int]:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return sum(fields), fields[3] + fields[4]  # total, idle + iowait

    total0, idle0 = jiffies()
    time.sleep(sample_s)
    total1, idle1 = jiffies()
    elapsed = total1 - total0
    return nproc() * (1 - (idle1 - idle0) / elapsed) if elapsed else 0.0


def child_cpu_seconds(pids: list[int]) -> float:
    """utime + stime of live children, from ``/proc/<pid>/stat``.

    Off Linux there is no per-pid source without waiting on the child,
    so children contribute 0 (the harness's own CPU is still counted)."""
    if not _IS_LINUX:
        return 0.0
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as f:
            # comm may contain spaces; fields resume after the last ')'
            fields = f.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """``ru_maxrss`` of this process plus ``VmHWM`` of each live child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb = own / 1024 if sys.platform == "darwin" else own
    if _IS_LINUX:
        for pid in pids:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
    return total_kb / 1024


class Probe:
    """A fixed XOR + popcount pass run between trials.

    The work never changes, so a change in its time is a change in the
    machine (a noisy neighbour, frequency drift), not in the code under
    test.  ``host.probe_ms`` reports its median."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 2**63, 1 << 18, dtype=np.uint64)
        self._b = rng.integers(0, 2**63, 1 << 18, dtype=np.uint64)
        self.samples_ms: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        x = self._a ^ self._b
        if hasattr(np, "bitwise_count"):
            int(np.bitwise_count(x).sum())
        else:
            int(np.unpackbits(x.view(np.uint8)).sum())
        self.samples_ms.append((time.perf_counter() - t0) * 1e3)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms) if self.samples_ms else 0.0

    def unsteady(self) -> bool:
        """Median more than 15 % above the best quartile: the box was
        not in one state for the whole run."""
        if len(self.samples_ms) < 4:
            return False
        best_quartile = statistics.quantiles(self.samples_ms, n=4)[0]
        return self.median_ms > 1.15 * best_quartile


def memcpy_gbps(nbytes: int = 1 << 26, reps: int = 5) -> float:
    """Bytes copied per second by ``np.copyto`` between two 64 MiB
    buffers (best of ``reps``) — the roofline the packed kernel is placed
    on."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault both buffers in before timing
    best = min(timed(np.copyto, dst, src)[0] for _ in range(reps))
    return nbytes / best / 1e9


def timed(fn, *args):
    """``(seconds, value)`` of one ``fn(*args)`` call."""
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value

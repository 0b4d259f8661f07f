"""Sharded parallel partition execution for the engine.

The paper hides host-side latency by pipelining (Section III-C); a
production host has a second lever the single-board timeline model
cannot express: board partitions are *independent* until the final
merge, so a multi-core host can execute them concurrently — each
worker compiles (or cache-loads), runs and decodes its own partitions
through the task's :class:`~repro.core.workload.Workload` and returns
the partition-local partial result plus the partition's
:class:`~repro.ap.runtime.RuntimeCounters` delta.  The parent consumes
both in partition order, so results are bit-identical to sequential
execution, counter aggregation is exact and tie-breaks are untouched.

A task is a run of row-consecutive boards cut into *windows*, each one
*host pass* the engine sized for the host (``repro.core.workload``:
board capacity is an AP constraint, and a ~1024-row NumPy pass is
mostly Python).  The worker body runs a window as one
``Workload.compile_packed`` artifact over the boards' packed row words
— a view of the store's where it holds them, else each board's words
from the parent's cache (in-process workers), packed on a miss — and
one ``execute``.  A task is one worker lane's run of a device shard's
windows: kNN and Jaccard run each later window as a threshold filter
under the running k-th entries, any other workload merges its window
partials once, at the task's end.
Hand-built tasks are one board.

Backends
--------

* ``backend="process"`` — a :class:`~concurrent.futures.
  ProcessPoolExecutor`.  Its workers are stateless: a task carries its
  dataset window and the query batch, a result its partial and
  counters, nothing else.  The parent's
  :class:`~repro.ap.compiler.BoardImageCache` is per-process and serves
  only workers in the parent's process, so a process worker views a
  ``.pds`` or shm store's packed words or packs its own rows.
* ``backend="thread"`` — a :class:`~concurrent.futures.
  ThreadPoolExecutor`.  The functional back-end spends its time inside
  NumPy kernels that release the GIL, so threads overlap almost as
  well as processes there while skipping query-batch pickling — and,
  because threads share the parent's memory, workers consult and fill
  the engine's board-image cache directly.
* ``backend="serial"`` — in-process loop regardless of ``n_workers``
  (debugging aid, and the silent fallback when a pool cannot be
  created).

The process backend submits one contiguous chunk of tasks per worker —
one ``executor.submit`` per worker, a one-task chunk when there are no
more tasks than workers — so executor dispatch is paid per worker, not
per partition.

Every run records its dispatch cost: :class:`PartitionRunReport.
dispatch_overhead_s` is the mean per-task submit→start latency and
``queue_depth`` the peak submitted-not-finished count, surfaced by the
engine as ``WorkloadRunResult.dispatch_overhead_s``.

Data movement
-------------

There is one path to an out-of-process worker (``"process"``).  A
task's ``dataset_bits`` is a window of the engine's own
:class:`~repro.core.dataset.PackedDataset`, and pickling it is the
descriptor: over the ``.pds`` file of an mmap-backed dataset, or the
shared-memory segment an in-memory dataset is promoted to when its
engine fans out across processes (:meth:`~repro.core.dataset.
PackedDataset.attachable`), the window pickles as the store's name and
the worker attaches the store itself, so dataset bytes cross the
process boundary once per store, not once per task.  An artifact over
such a store's packed row words is a view the worker builds in place
(``Workload.compile_packed``), so it does not travel either.
**Everything else travels by value** through the task pickle: query
batches, and the rows of an in-memory window that was not promoted (no
usable ``/dev/shm``, segment refused, dataset outside the promotion
size band) — its own rows only, which the worker packs.  No cache
entry travels either way.  Thread/serial workers share the parent's
memory and move nothing: they read the engine's store through the
window and the engine's cache.  Results are bit-identical across
every backend × store combination.

Pool lifetime
-------------

By default a pool is created per :func:`run_partitions` call and torn
down afterwards — leak-proof for one-shot batches.  A long-lived
service issuing many small searches should set ``persistent=True``:
the :class:`ParallelConfig` then owns a lazily-spawned reusable pool,
usable as a context manager (or via explicit :meth:`~ParallelConfig.
close`), so repeated searches skip worker spawn cost entirely.  A
persistent pool whose config is dropped without :meth:`~ParallelConfig.
close` is reclaimed by a :func:`weakref.finalize` guard (which also
fires at interpreter exit), so forgotten configs cannot leak worker
threads/processes or hang shutdown.
"""

from __future__ import annotations

import pickle
import threading
import time
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..ap.device import APDeviceSpec, GEN1
from ..ap.runtime import RuntimeCounters
from ..perf import metrics as _metrics

__all__ = [
    "ParallelConfig",
    "PartitionTask",
    "PartitionResult",
    "PartitionRunReport",
    "run_partitions",
]

_POOL_ERRORS = (OSError, PermissionError, ImportError)


def _shutdown_executor(pool: Executor) -> None:
    """Finalizer target: must not reference the owning config (a bound
    method would keep it alive and the finalizer would never fire)."""
    pool.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class ParallelConfig:
    """How the engine fans partitions out across workers.

    ``n_workers <= 1`` means serial in-process execution; ``backend``
    picks ``"process"``, ``"thread"``, or ``"serial"`` (forces serial
    regardless of ``n_workers``; useful for debugging).
    ``fallback_serial`` controls what happens when a pool cannot be
    created: degrade gracefully (default) or raise.

    ``measure_ipc=True`` makes :func:`run_partitions` record the
    submitted task payload bytes in its report — benchmarking aid; it
    pays an extra pickle pass, so leave it off in production.

    ``persistent=True`` makes this config own a reusable worker pool:
    spawned lazily on the first :func:`run_partitions` call, reused by
    every later call, released by :meth:`close` (or by using the
    config as a context manager).  A ``weakref.finalize`` guard shuts
    the pool down if the config is garbage-collected — or the
    interpreter exits — without ``close()``, so a dropped config never
    leaks workers or hangs shutdown.  The pool handle never
    participates in equality/hashing, so configs compare by their
    settings alone.
    """

    n_workers: int = 1
    backend: str = "process"
    fallback_serial: bool = True
    persistent: bool = False
    measure_ipc: bool = False
    _pool: Executor | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _pool_finalizer: Any = field(
        default=None, init=False, repr=False, compare=False
    )
    # Guards the persistent pool's lazy spawn/teardown: a long-lived
    # service may issue concurrent searches through one config, and an
    # unlocked first-use race would leak a second executor.
    _pool_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        # "pinned" is a removed backend still accepted here so that the
        # request-path benchmark, which builds one outside its error
        # handling, gets the RuntimeError from run_partitions instead
        # of a ValueError.  Delete it with that benchmark's
        # `parallel.*.pinned` rows when the benchmark is re-anchored
        # (ROADMAP item 1).
        if self.backend not in ("process", "thread", "serial", "pinned"):
            raise ValueError(f"unknown parallel backend {self.backend!r}")

    @property
    def effective_workers(self) -> int:
        return self.n_workers if self.backend in ("process", "thread") else 1

    @property
    def shares_memory(self) -> bool:
        """True when every worker runs in this process (one lane, or a
        thread/serial backend): they can read the parent's board-image
        cache instead of rebuilding."""
        return self.effective_workers <= 1 or self.backend != "process"

    # -- pool lifecycle ---------------------------------------------------

    def _spawn_pool(self, n_workers: int) -> Executor:
        if self.backend == "thread":
            return ThreadPoolExecutor(max_workers=n_workers)
        return ProcessPoolExecutor(max_workers=n_workers)

    def _acquire_pool(self, n_workers: int) -> tuple[Executor, bool]:
        """Return ``(executor, owned_by_call)``.  Persistent configs
        hand out their lazily-created shared pool (spawned at full
        ``n_workers`` so later, larger searches reuse it too); one-shot
        configs spawn a pool the caller must shut down."""
        if not self.persistent:
            return self._spawn_pool(n_workers), True
        with self._pool_lock:
            if self._pool is None:
                pool = self._spawn_pool(max(self.n_workers, n_workers))
                object.__setattr__(self, "_pool", pool)
                # Leak guard: if this config is dropped (or the
                # interpreter exits) before close(), the finalizer
                # shuts the pool down.  It must not hold a reference
                # to `self`, or the config could never be collected.
                object.__setattr__(
                    self,
                    "_pool_finalizer",
                    weakref.finalize(self, _shutdown_executor, pool),
                )
            return self._pool, False

    def _release_pool(self) -> Executor | None:
        """Detach the finalizer and hand the pool back for shutdown."""
        with self._pool_lock:
            pool = self._pool
            finalizer = self._pool_finalizer
            object.__setattr__(self, "_pool", None)
            object.__setattr__(self, "_pool_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
        return pool

    def _discard_pool(self) -> None:
        """Drop a broken persistent pool so the next call respawns."""
        pool = self._release_pool()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the persistent pool (no-op if never spawned)."""
        pool = self._release_pool()
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelConfig":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class PartitionTask:
    """One worker lane's run of host passes, self-contained and
    picklable: row-consecutive board partitions ``[start, end)`` (one
    board for a hand-built task), cut into *windows* — the passes, each
    a run of boards under the engine's pass budgets — that the worker
    runs in ascending row order, whatever the workload: one that
    carries (``Workload.carries``) hands each window the partial of the
    windows before it, any other merges their partials once at the end.

    ``dataset_bits`` holds the task's rows: a window of the engine's
    :class:`~repro.core.dataset.PackedDataset`, which a process worker
    receives pickled as a descriptor of a ``.pds`` or shm store (or as
    the window's own rows), or an ndarray in a hand-built task.
    ``workload`` names the registered :class:`~repro.core.workload.
    Workload` that executes it and ``params`` carries that workload's
    resolved parameters.  Caching stays per board: :meth:`board_list`
    gives each board's ``(rows, cache_key)`` in row order, the keys being the
    engine's content-addressed board-image keys, which in-process
    workers (thread backend / serial execution) look up in the parent's
    cache.  The engine keys no board of a task bound for process
    workers: they see no cache.
    """

    p_idx: int
    start: int
    end: int
    dataset_bits: Any  # the (end-start, d) rows: PackedDataset or ndarray
    # Legacy kNN-only fields, read only when a hand-built task carries
    # no ``params`` (HammingKnnWorkload folds them in); the engine
    # leaves them at their defaults.
    mode: str = "functional"
    d: int = 0
    collector_depth: int = 0
    max_fan_in: int = 16
    counter_max_increment: int = 1
    device: APDeviceSpec = GEN1
    k: int | None = None
    # A one-board task's cache key (hand-built tasks); engine-built
    # tasks carry ``windows`` instead.
    cache_key: tuple | None = None
    # A hand-built task's per-board ``(rows, cache_key)``, in row order;
    # empty = one board of ``end - start`` rows under ``cache_key``.
    boards: tuple = ()
    # ``(lo, hi, boards)`` per window, in row order, as the engine's plan
    # cut them; empty = one window of all of ``boards``.
    windows: tuple = ()
    # Which registered workload executes this task (repro.core.workload).
    workload: str = "knn"
    # Workload parameters as sorted (key, value) items — hashable, and
    # rebuilt into a dict worker-side.
    params: tuple = ()

    def board_list(self) -> tuple:
        """Each board's ``(rows, cache_key)``, in row order: the windows'
        boards, else ``boards``, with a one-board task spelled out."""
        if self.windows:
            return tuple(board for _, _, boards in self.windows for board in boards)
        return self.boards or ((self.end - self.start, self.cache_key),)

    def window_list(self) -> tuple:
        """``(lo, hi, boards)`` per window, in row order: its task-local
        rows ``[lo, hi)`` and its slice of :meth:`board_list`."""
        return self.windows or ((0, self.end - self.start, self.board_list()),)


@dataclass
class PartitionResult:
    """Partial result + counter delta for one executed task.

    ``payload`` is the workload's task-LOCAL partial (indices relative
    to ``task.start``; ``None`` if the task produced nothing to merge).
    """

    p_idx: int
    counters: RuntimeCounters
    payload: Any = None
    # ``execute`` calls the task took: one per window.
    passes: int = 1
    # Worker-side monotonic timestamp taken when execution began.
    # CLOCK_MONOTONIC is system-wide on all supported platforms, so the
    # parent subtracts its submit timestamp to get per-task dispatch
    # (submit→start) latency.  None on paths that skip accounting.
    t_start: float | None = None


def execute_partition(
    task: PartitionTask, queries_bits: np.ndarray, cache=None
) -> PartitionResult:
    """Run one task end to end (worker-side entry point).

    Runs the task's :class:`~repro.core.workload.Workload`'s
    ``execute_task`` — the same body the serial path calls, so parallel
    results stay bit-identical by construction.  ``cache`` is a
    :class:`~repro.ap.compiler.BoardImageCache` shared by in-process
    callers (thread workers, serial fallback).  The workload import is
    deferred: :mod:`repro.core.workload` imports this module.
    """
    t_start = time.monotonic()
    from ..core.workload import get_workload

    result = get_workload(task.workload).execute_task(task, queries_bits, cache)
    result.t_start = t_start
    return result


@dataclass
class PartitionRunReport:
    """All partitions' results plus how the run actually executed.

    ``n_workers`` is the worker-lane count that really ran — 1 when
    the serial path was taken, including silent pool-failure fallback —
    so callers can report true concurrency instead of the requested
    figure.  ``transport`` records whether tasks crossed a process
    boundary: ``"none"`` (in-process: serial/thread, or serial
    fallback) or ``"pickle"`` (process workers).
    ``ipc_payload_bytes`` is the summed parent→worker submission size,
    recorded only under ``measure_ipc=True`` — descriptor-sized per
    task when its window is over a ``.pds`` or shm store.

    ``dispatch_overhead_s`` is the mean per-task submit→start latency
    (parent submit timestamp to worker pickup) across the run — the
    cost of getting work *to* a worker, separate from the work itself —
    and ``queue_depth`` the peak number of submissions in flight
    (process runs count chunks, thread runs tasks).  Serial runs
    record ``None``/``0``: nothing is dispatched.
    """

    results: list[PartitionResult]
    n_workers: int
    transport: str = "none"
    ipc_payload_bytes: int | None = None
    dispatch_overhead_s: float | None = None
    queue_depth: int = 0


def _record_dispatch(
    latencies: list[float], queue_depth: int, payload_bytes: int | None
) -> float | None:
    """One source of truth for dispatch accounting.

    The same latency values feed ``repro_dispatch_latency_seconds``
    (and the trace ``dispatch`` stage) and the returned mean that
    becomes ``PartitionRunReport.dispatch_overhead_s`` — the registry
    and the result field can never disagree.
    """
    reg = _metrics.get_registry()
    if reg.enabled:
        # Register unconditionally (cheap idempotent lookups) so the
        # catalog is identical whatever shape this run took; mutate
        # only what the run actually measured.
        hist = reg.histogram(
            "repro_dispatch_latency_seconds",
            "Per-task submit->start latency across parallel backends.",
        )
        payload = reg.counter(
            "repro_ipc_payload_bytes_total",
            "Parent->worker submission bytes (measure_ipc runs only).",
        )
        if latencies:
            hist.observe_many(latencies)
            _metrics.stage_histogram(reg).labels(stage="dispatch").observe_many(
                latencies
            )
        reg.gauge(
            "repro_dispatch_queue_depth",
            "Peak submitted-not-finished count of the last parallel run.",
        ).set(queue_depth)
        if payload_bytes:
            payload.inc(payload_bytes)
    if not latencies:
        return None
    return sum(latencies) / len(latencies)


def _chunk_bounds(n_items: int, n_chunks: int) -> list[int]:
    """Balanced contiguous chunk boundaries (first chunks get the
    remainder), as ``n_chunks + 1`` fenceposts."""
    base, rem = divmod(n_items, n_chunks)
    bounds = [0]
    for i in range(n_chunks):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    return bounds


def _execute_chunk(
    tasks: list[PartitionTask], queries_bits: np.ndarray
) -> list[PartitionResult]:
    """One process worker's submission: a whole task sublist rides a
    single ``executor.submit``, so dispatch is paid once per worker
    instead of once per partition."""
    return [execute_partition(t, queries_bits) for t in tasks]


def _run_serial(
    tasks: list[PartitionTask], queries_bits: np.ndarray, cache=None
) -> PartitionRunReport:
    return PartitionRunReport(
        results=[execute_partition(t, queries_bits, cache) for t in tasks],
        n_workers=1,
    )


def run_partitions(
    tasks: list[PartitionTask],
    queries_bits: np.ndarray,
    config: ParallelConfig = ParallelConfig(),
    cache=None,
) -> PartitionRunReport:
    """Execute partition tasks, possibly across worker processes/threads.

    The report's results are **sorted by partition index** regardless
    of worker completion order, so downstream decode/merge and counter
    aggregation are deterministic and bit-identical to the sequential
    path.  ``cache`` (a board-image cache) is shared with workers that
    run in the parent's memory — thread backend, serial execution, or
    serial fallback.  Process workers never see it: a task and its
    result carry no cache entry.
    """
    if config.backend == "pinned":
        # Raised on every call, whatever n_workers and fallback_serial
        # say: a caller asking for the removed backend never silently
        # gets a serial run instead (see ParallelConfig.__post_init__).
        raise RuntimeError(
            'parallel backend "pinned" has been removed; '
            'use backend="thread" or backend="process"'
        )
    queries_bits = np.ascontiguousarray(queries_bits, dtype=np.uint8)
    n_workers = min(config.effective_workers, len(tasks))
    if n_workers <= 1:
        return _run_serial(tasks, queries_bits, cache)
    try:
        executor, owned = config._acquire_pool(n_workers)
    except _POOL_ERRORS:
        if config.fallback_serial:
            return _run_serial(tasks, queries_bits, cache)
        raise

    payload_bytes = None
    if config.measure_ipc:
        # Thread pools hand references around in-process: no IPC copy.
        payload_bytes = (
            0
            if config.shares_memory
            else sum(
                len(pickle.dumps((t, queries_bits), protocol=pickle.HIGHEST_PROTOCOL))
                for t in tasks
            )
        )
    # Dispatch accounting: submit timestamps aligned with results in
    # submission order; worker-side t_start closes each measurement.
    submit_times: list[float] = []
    futures = []
    try:
        if config.backend == "process":
            # One submit per worker-sized sublist (n_workers <= tasks,
            # so none is empty): executor overhead is paid per worker,
            # not per partition.
            bounds = _chunk_bounds(len(tasks), n_workers)
            for a, b in zip(bounds, bounds[1:]):
                t_sub = time.monotonic()
                futures.append(
                    executor.submit(_execute_chunk, tasks[a:b], queries_bits)
                )
                submit_times.extend([t_sub] * (b - a))
            results = [r for f in futures for r in f.result()]
        else:
            # Thread workers share the parent's memory, and its cache.
            for t in tasks:
                submit_times.append(time.monotonic())
                futures.append(
                    executor.submit(execute_partition, t, queries_bits, cache)
                )
            results = [f.result() for f in futures]
    except (*_POOL_ERRORS, BrokenProcessPool) as exc:
        # Pool creation can succeed but worker spawn still fail (e.g.
        # blocked semaphores); degrade the same way.  A broken
        # persistent pool is discarded so the next call respawns.
        if not owned:
            config._discard_pool()
        if config.fallback_serial:
            return _run_serial(tasks, queries_bits, cache)
        raise RuntimeError("parallel partition execution failed") from exc
    finally:
        if owned:
            executor.shutdown(wait=True)
    dispatch_latencies = [
        max(0.0, res.t_start - t_sub)
        for res, t_sub in zip(results, submit_times)
        if res.t_start is not None
    ]
    dispatch_overhead = _record_dispatch(
        dispatch_latencies, len(futures), payload_bytes
    )
    return PartitionRunReport(
        results=sorted(results, key=lambda r: r.p_idx),
        n_workers=n_workers,
        transport="none" if config.shares_memory else "pickle",
        ipc_payload_bytes=payload_bytes,
        dispatch_overhead_s=dispatch_overhead,
        queue_depth=len(futures),
    )

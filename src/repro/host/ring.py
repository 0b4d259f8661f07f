"""Pinned-worker runtime: persistent processes on a shared-memory
task-descriptor ring.

Store-backed datasets keep the *dataset* off the executor pipe (slice
refs instead of pickled rows), but every partition task still pays
:class:`~concurrent.futures.ProcessPoolExecutor` submit/dispatch
machinery — an internal work queue, a management thread, a pipe write,
a wakeup, a result pipe read — about 0.5 ms per task observed, which
dominates small/medium-work fan-outs.  This module
replaces that machinery with the standard serving-stack fix: **pinned
workers polling a shared-memory ring**, the same shape as an inference
server's request ring.

* :class:`PinnedWorkerPool` spawns ``n_workers`` long-lived worker
  processes once per pool lifetime.  Each worker is pinned to its own
  pair of SPSC rings inside one shared-memory control segment: a
  **submission ring** (parent produces, worker consumes) and a twin
  **completion ring** (worker produces, parent consumes), both
  ``depth`` fixed-size slots of a sequence-numbered header plus an
  inline payload area.
* Submission is a memcpy: the parent pickles the task (small — the
  dataset ships as a :class:`~repro.core.dataset.DatasetSliceRef`
  path/segment window the worker attaches itself; a task carrying a
  warm-cache artifact by value may exceed a slot and spill, like a
  result) into the next free slot, publishes the slot's sequence
  number, and sets the worker's wake event — a semaphore post, no
  pipe, no executor thread.  Target: ≤100 µs per-task dispatch
  against the executor's ~0.5 ms.
* Results return through the completion ring the same way; a result
  too large for a slot **spills** to a dedicated shared-memory segment
  whose name rides in the slot header (the worker announces the name
  in its status block *before* creating the segment, so a worker
  killed mid-spill can never strand an anonymous segment).
* Workers execute tasks through the exact
  :func:`repro.host.parallel.execute_partition` entry the executor
  backends call — the workload registry, the artifact shuttle and
  slice-ref attach all apply unchanged, so results are bit-identical
  to every other backend by construction.

Robustness: the parent stamps per-worker heartbeats and watches
sequence progress; a worker killed mid-task is detected (completion
stall + ``Process.is_alive()``), its ring is zeroed, its in-flight
tasks are requeued (bounded by ``task_retries``), its orphaned spill
segments are reclaimed via the status-block announcement, and a fresh
worker is spawned onto the same slots.  A task that *repeatedly* kills
workers raises :class:`RingWorkerCrashed` instead of looping.

Lifecycle mirrors the executor pools: :meth:`PinnedWorkerPool.shutdown`
has the ``Executor.shutdown(wait=, cancel_futures=)`` signature, so
:class:`~repro.host.parallel.ParallelConfig`'s persistent-pool
acquire/release, ``close()``, and ``weakref.finalize`` leak guard all
apply verbatim — a dropped config (or interpreter exit) stops the
workers and unlinks every segment: no ``/dev/shm`` residue, no exit
hangs.

Synchronization note: slot publication writes the payload and header
fields first and the sequence number last; consumers read the sequence
first.  CPython's per-opcode execution plus the semaphore post/wait on
every publish/consume pair (full memory barriers) make this safe on
the platforms the repo targets.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..perf import metrics as _metrics
from .shm import (
    SHM_UNAVAILABLE_REASON,
    _attach_untracked,
    _new_segment_name,
    _shared_memory,
    shm_available,
)

try:  # the C module backing POSIX shared memory; absent only on Windows
    import _posixshmem
except ImportError:  # pragma: no cover
    _posixshmem = None

__all__ = [
    "PinnedWorkerPool",
    "RingRunReport",
    "RingUnavailableError",
    "RingBrokenError",
    "RingWorkerCrashed",
    "RING_DEPTH",
    "RING_SLOT_PAYLOAD",
]

#: Slots per ring (per worker, per direction).  The parent caps
#: in-flight tasks per worker below this, so the completion ring can
#: never overflow and workers never block on a full ring.
RING_DEPTH = 4
#: Inline payload bytes per slot.  Descriptor-sized tasks (a slice ref
#: and a small query batch) fit with room to spare; anything larger
#: spills to its own segment.
RING_SLOT_PAYLOAD = 1 << 16

# Parent-side cap on tasks in flight per worker: 2 keeps the next task
# hot in the ring while one executes (no pickup latency between tasks)
# without queueing deep enough to distort submit->start accounting.
_MAX_INFLIGHT = 2

_GLOBAL_HDR = 64  # [0:8) shutdown flag
_STATUS_STRIDE = 128  # per worker: [0:8) heartbeat, [8:72) spill announce
_SLOT_HDR = 128  # seq / length / flags / spill name / timestamp
_NAME_BYTES = 64
# Slot header after the sequence word: payload length, flags, spill
# segment name, monotonic timestamp (submit time going out, task start
# time coming back — CLOCK_MONOTONIC is system-wide on every supported
# platform, so the parent can subtract across the process boundary).
_HDR_FMT = "<QQ64sd"
_FLAG_SPILLED = 1


class RingUnavailableError(OSError):
    """The ring cannot exist here (no usable shared memory).  An
    ``OSError`` so :class:`~repro.host.parallel.ParallelConfig`'s
    pool-creation fallback treats it like any other pool failure."""


class RingBrokenError(RuntimeError):
    """The pool is closed or in an unrecoverable state; the parallel
    layer discards it (and respawns or falls back serial)."""


class RingWorkerCrashed(RingBrokenError):
    """A task killed its pinned worker more times than ``task_retries``
    allows — respawn-and-resubmit gave up."""


@dataclass(frozen=True)
class _Geometry:
    """Byte layout of the control segment."""

    n_workers: int
    depth: int
    payload: int

    @property
    def slot_size(self) -> int:
        return _SLOT_HDR + self.payload

    @property
    def rings_base(self) -> int:
        return _GLOBAL_HDR + self.n_workers * _STATUS_STRIDE

    def status(self, w: int) -> int:
        return _GLOBAL_HDR + w * _STATUS_STRIDE

    def worker_base(self, w: int) -> int:
        return self.rings_base + w * 2 * self.depth * self.slot_size

    def submit(self, w: int, ticket: int) -> int:
        return self.worker_base(w) + (ticket % self.depth) * self.slot_size

    def completion(self, w: int, ticket: int) -> int:
        return self.worker_base(w) + (
            self.depth + ticket % self.depth
        ) * self.slot_size

    @property
    def total_bytes(self) -> int:
        return self.rings_base + self.n_workers * 2 * self.depth * self.slot_size


# -- slot IO (shared by parent and workers) ---------------------------------


def _publish(buf, off: int, ticket: int, payload: bytes, length: int,
             flags: int, name: bytes, ts: float) -> None:
    """Write a slot: payload and header fields first, sequence last."""
    if payload:
        buf[off + _SLOT_HDR : off + _SLOT_HDR + len(payload)] = payload
    struct.pack_into(_HDR_FMT, buf, off + 8, length, flags, name, ts)
    struct.pack_into("<Q", buf, off, ticket + 1)


def _peek(buf, off: int, ticket: int):
    """Header of slot ``off`` if ticket ``ticket`` is published there."""
    (seq,) = struct.unpack_from("<Q", buf, off)
    if seq != ticket + 1:
        return None
    length, flags, name_b, ts = struct.unpack_from(_HDR_FMT, buf, off + 8)
    name = name_b.split(b"\0", 1)[0].decode("ascii")
    return int(length), int(flags), name, float(ts)


def _read_payload(buf, off: int, length: int, flags: int, name: str) -> bytes:
    """Copy a slot's payload out — inline bytes or the spill segment."""
    if flags & _FLAG_SPILLED:
        seg = _attach_untracked(name)
        try:
            return bytes(seg.buf[:length])
        finally:
            seg.close()
    base = off + _SLOT_HDR
    return bytes(buf[base : base + length])


def _unlink_quiet(name: str) -> None:
    """Unlink a segment by name without resource-tracker side effects.

    The parent reclaims worker-created spill segments (and a dead
    worker's announced orphans); going through
    ``SharedMemory.unlink`` would send an UNREGISTER for a name this
    process never registered (tracker noise, gh-82300 territory), so
    on POSIX the raw ``shm_unlink`` is used directly.  Windows has no
    unlink — named segments vanish with their last handle.
    """
    if not name:
        return
    if _posixshmem is not None:
        try:
            _posixshmem.shm_unlink("/" + name)
        except (FileNotFoundError, OSError):
            pass


def _untrack(seg) -> None:
    """Drop a freshly *created* segment from this process's resource
    tracker: the parent (not the creating worker) owns the unlink, and
    a tracked name would make the worker's tracker warn-and-unlink a
    segment the parent still needs at worker exit."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


# -- worker ------------------------------------------------------------------


def _pinned_worker_main(control_name: str, worker_id: int, n_workers: int,
                        depth: int, payload_cap: int, submit_sem,
                        completion_sem, parent_pid: int) -> None:
    """One pinned worker: drain the submission ring forever.

    Every task executes through
    :func:`repro.host.parallel.execute_partition` — the same workload-
    registry entry the executor backends call — so pinned results are
    bit-identical to process/thread/serial by construction.  Exceptions
    (including a task's own failure) ship back through the completion
    ring instead of killing the worker.
    """
    geo = _Geometry(n_workers, depth, payload_cap)
    control = _attach_untracked(control_name)
    buf = control.buf
    status = geo.status(worker_id)
    ticket = 0
    heartbeat = 0

    def _beat() -> None:
        nonlocal heartbeat
        heartbeat += 1
        struct.pack_into("<Q", buf, status, heartbeat)

    try:
        while True:
            # Scan-then-wait over a counting semaphore: a token posted
            # after the scan makes the acquire below return at once, so
            # a wakeup can never be lost; surplus tokens only cost a
            # spurious rescan.  (Semaphores, not Events: sem_post has
            # no sleeper handshake, so a worker SIGKILLed mid-wait can
            # never wedge the poster — see the parent-side note.)
            progressed = False
            while True:
                (shutdown,) = struct.unpack_from("<Q", buf, 0)
                if shutdown:
                    return
                off = geo.submit(worker_id, ticket)
                hdr = _peek(buf, off, ticket)
                if hdr is None:
                    break
                length, flags, name, _t_sub = hdr
                t_start = time.monotonic()
                _beat()
                try:
                    blob = _read_payload(buf, off, length, flags, name)
                    from .parallel import execute_partition

                    task, queries = pickle.loads(blob)
                    result: Any = execute_partition(task, queries, None)
                    ok = True
                except BaseException as exc:  # ship the failure, keep serving
                    result, ok = exc, False
                try:
                    out = pickle.dumps(
                        (ok, result), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception as exc:
                    out = pickle.dumps(
                        (False,
                         RuntimeError(f"unpicklable pinned-worker result: {exc!r}")),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                coff = geo.completion(worker_id, ticket)
                if len(out) > payload_cap:
                    # Announce the name BEFORE creating the segment: if
                    # this worker dies mid-spill the parent reclaims the
                    # orphan from the status block on respawn.
                    sname = _new_segment_name()
                    struct.pack_into(
                        "<64s", buf, status + 8, sname.encode("ascii")
                    )
                    seg = _shared_memory.SharedMemory(
                        name=sname, create=True, size=len(out)
                    )
                    _untrack(seg)
                    seg.buf[: len(out)] = out
                    seg.close()
                    _publish(buf, coff, ticket, b"", len(out), _FLAG_SPILLED,
                             sname.encode("ascii"), t_start)
                else:
                    _publish(buf, coff, ticket, out, len(out), 0, b"", t_start)
                completion_sem.release()
                _beat()
                ticket += 1
                progressed = True
            if not progressed:
                if not submit_sem.acquire(True, 0.1):
                    try:
                        if os.getppid() != parent_pid:
                            return  # orphaned: parent died without close()
                    except OSError:  # pragma: no cover
                        return
    finally:
        try:
            control.close()
        except (BufferError, OSError):  # pragma: no cover
            pass


# -- parent ------------------------------------------------------------------


@dataclass
class _Inflight:
    """Parent-side record of one submitted ticket."""

    task_index: int
    t_submit: float
    spill: Any = None  # parent-created SharedMemory for oversized tasks


@dataclass
class RingRunReport:
    """What one :meth:`PinnedWorkerPool.run_tasks` batch actually did.

    ``results`` and ``dispatch_latencies_s`` are in input-task order;
    a latency is worker pickup time minus parent submit time (the ring
    analogue of executor submit→start).  ``max_queue_depth`` is the
    peak number of tasks in flight across all rings.
    """

    results: list
    dispatch_latencies_s: list
    max_queue_depth: int
    respawns: int


def _teardown(control, procs, submit_sems, live_spills, geo) -> None:
    """Shutdown/finalizer target (must not reference the pool): stop
    the workers, then reclaim every segment the ring ever touched —
    announced orphans, unconsumed result spills, parent-side task
    spills, and the control segment itself.  Tolerates double calls
    and already-dead workers."""
    try:
        struct.pack_into("<Q", control.buf, 0, 1)  # shutdown flag
    except (ValueError, OSError, struct.error):
        pass
    for sem in submit_sems:
        try:
            sem.release()
        except Exception:
            pass
    for p in procs:
        if p is None:
            continue
        try:
            p.join(timeout=2.0)
        except Exception:
            pass
    for p in procs:
        if p is None:
            continue
        try:
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)
        except Exception:
            pass
    # Workers are gone: sweep the rings for spill names they own(ed).
    try:
        buf = control.buf
        for w in range(geo.n_workers):
            announce = struct.unpack_from("<64s", buf, geo.status(w) + 8)[0]
            announce = announce.split(b"\0", 1)[0]
            if announce:
                _unlink_quiet(announce.decode("ascii", "ignore"))
            for s in range(geo.depth):
                coff = geo.completion(w, s)
                (seq,) = struct.unpack_from("<Q", buf, coff)
                if not seq:
                    continue
                _length, flags, name_b, _ts = struct.unpack_from(
                    _HDR_FMT, buf, coff + 8
                )
                if flags & _FLAG_SPILLED:
                    # Already-consumed spills are unlinked (names are
                    # never reused, so a stale header cannot hit a
                    # live segment); _unlink_quiet ignores ENOENT.
                    _unlink_quiet(
                        name_b.split(b"\0", 1)[0].decode("ascii", "ignore")
                    )
    except (ValueError, OSError, struct.error):
        pass
    for seg in list(live_spills.values()):
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
        try:
            seg.close()
        except (BufferError, OSError):
            pass
    live_spills.clear()
    try:
        control.unlink()
    except (FileNotFoundError, OSError):
        pass
    try:
        control.close()
    except (BufferError, OSError):
        pass


class PinnedWorkerPool:
    """N pinned worker processes behind shared-memory task rings.

    Duck-types the slice of the :class:`~concurrent.futures.Executor`
    lifecycle the parallel layer uses (``shutdown(wait=,
    cancel_futures=)``), so :class:`~repro.host.parallel.
    ParallelConfig`'s persistent-pool machinery — lazy spawn, reuse,
    ``close()``, the ``weakref.finalize`` leak guard — applies
    unchanged.  Work goes through :meth:`run_tasks` (batch-in,
    batch-out) rather than per-task futures: the whole point is that
    submission is a slot memcpy plus a semaphore post.

    ``task_retries`` bounds respawn-and-resubmit per task when a
    worker dies mid-task; beyond it :class:`RingWorkerCrashed` is
    raised.  ``mp_context`` defaults to the platform's default
    multiprocessing context (the same one ``ProcessPoolExecutor``
    uses).
    """

    def __init__(self, n_workers: int, *, depth: int = RING_DEPTH,
                 slot_payload_bytes: int = RING_SLOT_PAYLOAD,
                 task_retries: int = 1, poll_timeout_s: float = 0.25,
                 mp_context=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if slot_payload_bytes < 1024:
            raise ValueError("slot_payload_bytes must be >= 1024")
        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if not shm_available():
            raise RingUnavailableError(SHM_UNAVAILABLE_REASON)
        self.n_workers = int(n_workers)
        self.task_retries = int(task_retries)
        self._poll_timeout = float(poll_timeout_s)
        self._geo = _Geometry(self.n_workers, int(depth), int(slot_payload_bytes))
        self._inflight_cap = min(_MAX_INFLIGHT, int(depth))
        self._ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        try:
            self._control = _shared_memory.SharedMemory(
                name=_new_segment_name(), create=True, size=self._geo.total_bytes
            )
        except (OSError, ValueError) as exc:
            raise RingUnavailableError(
                f"cannot create ring control segment: {exc}"
            ) from exc
        # Wake primitives are counting semaphores, NOT Events: an
        # Event.set() must handshake with every recorded sleeper
        # (Condition.notify blocks on _woken_count), so a worker
        # SIGKILLed while parked in Event.wait() leaves a stale
        # sleeper count that deadlocks the next set() — with the
        # condition lock held, which also wedges the respawned
        # worker.  sem_post never blocks and a killed waiter leaves
        # no state behind; surplus tokens just cause a spare ring
        # scan.
        self._submit_sems = [
            self._ctx.Semaphore(0) for _ in range(self.n_workers)
        ]
        self._completion_sem = self._ctx.Semaphore(0)
        self._procs: list = [None] * self.n_workers
        self._next_ticket = [0] * self.n_workers
        self._next_completion = [0] * self.n_workers
        self._inflight: list[dict[int, _Inflight]] = [
            {} for _ in range(self.n_workers)
        ]
        self._live_spills: dict[str, Any] = {}
        self._respawns = 0
        # Register the ring's metric families eagerly so the process
        # catalog (and the CI metrics-contract baseline) is complete
        # the moment a pool exists — a respawn or run only mutates.
        reg = _metrics.get_registry()
        self._m_respawns = reg.counter(
            "repro_ring_respawns_total",
            "Pinned workers respawned after dying.",
        )
        self._m_occupancy = reg.histogram(
            "repro_ring_occupancy",
            "Peak in-flight descriptor-slot occupancy per ring run.",
            buckets=tuple(float(2 ** i) for i in range(9)),
        )
        self._closed = False
        self._broken = False
        self._run_lock = threading.Lock()
        # Leak guard: a pool dropped (or an interpreter exiting)
        # without shutdown() still stops its workers and unlinks every
        # segment.  The target must not reference `self`.
        self._finalizer = weakref.finalize(
            self, _teardown, self._control, self._procs,
            self._submit_sems, self._live_spills, self._geo,
        )
        try:
            for w in range(self.n_workers):
                self._spawn_worker(w)
        except BaseException:
            self.shutdown(wait=False)
            raise

    # -- lifecycle --------------------------------------------------------

    def _spawn_worker(self, w: int) -> None:
        proc = self._ctx.Process(
            target=_pinned_worker_main,
            args=(self._control.name, w, self.n_workers, self._geo.depth,
                  self._geo.payload, self._submit_sems[w],
                  self._completion_sem, os.getpid()),
            name=f"repro-pinned-{w}",
            daemon=True,
        )
        proc.start()
        self._procs[w] = proc

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def respawns(self) -> int:
        """Workers respawned after dying (observability + tests)."""
        return self._respawns

    def worker_pids(self) -> list:
        return [p.pid for p in self._procs if p is not None]

    def heartbeats(self) -> list:
        """Per-worker progress counters (bumped at task pickup and
        completion) — the ring's stall-detection signal."""
        buf = self._control.buf
        return [
            struct.unpack_from("<Q", buf, self._geo.status(w))[0]
            for w in range(self.n_workers)
        ]

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Executor-compatible teardown (idempotent): stop workers and
        unlink every segment.  ``cancel_futures`` is accepted for
        signature compatibility — undelivered ring tasks simply die
        with their rings."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _teardown(self._control, self._procs, self._submit_sems,
                  self._live_spills, self._geo)

    def __enter__(self) -> "PinnedWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission / completion ------------------------------------------

    def _submit(self, w: int, task_index: int, tasks, queries_arg) -> None:
        ticket = self._next_ticket[w]
        t_sub = time.monotonic()
        blob = pickle.dumps(
            (tasks[task_index], queries_arg), protocol=pickle.HIGHEST_PROTOCOL
        )
        off = self._geo.submit(w, ticket)
        buf = self._control.buf
        rec = _Inflight(task_index, t_sub)
        if len(blob) <= self._geo.payload:
            _publish(buf, off, ticket, blob, len(blob), 0, b"", t_sub)
        else:
            name = _new_segment_name()
            seg = _shared_memory.SharedMemory(
                name=name, create=True, size=len(blob)
            )
            seg.buf[: len(blob)] = blob
            rec.spill = seg
            self._live_spills[name] = seg
            _publish(buf, off, ticket, b"", len(blob), _FLAG_SPILLED,
                     name.encode("ascii"), t_sub)
        self._inflight[w][ticket] = rec
        self._next_ticket[w] = ticket + 1
        self._submit_sems[w].release()

    def _release_spill(self, rec: _Inflight) -> None:
        if rec.spill is None:
            return
        self._live_spills.pop(rec.spill.name, None)
        try:
            rec.spill.unlink()
        except (FileNotFoundError, OSError):
            pass
        try:
            rec.spill.close()
        except (BufferError, OSError):
            pass
        rec.spill = None

    def _drain(self) -> list:
        """Consume every published completion across all rings."""
        buf = self._control.buf
        out = []
        for w in range(self.n_workers):
            while True:
                ticket = self._next_completion[w]
                coff = self._geo.completion(w, ticket)
                hdr = _peek(buf, coff, ticket)
                if hdr is None:
                    break
                length, flags, name, t_start = hdr
                blob = _read_payload(buf, coff, length, flags, name)
                if flags & _FLAG_SPILLED:
                    _unlink_quiet(name)
                self._next_completion[w] = ticket + 1
                ok, value = pickle.loads(blob)
                out.append((w, ticket, t_start, ok, value))
        return out

    # -- crash recovery ----------------------------------------------------

    def _reset_worker(self, w: int) -> None:
        """Zero a dead worker's rings and status, reclaim its announced
        orphan spill, and spawn a replacement onto the same slots."""
        buf = self._control.buf
        status = self._geo.status(w)
        announce = struct.unpack_from("<64s", buf, status + 8)[0].split(b"\0", 1)[0]
        if announce:
            _unlink_quiet(announce.decode("ascii", "ignore"))
        struct.pack_into("<64s", buf, status + 8, b"")
        struct.pack_into("<Q", buf, status, 0)
        base = self._geo.worker_base(w)
        for s in range(2 * self._geo.depth):
            struct.pack_into("<Q", buf, base + s * self._geo.slot_size, 0)
        for rec in self._inflight[w].values():
            self._release_spill(rec)
        self._inflight[w] = {}
        self._next_ticket[w] = 0
        self._next_completion[w] = 0
        while self._submit_sems[w].acquire(False):
            pass  # drop tokens the dead worker never consumed
        old = self._procs[w]
        if old is not None:
            try:
                old.join(timeout=0.1)
            except Exception:
                pass
        self._spawn_worker(w)
        # One increment site feeds both the `respawns` property and the
        # registry counter — they cannot drift apart.
        self._respawns += 1
        self._m_respawns.inc()

    def _recover_worker(self, w: int, pending: deque,
                        crash_counts: dict) -> int:
        """A worker died mid-run: requeue its in-flight tasks (front of
        the queue, bounded by ``task_retries`` per task) and respawn.
        Returns the number of tasks reclaimed."""
        lost = [
            rec.task_index for _t, rec in sorted(self._inflight[w].items())
        ]
        for ti in lost:
            crash_counts[ti] = crash_counts.get(ti, 0) + 1
            if crash_counts[ti] > self.task_retries:
                self._broken = True
                raise RingWorkerCrashed(
                    f"pinned worker died {crash_counts[ti]} time(s) while "
                    f"executing task {ti} (task_retries={self.task_retries})"
                )
        self._reset_worker(w)
        for ti in reversed(lost):
            pending.appendleft(ti)
        return len(lost)

    # -- the batch entry ---------------------------------------------------

    def run_tasks(self, tasks: list, queries_arg) -> RingRunReport:
        """Execute ``tasks`` across the pinned workers.

        Results come back in input order.  A worker-side task exception
        re-raises here after outstanding work drains (matching
        ``Future.result()`` semantics on the executor path); a worker
        killed mid-task triggers respawn-and-resubmit, and
        :class:`RingWorkerCrashed` only if one task keeps killing its
        workers.
        """
        with self._run_lock:
            if self._closed or self._broken:
                raise RingBrokenError("pinned worker pool is closed or broken")
            if not tasks:
                return RingRunReport([], [], 0, 0)
            respawns_before = self._respawns
            for w in range(self.n_workers):
                # Heal workers that died while the pool sat idle:
                # nothing was in flight, so a plain reset suffices.
                if not self._procs[w].is_alive():
                    self._reset_worker(w)
            n = len(tasks)
            results: list = [None] * n
            latencies: list = [None] * n
            pending: deque = deque(range(n))
            crash_counts: dict[int, int] = {}
            done = 0
            outstanding = 0
            max_depth = 0
            error: BaseException | None = None

            def _consume(events) -> None:
                nonlocal done, outstanding, error
                for w, ticket, t_start, ok, value in events:
                    rec = self._inflight[w].pop(ticket)
                    self._release_spill(rec)
                    outstanding -= 1
                    done += 1
                    if ok:
                        results[rec.task_index] = value
                        latencies[rec.task_index] = max(
                            0.0, t_start - rec.t_submit
                        )
                    elif error is None:
                        error = value

            while True:
                if error is None:
                    while pending:
                        free = [
                            w for w in range(self.n_workers)
                            if len(self._inflight[w]) < self._inflight_cap
                        ]
                        if not free:
                            break
                        w = min(free, key=lambda i: len(self._inflight[i]))
                        self._submit(w, pending.popleft(), tasks, queries_arg)
                        outstanding += 1
                        max_depth = max(max_depth, outstanding)
                if (error is None and done >= n) or (
                    error is not None and outstanding == 0
                ):
                    break
                # Drain-then-wait: each completion posts one token
                # after publishing, so a completion landing between
                # the drain and the acquire wakes it immediately —
                # wakeups cannot be lost, and stale tokens only cost
                # one empty drain pass.
                events = self._drain()
                if events:
                    _consume(events)
                    continue
                if self._completion_sem.acquire(True, self._poll_timeout):
                    continue
                dead = [
                    w for w in range(self.n_workers)
                    if not self._procs[w].is_alive()
                ]
                if not dead:
                    continue
                _consume(self._drain())  # anything published before death
                for w in dead:
                    outstanding -= self._recover_worker(
                        w, pending, crash_counts
                    )
            if error is not None:
                raise error
            self._m_occupancy.observe(max_depth)
            return RingRunReport(
                results=results,
                dispatch_latencies_s=latencies,
                max_queue_depth=max_depth,
                respawns=self._respawns - respawns_before,
            )

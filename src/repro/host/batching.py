"""Query batching / admission layer for concurrent search callers.

A board partition pass costs the same host work whether the streamed
batch holds one query or hundreds: every pass reconfigures (or
cache-loads) the board and walks the partition once.  A service facing
millions of small callers therefore wins by *coalescing* — admitting
concurrent ``search()`` calls into one merged query batch per partition
pass and splitting the merged top-k back per caller.  Per-query results
are computed independently end to end (per-row distances, per-row
top-k selection, per-row merge), so the split rows are **bit-identical**
to what each caller would have gotten alone — tie-breaks included.

:class:`BatchRouter` implements the layer over anything with a
``search(queries) -> result`` method whose result carries row-aligned
``indices``/``distances`` — the local engine
(:class:`~repro.core.workload.WorkloadSearch`) and the remote one
(:class:`~repro.host.rpc.RemoteWorkloadSearch`) both qualify, and get
their ``batched()`` convenience constructor from :class:`Batchable`.

Admission policy
----------------

* ``max_batch`` — a collection round closes once the merged batch
  reaches this many query rows.  A single caller bringing more rows
  than ``max_batch`` is never split: it runs as its own batch.
* ``max_wait_ms`` — a **cap**, not a delay: the longest the collector
  waits for more callers after the first request of a round arrives.
  A round closes as soon as it holds as many callers as were inside
  ``search()`` at once since the previous dispatch began (the
  *head-count*), then takes whatever else is already queued.  So a
  lone caller is dispatched immediately; ``C`` closed-loop callers
  coalesce to ``C`` per batch from their second cycle on without
  waiting out the linger; a caller that leaves costs the others one
  capped round, after which the head-count has shrunk.  ``0``
  coalesces only what is already queued (greedy drain).
* ``max_pending`` — backpressure: the admission queue holds at most
  this many waiting requests; further ``search()`` calls **block** in
  the caller's thread until the collector drains the queue.  Overload
  therefore surfaces as latency at the edge instead of unbounded
  memory growth in the router.

``search()`` is thread-safe and blocking: callers get their own
result rows back (views into the batch result's arrays).  The router
is a context manager; :meth:`~BatchRouter.close` drains every admitted
request before returning, so no caller is ever left hanging.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..perf import metrics as _metrics
from ..util.bitops import is_binary

__all__ = [
    "BatchRouter",
    "QueryBatcher",
    "BatchedResult",
    "BatchRouterStats",
    "Batchable",
]


@dataclass
class BatchRouterStats:
    """Coalescing accounting: how well admission amortized passes."""

    calls: int = 0  # caller search() requests admitted
    batches: int = 0  # engine searches actually issued
    rows: int = 0  # total query rows routed
    max_batch_rows: int = 0  # largest merged batch seen
    early_dispatches: int = 0  # rounds closed on head-count before the cap

    @property
    def coalescing_ratio(self) -> float:
        """Mean callers per engine pass (1.0 = batching bought nothing)."""
        return self.calls / self.batches if self.batches else 0.0


@dataclass
class BatchedResult:
    """One caller's slice of a coalesced batch result.

    ``indices``/``distances`` are this caller's rows (views into the
    batch arrays).  ``counters`` is shared by every caller of the same
    batch — the physical pass ran once, so its event counts exist once;
    aggregate by unique object (``id``) when summing across calls.
    """

    indices: np.ndarray
    distances: np.ndarray
    k: int
    counters: Any
    execution: str
    batch_rows: int  # merged batch size this result was computed in
    batch_calls: int  # callers coalesced into that batch
    # Degradation accounting forwarded from searchers that report it
    # (the remote fan-out of repro.host.rpc): shards missing from the
    # batch this slice came out of.  Empty for local engines.
    failed_shards: tuple = ()
    # Replication accounting forwarded the same way: failovers/hedged
    # re-issues the batch this slice came out of needed (0 locally).
    failovers: int = 0
    hedges: int = 0
    # This caller's full workload-typed result slice, set when the
    # searcher exposes a ``split_result`` hook (the generic workload
    # engines): similarities, ragged hit counts, and any other
    # workload-specific fields live here; ``indices``/``distances``
    # above stay the common denominator every caller can rely on.
    result: Any = None

    @property
    def partial(self) -> bool:
        return bool(self.failed_shards)


@dataclass
class _Request:
    queries: np.ndarray
    admitted_at: float = 0.0  # perf_counter stamp at admission
    done: threading.Event = field(default_factory=threading.Event)
    result: BatchedResult | None = None
    error: BaseException | None = None


_CLOSE = object()  # sentinel: collector drains and exits


class BatchRouter:
    """Coalesce concurrent ``search()`` callers into merged engine passes.

    Parameters
    ----------
    searcher:
        Any object with ``search(queries_bits) -> result`` where the
        result has row-aligned ``indices``/``distances`` plus ``k``,
        ``counters``, and ``execution`` attributes.
    max_batch:
        Close a collection round at this many merged query rows.
    max_wait_ms:
        Cap on the linger after a round's first request: the round
        closes earlier, as soon as every caller seen in flight since
        the previous dispatch began is in it.  ``0`` = drain-only.
    max_pending:
        Bound of the admission queue; full ⇒ ``search()`` blocks
        (backpressure at the caller).
    """

    def __init__(
        self,
        searcher: Any,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.searcher = searcher
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.stats = BatchRouterStats()
        self._queue: queue.Queue = queue.Queue(maxsize=int(max_pending))
        self._closed = threading.Event()
        self._stats_lock = threading.Lock()
        # Head-count admission: callers inside search() (admitted, not
        # yet answered) and the most there were since the previous
        # dispatch began.  The peak, not the last batch size: "as many
        # as last time" has a stable bad equilibrium of alternating
        # one-caller batches.
        self._head_lock = threading.Lock()
        self._in_flight = 0
        self._in_flight_peak = 0
        # Registry children captured once; mutators are no-ops when the
        # process registry is disabled (zero-hot-path contract).
        reg = _metrics.get_registry()
        self._m_calls = reg.counter(
            "repro_router_requests_total",
            "Caller search() requests admitted by the batch router.",
        )
        self._m_batches = reg.counter(
            "repro_router_batches_total",
            "Merged engine passes the router actually issued.",
        )
        self._m_rows = reg.counter(
            "repro_router_rows_total", "Query rows routed through admission."
        )
        self._m_depth = reg.gauge(
            "repro_router_queue_depth",
            "Requests waiting in the admission queue.",
        )
        self._m_wait = reg.histogram(
            "repro_router_wait_seconds",
            "Admission-to-dispatch wait per caller request.",
        )
        self._m_early = reg.counter(
            "repro_router_early_dispatch_total",
            "Collection rounds closed on head-count before the max_wait cap.",
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-batch-router", daemon=True
        )
        self._collector.start()

    # -- caller side ------------------------------------------------------

    def search(self, queries_bits: np.ndarray) -> BatchedResult:
        """Admit one caller's query rows; block until its slice is ready.

        Backpressure: blocks while the admission queue is full.  Raises
        whatever the underlying engine raised for this caller's batch.
        """
        if self._closed.is_set():
            raise RuntimeError("BatchRouter is closed")
        queries_bits = np.asarray(queries_bits)
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        # Admission-time validation: a malformed request must fail its
        # own caller here, not poison every innocent caller coalesced
        # into the same merged batch.  Checked against the searcher's
        # contract when it exposes one (both engines do).
        if queries_bits.ndim != 2:
            raise ValueError("queries must be a (q, d) array")
        d = getattr(self.searcher, "d", None)
        if d is not None:
            if queries_bits.shape[1] != d:
                raise ValueError(
                    f"queries have d={queries_bits.shape[1]}, searcher d={d}"
                )
            if not is_binary(queries_bits):
                raise ValueError("queries must be binary (0/1)")
        req = _Request(queries=queries_bits, admitted_at=time.perf_counter())
        with self._head_lock:
            self._in_flight += 1
            self._in_flight_peak = max(self._in_flight_peak, self._in_flight)
        try:
            return self._await(req)
        finally:
            with self._head_lock:
                self._in_flight -= 1

    def _await(self, req: _Request) -> BatchedResult:
        """Queue an admitted request and block until it is answered."""
        # Blocks when max_pending is reached (backpressure) — but in
        # bounded slices, so a caller racing close() against a full
        # queue with no collector left to drain it fails instead of
        # blocking forever.
        while True:
            try:
                self._queue.put(req, timeout=0.5)
                break
            except queue.Full:
                if self._closed.is_set() and not self._collector.is_alive():
                    raise RuntimeError(
                        "BatchRouter closed during admission"
                    ) from None
        self._m_depth.set(self._queue.qsize())
        # Liveness-aware wait: if close() raced this admission and the
        # collector is already gone, fail instead of hanging forever.
        while not req.done.wait(timeout=0.5):
            if self._closed.is_set() and not self._collector.is_alive():
                if not req.done.is_set():
                    req.error = RuntimeError(
                        "BatchRouter closed during admission"
                    )
                    req.done.set()
                break
        if req.error is not None:
            raise req.error
        assert req.result is not None
        return req.result

    # -- collector side ---------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            batch = [item]
            rows = item.queries.shape[0]
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            early = False
            while rows < self.max_batch:
                timeout = deadline - time.monotonic()
                # Everyone seen in flight is here: stop waiting, take
                # only what is already queued.
                full_house = len(batch) >= self._in_flight_peak
                if full_house and timeout > 0:
                    early = True
                try:
                    nxt = (
                        self._queue.get_nowait()
                        if timeout <= 0 or full_house
                        else self._queue.get(timeout=timeout)
                    )
                except queue.Empty:
                    break
                if nxt is _CLOSE:
                    # Dispatch what we have, then exit; close() already
                    # stopped admissions, so nothing can arrive after.
                    self._dispatch(batch, rows, early)
                    return
                batch.append(nxt)
                rows += nxt.queries.shape[0]
            self._dispatch(batch, rows, early)

    def _dispatch(self, batch: list[_Request], rows: int, early: bool) -> None:
        with self._head_lock:
            # The next round's head-count starts from who is in flight
            # now; callers arriving while this batch runs raise it.
            self._in_flight_peak = self._in_flight
        try:
            self._m_depth.set(self._queue.qsize())
            if _metrics.get_registry().enabled:
                now = time.perf_counter()
                stage_hist = _metrics.stage_histogram().labels(stage="admission")
                for req in batch:
                    wait = now - req.admitted_at
                    self._m_wait.observe(wait)
                    stage_hist.observe(wait)
            merged = (
                batch[0].queries
                if len(batch) == 1
                else np.concatenate([r.queries for r in batch], axis=0)
            )
            result = self.searcher.search(merged)
            # One site feeds both accountings: the registry counters and
            # the ad-hoc BatchRouterStats move together, so the snapshot
            # and `router.stats` can never disagree.
            with self._stats_lock:
                self.stats.calls += len(batch)
                self.stats.batches += 1
                self.stats.rows += rows
                self.stats.max_batch_rows = max(self.stats.max_batch_rows, rows)
                self.stats.early_dispatches += early
            self._m_calls.inc(len(batch))
            if early:
                self._m_early.inc()
            self._m_batches.inc()
            self._m_rows.inc(rows)
            # Searchers with workload-typed results (WorkloadSearch,
            # RemoteWorkloadSearch) expose split_result: slicing every
            # workload field is their job, not this router's.
            splitter = getattr(self.searcher, "split_result", None)
            common = dict(
                k=result.k,
                counters=result.counters,
                execution=result.execution,
                batch_rows=rows,
                batch_calls=len(batch),
                failed_shards=tuple(getattr(result, "failed_shards", ())),
                failovers=int(getattr(result, "failovers", 0)),
                hedges=int(getattr(result, "hedges", 0)),
            )
            lo = 0
            for req in batch:
                hi = lo + req.queries.shape[0]
                if splitter is not None:
                    sliced = splitter(result, lo, hi)
                    req.result = BatchedResult(
                        indices=sliced.indices,
                        distances=getattr(sliced, "distances", None),
                        result=sliced,
                        **common,
                    )
                else:
                    req.result = BatchedResult(
                        indices=result.indices[lo:hi],
                        distances=result.distances[lo:hi],
                        **common,
                    )
                lo = hi
        except BaseException as exc:  # engine failure fails the whole batch
            for req in batch:
                req.error = exc
        finally:
            for req in batch:
                req.done.set()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop admissions, drain every pending request, join the collector.

        Idempotent.  Requests admitted before ``close()`` all complete;
        ``search()`` after (or during) close raises ``RuntimeError``.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._queue.put(_CLOSE)
        self._collector.join()
        # The collector exited at the sentinel; anything it had not yet
        # pulled sits behind it only if callers raced close() — fail
        # them loudly rather than leaving their threads waiting forever.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is _CLOSE:
                continue
            leftover.error = RuntimeError("BatchRouter closed during admission")
            leftover.done.set()

    def __enter__(self) -> "BatchRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The paper-facing name: the router IS the query batcher of the
# millions-of-users serving story.
QueryBatcher = BatchRouter


class Batchable:
    """Mixin for searchers: the one ``batched()`` constructor."""

    def batched(
        self,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
    ) -> BatchRouter:
        """A :class:`BatchRouter` over this searcher.

        Concurrent callers' ``search()`` calls coalesce into one merged
        query batch per partition pass and split back bit-identically —
        the admission layer for many small concurrent callers.  Close
        the router (or use it as a context manager) when done.
        """
        return BatchRouter(
            self,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
        )

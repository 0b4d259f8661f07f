"""Replica groups: failover, hedged reads, and health tracking.

A :class:`ReplicaGroup` wraps N :class:`~repro.host.rpc.RemoteShard`
clients that serve the *same* shard index (same rows, same global
offset) and exposes the single-shard client surface — ``info()``,
``search()``, ``search_workload()``, ``ping()``, byte counters — so
:class:`~repro.host.rpc.RemoteShardPool` fans out per group without
knowing replicas exist.  Three mechanisms turn replication into
availability:

**Primary selection by tracked health.**  Every replica carries a
:class:`ReplicaHealth`: an EWMA of observed request latency, a bounded
window of recent latencies (for the hedge-delay quantile), and a
consecutive-failure circuit breaker.  ``_FAILURE_THRESHOLD`` straight
failures open the breaker; an open breaker stops attracting primary
traffic until ``_OPEN_COOLDOWN_S`` has passed, after which it is
*half-open* — the next request may probe it, one success re-closes it,
a failed probe re-opens it with a fresh cooldown.  Candidates are
ranked (closed < half-open < open, then by EWMA), and an open breaker
is never a reason to refuse outright: with every breaker open the
group still tries everything rather than manufacturing a partial
result.

**Failover.**  A failed attempt (connect error, timeout, reset,
protocol violation, server-side error) immediately launches the next
candidate instead of surfacing the failure; the group only raises when
every replica failed.  The pool therefore marks a slot
``failed_shards`` only when the *group* is exhausted.

**Hedged reads.**  With two or more replicas, a request that has not
answered within the hedge delay gets one speculative duplicate on the
next-best replica; the first complete answer wins and the loser's
in-flight connection is aborted (it reconnects fresh next use, and its
cancellation is not counted as a health failure).  The delay adapts:
``_HEDGE_FACTOR`` x the observed p95 latency across the group, clamped
to ``[_HEDGE_MIN_DELAY_S, _HEDGE_MAX_DELAY_S]``, with
``_HEDGE_INITIAL_DELAY_S`` standing in until enough observations exist
— or pin it with ``fixed_delay_s`` (the CLI's ``--hedge-delay-ms``).
Requests are idempotent reads, so a duplicated search is merely
redundant work, never a correctness hazard.

Groups parse from the address syntax ``host:port|host:port`` (the CLI
accepts it anywhere a shard address goes); a plain ``host:port`` is a
group of one that bypasses the executor entirely — the unreplicated
rack pays nothing for this layer.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

from ..perf import metrics as _metrics

__all__ = [
    "HedgePolicy",
    "ReplicaHealth",
    "ReplicaGroup",
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

# Per-replica health tracking and the circuit breaker.
_FAILURE_THRESHOLD = 3  # consecutive failures that open the breaker
_OPEN_COOLDOWN_S = 1.0  # open -> half-open (probe allowed) delay
_EWMA_ALPHA = 0.2  # weight of the newest latency sample
_LATENCY_WINDOW = 64  # samples kept for quantile estimates

# The adaptive hedge delay: _HEDGE_FACTOR x the group's observed
# p(_HEDGE_QUANTILE) latency, clamped to [_HEDGE_MIN_DELAY_S,
# _HEDGE_MAX_DELAY_S], with _HEDGE_INITIAL_DELAY_S used until
# _HEDGE_MIN_OBSERVATIONS samples exist.
_HEDGE_QUANTILE = 0.95
_HEDGE_FACTOR = 1.5
_HEDGE_MIN_DELAY_S = 0.002
_HEDGE_MAX_DELAY_S = 1.0
_HEDGE_INITIAL_DELAY_S = 0.05
_HEDGE_MIN_OBSERVATIONS = 3


def _breaker_transitions():
    """Transitions counter, labeled by the state entered.  ``half-open``
    is derived from the clock (no stored event), so only ``open`` and
    ``closed`` entries are countable transitions."""
    return _metrics.get_registry().counter(
        "repro_replica_breaker_transitions_total",
        "Circuit-breaker state entries across all replica groups.",
        labelnames=("to",),
    )


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative re-issue of slow requests.

    ``enabled=False`` turns hedging off (failover still applies);
    ``fixed_delay_s`` pins the hedge delay outright, which otherwise
    adapts to the group's observed latency (the ``_HEDGE_*`` constants).
    """

    enabled: bool = True
    fixed_delay_s: float | None = None


class ReplicaHealth:
    """Observed health of one replica.

    Tracks an EWMA of request latency, a bounded recent-latency window,
    and a consecutive-failure circuit breaker.  The breaker state is
    *derived* from ``(_opened_at, clock)`` rather than stored, so
    open -> half-open needs no timer thread; ``clock`` is injectable
    for deterministic tests.  Thread-safe: the group's hedged path
    resolves futures on one thread, but probes and user code may read
    concurrently.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self.ewma_latency_s: float | None = None
        self.latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.consecutive_failures = 0
        self.successes = 0
        self.failures = 0
        self._opened_at: float | None = None

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return STATE_CLOSED
        if self._clock() - self._opened_at >= _OPEN_COOLDOWN_S:
            return STATE_HALF_OPEN
        return STATE_OPEN

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def record_success(self, latency_s: float) -> None:
        with self._lock:
            self.successes += 1
            self.consecutive_failures = 0
            reclosed = self._opened_at is not None
            self._opened_at = None  # a success (incl. a probe) re-closes
            alpha = _EWMA_ALPHA
            if self.ewma_latency_s is None:
                self.ewma_latency_s = float(latency_s)
            else:
                self.ewma_latency_s = (
                    (1.0 - alpha) * self.ewma_latency_s + alpha * latency_s
                )
            self.latencies.append(float(latency_s))
        if reclosed:
            _breaker_transitions().labels(to=STATE_CLOSED).inc()

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self.consecutive_failures += 1
            # A failed half-open probe re-opens with a FRESH cooldown;
            # below the threshold a closed breaker stays closed.
            opened = False
            if (
                self._state_locked() != STATE_CLOSED
                or self.consecutive_failures >= _FAILURE_THRESHOLD
            ):
                self._opened_at = self._clock()
                opened = True
        if opened:
            _breaker_transitions().labels(to=STATE_OPEN).inc()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "ewma_latency_s": self.ewma_latency_s,
                "consecutive_failures": self.consecutive_failures,
                "successes": self.successes,
                "failures": self.failures,
            }


def parse_group_spec(spec) -> list[str]:
    """``"a:1|b:2"`` (or an iterable of addresses) -> address list."""
    if isinstance(spec, str):
        parts = [a.strip() for a in spec.split("|")]
    else:
        parts = [str(a).strip() for a in spec]
    parts = [a for a in parts if a]
    if not parts:
        raise ValueError(f"empty replica group spec {spec!r}")
    return parts


class ReplicaGroup:
    """N replicas of one shard behind the single-shard client surface.

    See the module docstring for the availability model.  Like
    :class:`~repro.host.rpc.RemoteShard`, a group is driven by one pool
    lane per batch; the internal executor exists only to overlap a
    hedge/failover with the request it is backing up.
    """

    def __init__(
        self,
        spec,
        timeout_s: float = 10.0,
        connect_timeout_s: float = 5.0,
        retries: int = 1,
        hedge: HedgePolicy | None = None,
        clock=time.monotonic,
    ):
        from .rpc import RemoteShard

        addresses = parse_group_spec(spec)
        self.replicas = [
            RemoteShard(
                addr, timeout_s=timeout_s,
                connect_timeout_s=connect_timeout_s, retries=retries,
            )
            for addr in addresses
        ]
        self.address = "|".join(s.address for s in self.replicas)
        self.hedge = hedge or HedgePolicy()
        self.health = [ReplicaHealth(clock=clock) for _ in self.replicas]
        self._clock = clock
        self._lock = threading.Lock()  # counters + executor lifecycle
        self._executor_pool: ThreadPoolExecutor | None = None
        self._info = None  # first successful handshake, for agreement checks
        self.failovers = 0
        self.hedges = 0
        self.hedge_wins = 0
        # Registry twins of the three counters above: each increment
        # site bumps both, so snapshot and attribute always agree.
        reg = _metrics.get_registry()
        self._m_failovers = reg.counter(
            "repro_replica_failovers_total",
            "Failed attempts that launched the next replica candidate.",
        )
        self._m_hedges = reg.counter(
            "repro_replica_hedges_total",
            "Speculative duplicate requests launched by the hedge timer.",
        )
        self._m_hedge_wins = reg.counter(
            "repro_replica_hedge_wins_total",
            "Hedged duplicates that answered before the primary.",
        )
        # Registered (not incremented) here so the family appears in
        # the catalog before any breaker ever trips.
        _breaker_transitions()

    # -- surface parity with RemoteShard -----------------------------------

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def bytes_sent(self) -> int:
        return sum(s.bytes_sent for s in self.replicas)

    @property
    def bytes_received(self) -> int:
        return sum(s.bytes_received for s in self.replicas)

    def _drop_connection(self) -> None:
        for shard in self.replicas:
            shard.close()  # drops under the shard's own lock; reusable

    def health_snapshot(self) -> list[dict]:
        out = []
        for shard, h in zip(self.replicas, self.health):
            snap = h.snapshot()
            snap["address"] = shard.address
            out.append(snap)
        return out

    # -- candidate ranking --------------------------------------------------

    def _candidates(self) -> list[int]:
        """Replica indices in attempt order: healthiest first, but every
        replica is always a candidate — an open breaker deprioritizes,
        it never refuses (refusing would fabricate a partial result)."""
        rank = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}

        def key(i: int):
            h = self.health[i]
            ewma = h.ewma_latency_s
            return (
                rank[h.state],
                ewma if ewma is not None else math.inf,
                i,
            )

        return sorted(range(len(self.replicas)), key=key)

    # -- hedge delay --------------------------------------------------------

    def _hedge_delay(self) -> float:
        if self.hedge.fixed_delay_s is not None:
            return max(0.0, float(self.hedge.fixed_delay_s))
        samples: list[float] = []
        for h in self.health:
            samples.extend(h.latencies)
        if len(samples) < _HEDGE_MIN_OBSERVATIONS:
            return _HEDGE_INITIAL_DELAY_S
        samples.sort()
        idx = min(
            len(samples) - 1,
            max(0, math.ceil(_HEDGE_QUANTILE * len(samples)) - 1),
        )
        return min(
            _HEDGE_MAX_DELAY_S,
            max(_HEDGE_MIN_DELAY_S, _HEDGE_FACTOR * samples[idx]),
        )

    # -- request execution --------------------------------------------------

    def _timed(self, i: int, op):
        shard = self.replicas[i]
        shard._clear_abort()
        t0 = time.perf_counter()
        result = op(shard)
        return result, time.perf_counter() - t0

    def _call(self, i: int, op):
        """One attempt on replica ``i``, recording its health."""
        from .rpc import RemoteShardError, RpcProtocolError

        try:
            result, latency = self._timed(i, op)
        except (RemoteShardError, RpcProtocolError, OSError):
            self.health[i].record_failure()
            raise
        self.health[i].record_success(latency)
        return result

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor_pool is None:
                self._executor_pool = ThreadPoolExecutor(
                    max_workers=max(2, len(self.replicas)),
                    thread_name_prefix=f"repro-replica-{self.address}",
                )
            return self._executor_pool

    def _run(self, op):
        from .rpc import RemoteShardError

        order = self._candidates()
        if len(order) == 1:
            return self._call(order[0], op)
        if self.hedge.enabled:
            return self._run_hedged(op, order)
        # Failover without hedging: strictly sequential attempts.
        errors: list[str] = []
        last_exc: Exception | None = None
        for pos, i in enumerate(order):
            try:
                return self._call(i, op)
            except (RemoteShardError, OSError) as exc:
                errors.append(f"{self.replicas[i].address}: {exc}")
                last_exc = exc
                if pos + 1 < len(order):
                    with self._lock:
                        self.failovers += 1
                    self._m_failovers.inc()
        raise RemoteShardError(
            f"replica group {self.address}: all {len(order)} replica(s) "
            f"failed: {'; '.join(errors)}"
        ) from last_exc

    def _run_hedged(self, op, order: list[int]):
        """Primary + at most one hedge, plus failover on any failure.

        One launch per candidate at most; the first success wins and
        every other in-flight attempt is aborted (not a health event
        for the loser).  Failures launch the next candidate
        immediately; the hedge timer launches one speculative duplicate
        while the primary is merely *slow*.
        """
        from .rpc import RemoteShardError, RpcProtocolError

        pool = self._executor()
        inflight: dict = {}
        aborted: set[int] = set()
        errors: list[str] = []
        last_exc: Exception | None = None
        hedged_replica: int | None = None
        nxt = 0

        def launch() -> int:
            nonlocal nxt
            i = order[nxt]
            nxt += 1
            inflight[pool.submit(self._timed, i, op)] = i
            return i

        launch()
        hedge_at: float | None = time.monotonic() + self._hedge_delay()
        while inflight:
            timeout = None
            if hedge_at is not None and nxt < len(order):
                timeout = max(0.0, hedge_at - time.monotonic())
            done, _ = wait(
                list(inflight), timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Hedge timer fired: one speculative duplicate, then
                # any further launches come from failures only.
                hedge_at = None
                with self._lock:
                    self.hedges += 1
                self._m_hedges.inc()
                hedged_replica = launch()
                continue
            for future in done:
                i = inflight.pop(future)
                try:
                    result, latency = future.result()
                except (RemoteShardError, RpcProtocolError, OSError) as exc:
                    if i in aborted:
                        continue  # our own cancellation, not a failure
                    self.health[i].record_failure()
                    errors.append(f"{self.replicas[i].address}: {exc}")
                    last_exc = exc
                    if nxt < len(order):
                        with self._lock:
                            self.failovers += 1
                        self._m_failovers.inc()
                        launch()
                    continue
                self.health[i].record_success(latency)
                if i == hedged_replica:
                    with self._lock:
                        self.hedge_wins += 1
                    self._m_hedge_wins.inc()
                for loser in inflight.values():
                    aborted.add(loser)
                    self.replicas[loser].abort()
                return result
        raise RemoteShardError(
            f"replica group {self.address}: all {nxt} attempt(s) failed: "
            f"{'; '.join(errors)}"
        ) from last_exc

    # -- requests -----------------------------------------------------------

    def _check_info(self, info):
        """Replicas must agree on the shard they serve — a replica with
        different rows would silently corrupt merges, so disagreement
        is a loud configuration error, not a failover."""
        if self._info is None:
            self._info = info
            return info
        known = self._info
        if (info.n, info.d, info.offset) != (known.n, known.d, known.offset):
            raise ValueError(
                f"replica group {self.address}: replicas disagree on the "
                f"shard: (n={info.n}, d={info.d}, offset={info.offset}) vs "
                f"(n={known.n}, d={known.d}, offset={known.offset})"
            )
        return info

    def info(self):
        return self._check_info(self._run(lambda shard: shard.info()))

    def ping(self) -> bool:
        return bool(self._run(lambda shard: shard.ping()))

    def search(self, queries_bits, k: int):
        return self._run(lambda shard: shard.search(queries_bits, k))

    def search_workload(self, queries_bits, workload_name: str, params: dict):
        return self._run(
            lambda shard: shard.search_workload(
                queries_bits, workload_name, params
            )
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drop every replica connection and release the executor.

        Reusable, like ``RemoteShard.close()`` — the pool calls it both
        to force fresh connections after a desync and at teardown; the
        executor is rebuilt lazily if the group serves again.
        """
        with self._lock:
            pool, self._executor_pool = self._executor_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        for shard in self.replicas:
            shard.abort()  # unblock any in-flight loser immediately
            shard.close()
            shard._clear_abort()

    def __enter__(self) -> "ReplicaGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

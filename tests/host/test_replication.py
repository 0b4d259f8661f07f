"""Tests for the availability layer (repro.host.replication).

Covers the health model (EWMA, breaker transitions closed -> open ->
half-open -> closed with an injectable clock), candidate ranking, the
hedge-delay estimator, group failover against real in-thread servers,
pool integration with ``host:port|host:port`` group specs (a replicated
rack's answers are the oracle's: ``tests/integration/
test_bit_identity.py``), and the reconnect backoff
satellite (delay schedule, jitter bounds, connect-vs-request failure
accounting in the final error).
"""

import socket
import threading

import numpy as np
import pytest

from repro.core.engine import APSimilaritySearch
from repro.host import replication
from repro.host.replication import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    HedgePolicy,
    ReplicaGroup,
    ReplicaHealth,
    parse_group_spec,
)
from repro.host.rpc import (
    RemoteMultiBoardSearch,
    RemoteShard,
    RemoteShardError,
    RemoteShardPool,
    ShardServer,
)


def _workload(n=120, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _addr(server) -> str:
    return "{}:{}".format(*server.address)


def _set_health(monkeypatch, **policy):
    """Set the breaker / health constants for one test:
    ``failure_threshold=1`` sets ``_FAILURE_THRESHOLD``, and so on."""
    for name, value in policy.items():
        monkeypatch.setattr(replication, f"_{name.upper()}", value)


def _set_hedge(monkeypatch, **policy):
    """Set the adaptive hedge-delay constants for one test:
    ``factor=2.0`` sets ``_HEDGE_FACTOR``, and so on."""
    for name, value in policy.items():
        monkeypatch.setattr(replication, f"_HEDGE_{name.upper()}", value)


def _dead_port() -> int:
    """A localhost port with nothing listening on it."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class _Clock:
    """Injectable monotonic clock for deterministic breaker tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- health model ----------------------------------------------------------


class TestReplicaHealth:
    def _health(self, monkeypatch, **policy):
        clock = _Clock()
        _set_health(monkeypatch, **policy)
        return ReplicaHealth(clock=clock), clock

    def test_starts_closed(self, monkeypatch):
        h, _ = self._health(monkeypatch)
        assert h.state == STATE_CLOSED

    def test_stays_closed_below_threshold(self, monkeypatch):
        h, _ = self._health(monkeypatch, failure_threshold=3)
        h.record_failure()
        h.record_failure()
        assert h.state == STATE_CLOSED
        assert h.consecutive_failures == 2

    def test_opens_at_threshold(self, monkeypatch):
        h, _ = self._health(monkeypatch, failure_threshold=3)
        for _ in range(3):
            h.record_failure()
        assert h.state == STATE_OPEN

    def test_success_resets_consecutive_failures(self, monkeypatch):
        h, _ = self._health(monkeypatch, failure_threshold=3)
        h.record_failure()
        h.record_failure()
        h.record_success(0.01)
        assert h.consecutive_failures == 0
        h.record_failure()
        h.record_failure()
        assert h.state == STATE_CLOSED  # the streak restarted

    def test_open_becomes_half_open_after_cooldown(self, monkeypatch):
        h, clock = self._health(
            monkeypatch, failure_threshold=1, open_cooldown_s=2.0
        )
        h.record_failure()
        assert h.state == STATE_OPEN
        clock.advance(1.9)
        assert h.state == STATE_OPEN
        clock.advance(0.1)
        assert h.state == STATE_HALF_OPEN

    def test_half_open_probe_success_closes(self, monkeypatch):
        h, clock = self._health(
            monkeypatch, failure_threshold=1, open_cooldown_s=1.0
        )
        h.record_failure()
        clock.advance(1.0)
        assert h.state == STATE_HALF_OPEN
        h.record_success(0.02)
        assert h.state == STATE_CLOSED

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self, monkeypatch):
        h, clock = self._health(
            monkeypatch, failure_threshold=3, open_cooldown_s=1.0
        )
        for _ in range(3):
            h.record_failure()
        clock.advance(1.0)
        assert h.state == STATE_HALF_OPEN
        # ONE failed probe re-opens — no need for a fresh threshold run
        h.record_failure()
        assert h.state == STATE_OPEN
        clock.advance(0.5)
        assert h.state == STATE_OPEN  # the cooldown restarted at the probe
        clock.advance(0.5)
        assert h.state == STATE_HALF_OPEN

    def test_ewma_tracks_latency(self, monkeypatch):
        h, _ = self._health(monkeypatch, ewma_alpha=0.5)
        h.record_success(0.1)
        assert h.ewma_latency_s == pytest.approx(0.1)
        h.record_success(0.3)
        assert h.ewma_latency_s == pytest.approx(0.2)
        h.record_success(0.2)
        assert h.ewma_latency_s == pytest.approx(0.2)

    def test_latency_window_is_bounded(self, monkeypatch):
        h, _ = self._health(monkeypatch, latency_window=4)
        for i in range(10):
            h.record_success(float(i))
        assert list(h.latencies) == [6.0, 7.0, 8.0, 9.0]

    def test_snapshot_fields(self, monkeypatch):
        h, _ = self._health(monkeypatch)
        h.record_success(0.05)
        h.record_failure()
        snap = h.snapshot()
        assert snap["state"] == STATE_CLOSED
        assert snap["successes"] == 1
        assert snap["failures"] == 1
        assert snap["consecutive_failures"] == 1
        assert snap["ewma_latency_s"] == pytest.approx(0.05)


# -- group spec parsing ----------------------------------------------------


class TestParseGroupSpec:
    def test_pipe_string(self):
        assert parse_group_spec("a:1|b:2") == ["a:1", "b:2"]

    def test_single_address(self):
        assert parse_group_spec("a:1") == ["a:1"]

    def test_iterable(self):
        assert parse_group_spec(("a:1", "b:2")) == ["a:1", "b:2"]

    def test_whitespace_stripped(self):
        assert parse_group_spec(" a:1 | b:2 ") == ["a:1", "b:2"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty replica group"):
            parse_group_spec("|")


# -- candidate ranking and hedge delay (no sockets involved) ---------------


def _offline_group(n_replicas=2, **kwargs):
    """A group over dead addresses — fine for ranking/delay logic, which
    never touches the network."""
    spec = "|".join(f"127.0.0.1:{9 + i}" for i in range(n_replicas))
    return ReplicaGroup(spec, **kwargs)


class TestCandidateRanking:
    def test_untried_replicas_in_index_order(self):
        g = _offline_group(3)
        assert g._candidates() == [0, 1, 2]

    def test_lower_ewma_wins_within_state(self):
        g = _offline_group(3)
        g.health[0].record_success(0.3)
        g.health[1].record_success(0.1)
        g.health[2].record_success(0.2)
        assert g._candidates() == [1, 2, 0]

    def test_tried_beats_untried(self):
        # a replica with ANY latency sample ranks ahead of an unknown one
        g = _offline_group(2)
        g.health[1].record_success(5.0)
        assert g._candidates() == [1, 0]

    def test_open_breaker_ranks_last_but_stays_a_candidate(self, monkeypatch):
        _set_health(monkeypatch, failure_threshold=1)
        g = _offline_group(2)
        g.health[0].record_success(0.01)  # fast...
        for _ in range(2):
            g.health[0].record_failure()  # ...but its breaker is open
        g.health[1].record_success(0.5)
        assert g._candidates() == [1, 0]

    def test_half_open_between_closed_and_open(self, monkeypatch):
        clock = _Clock()
        _set_health(monkeypatch, failure_threshold=1, open_cooldown_s=1.0)
        g = _offline_group(3, clock=clock)
        g.health[0].record_failure()  # open
        g.health[1].record_failure()  # open, then cooled into half-open
        g.health[2].record_success(0.9)
        clock.advance(0.5)
        assert g._candidates() == [2, 0, 1]
        g.health[0].record_failure()  # fresh cooldown: stays open
        clock.advance(0.6)  # replica 1 crosses into half-open
        assert g._candidates() == [2, 1, 0]


class TestHedgeDelay:
    def test_fixed_delay_wins(self):
        g = _offline_group(2, hedge=HedgePolicy(fixed_delay_s=0.123))
        g.health[0].record_success(9.0)  # ignored when pinned
        assert g._hedge_delay() == pytest.approx(0.123)

    def test_initial_delay_until_enough_observations(self, monkeypatch):
        _set_hedge(monkeypatch, initial_delay_s=0.07, min_observations=3)
        g = _offline_group(2)
        g.health[0].record_success(0.5)
        g.health[1].record_success(0.5)
        assert g._hedge_delay() == pytest.approx(0.07)

    def test_quantile_times_factor(self, monkeypatch):
        _set_hedge(
            monkeypatch, quantile=0.95, factor=2.0, min_observations=3,
            min_delay_s=0.0, max_delay_s=100.0,
        )
        g = _offline_group(2)
        # 20 samples 0.01..0.20 across both replicas: p95 = 0.19
        for i in range(20):
            g.health[i % 2].record_success(0.01 * (i + 1))
        assert g._hedge_delay() == pytest.approx(2.0 * 0.19)

    def test_clamped_to_min_and_max(self, monkeypatch):
        _set_hedge(monkeypatch, min_delay_s=0.01, min_observations=1)
        fast = _offline_group(2)
        fast.health[0].record_success(1e-6)
        fast.health[0].record_success(1e-6)
        fast.health[0].record_success(1e-6)
        assert fast._hedge_delay() == pytest.approx(0.01)

        monkeypatch.undo()
        _set_hedge(monkeypatch, max_delay_s=0.5, min_observations=1)
        slow = _offline_group(2)
        for _ in range(3):
            slow.health[0].record_success(10.0)
        assert slow._hedge_delay() == pytest.approx(0.5)


# -- reconnect backoff (satellite) -----------------------------------------


class TestBackoff:
    def test_delays_follow_capped_exponential_with_jitter(self):
        shard = RemoteShard(
            f"127.0.0.1:{_dead_port()}",
            connect_timeout_s=0.2, retries=4,
            backoff_base_s=0.05, backoff_cap_s=0.15,
        )
        slept = []
        shard._sleep = slept.append  # instance shadow: record, don't wait
        with pytest.raises(RemoteShardError, match="unreachable"):
            shard.ping()
        # retries=4 -> 4 backoffs before attempts 2..5; full schedule
        # min(cap, base * 2^(attempt-1)) with jitter in [d/2, d)
        assert len(slept) == 4
        for attempt, actual in enumerate(slept, start=1):
            nominal = min(0.15, 0.05 * (1 << (attempt - 1)))
            assert nominal / 2 <= actual < nominal, (attempt, actual)
        # the cap bites from attempt 3 on
        assert slept[2] < 0.15 and slept[3] < 0.15

    def test_zero_base_disables_backoff(self):
        shard = RemoteShard(
            f"127.0.0.1:{_dead_port()}",
            connect_timeout_s=0.2, retries=2, backoff_base_s=0.0,
        )
        slept = []
        shard._sleep = slept.append
        with pytest.raises(RemoteShardError):
            shard.ping()
        assert slept == []

    def test_connect_failures_counted_in_error(self):
        shard = RemoteShard(
            f"127.0.0.1:{_dead_port()}",
            connect_timeout_s=0.2, retries=2, backoff_base_s=0.0,
        )
        with pytest.raises(
            RemoteShardError,
            match=r"3 attempt\(s\) \(3 connect / 0 request failure\(s\)\)",
        ):
            shard.ping()

    def test_request_failures_counted_in_error(self):
        # accept-then-close listener: connects succeed, requests fail
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        closing = threading.Event()

        def slam_door():
            while not closing.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                conn.close()

        t = threading.Thread(target=slam_door, daemon=True)
        t.start()
        shard = RemoteShard(
            "{}:{}".format(*listener.getsockname()),
            timeout_s=0.5, retries=1, backoff_base_s=0.0,
        )
        try:
            with pytest.raises(
                RemoteShardError,
                match=r"2 attempt\(s\) \(0 connect / 2 request failure\(s\)\)",
            ):
                shard.ping()
        finally:
            closing.set()
            listener.close()
            t.join(timeout=2.0)
            shard.close()


# -- replica groups against real servers -----------------------------------


class TestReplicaGroup:
    def test_failover_from_dead_primary(self):
        data, queries = _workload()
        live = ShardServer(data).start()
        dead = f"127.0.0.1:{_dead_port()}"
        try:
            with RemoteShard(_addr(live)) as single:
                ref = single.search(queries, k=4)
            # dead replica first: untried candidates go in index order,
            # so the group must fail over to reach the live one (hedging
            # off so the failover is attributed deterministically — a
            # hedge racing the connect failure would absorb it)
            with ReplicaGroup(
                f"{dead}|{_addr(live)}",
                connect_timeout_s=0.3, retries=0,
                hedge=HedgePolicy(enabled=False),
            ) as group:
                indices, distances, _, _ = group.search(queries, k=4)
                assert (indices == ref[0]).all()
                assert (distances == ref[1]).all()
                assert group.failovers >= 1
                assert group.health[0].failures >= 1
                assert group.health[1].successes >= 1
        finally:
            live.close()

    def test_sequential_failover_without_hedging(self):
        data, queries = _workload()
        live = ShardServer(data).start()
        dead = f"127.0.0.1:{_dead_port()}"
        try:
            with ReplicaGroup(
                f"{dead}|{_addr(live)}",
                connect_timeout_s=0.3, retries=0,
                hedge=HedgePolicy(enabled=False),
            ) as group:
                indices, _, _, _ = group.search(queries, k=3)
                assert indices.shape == (queries.shape[0], 3)
                assert group.failovers == 1
                assert group.hedges == 0
        finally:
            live.close()

    def test_all_replicas_dead_raises_with_every_address(self):
        dead_a = f"127.0.0.1:{_dead_port()}"
        dead_b = f"127.0.0.1:{_dead_port()}"
        with ReplicaGroup(
            f"{dead_a}|{dead_b}",
            connect_timeout_s=0.3, retries=0,
            hedge=HedgePolicy(enabled=False),
        ) as group:
            with pytest.raises(RemoteShardError, match="all 2 replica"):
                group.ping()

    def test_breaker_routes_around_failing_replica(self, monkeypatch):
        """After the breaker opens, the healthy replica is primary and
        the sick one stops eating a connect timeout per request."""
        data, queries = _workload()
        live = ShardServer(data).start()
        dead = f"127.0.0.1:{_dead_port()}"
        _set_health(monkeypatch, failure_threshold=1, open_cooldown_s=60.0)
        try:
            with ReplicaGroup(
                f"{dead}|{_addr(live)}",
                connect_timeout_s=0.2, retries=0,
                hedge=HedgePolicy(enabled=False),
            ) as group:
                group.search(queries, k=3)  # opens the breaker on the dead one
                assert group.health[0].state == STATE_OPEN
                failovers_before = group.failovers
                group.search(queries, k=3)
                # the live replica was primary: no new failover needed
                assert group.failovers == failovers_before
        finally:
            live.close()

    def test_replica_disagreement_is_fatal_not_failover(self):
        data, _ = _workload()
        a = ShardServer(data, offset=0).start()
        b = ShardServer(data, offset=999).start()
        try:
            with ReplicaGroup(
                f"{_addr(a)}|{_addr(b)}",
                hedge=HedgePolicy(enabled=False),
            ) as group:
                group.info()  # anchors on replica a
                # force the next info() onto replica b
                for _ in range(replication._FAILURE_THRESHOLD):
                    group.health[0].record_failure()
                with pytest.raises(ValueError, match="disagree"):
                    group.info()
        finally:
            a.close()
            b.close()

    def test_close_is_reusable(self):
        data, queries = _workload()
        a = ShardServer(data).start()
        try:
            group = ReplicaGroup(_addr(a))
            group.search(queries, k=3)
            group.close()
            indices, _, _, _ = group.search(queries, k=3)  # reconnects
            assert indices.shape == (queries.shape[0], 3)
            group.close()
        finally:
            a.close()


# -- pool integration over group specs -------------------------------------


class TestPoolWithReplicaGroups:
    def test_replica_death_mid_service_absorbed_by_group(self):
        """The primary replica dies AFTER serving a batch: the next
        batch must come back complete (not partial) and bit-identical,
        with the failure absorbed inside the group."""
        data, queries = _workload(n=80, d=16, n_queries=4, seed=3)
        ref = APSimilaritySearch(data, k=5).search(
            queries
        )
        a = ShardServer(data).start()
        b = ShardServer(data).start()
        try:
            with RemoteShardPool(
                [f"{_addr(a)}|{_addr(b)}"],
                connect_timeout_s=0.3, retries=0,
                hedge=HedgePolicy(fixed_delay_s=5.0),  # failover, not hedges
            ) as pool:
                first = pool.search(queries, k=5)
                assert not first.partial and first.failovers == 0
                # the primary dies: cut its parked connections too
                # (close() alone leaves established sessions serving)
                a.drain(0.0)
                a.close()
                res = pool.search(queries, k=5)
            # complete, NOT partial: the group absorbed the failure
            assert not res.partial
            assert res.failed_shards == ()
            assert res.failovers >= 1
            assert (res.indices == ref.indices).all()
            assert (res.distances == ref.distances).all()
        finally:
            a.close()
            b.close()

    def test_whole_group_down_named_as_one_failed_shard(self):
        data, queries = _workload(n=80, d=16, n_queries=3)
        live = ShardServer(
            data[:40], offset=0
        ).start()
        dead_spec = (
            f"127.0.0.1:{_dead_port()}|127.0.0.1:{_dead_port()}"
        )
        try:
            with RemoteShardPool(
                [_addr(live), dead_spec],
                connect_timeout_s=0.3, retries=0,
            ) as pool:
                res = pool.search(queries, k=4)
            assert res.partial
            assert res.failed_shards == (dead_spec,)
        finally:
            live.close()

    def test_replication_events_attributed_per_batch(self, monkeypatch):
        data, queries = _workload()
        a = ShardServer(data).start()
        b = ShardServer(data).start()
        _set_health(monkeypatch, failure_threshold=1, open_cooldown_s=60.0)
        try:
            with RemoteShardPool(
                [f"{_addr(a)}|{_addr(b)}"],
                connect_timeout_s=0.2, retries=0,
                hedge=HedgePolicy(fixed_delay_s=5.0),
            ) as pool:
                first = pool.search(queries, k=3)
                assert first.failovers == 0 and first.hedges == 0
                a.drain(0.0)  # primary dies between batches
                a.close()
                second = pool.search(queries, k=3)
                assert second.failovers >= 1
                # breaker open: replica b is primary now, so the THIRD
                # batch must report zero events of its own
                third = pool.search(queries, k=3)
                assert third.failovers == 0
                assert third.hedges == 0
        finally:
            a.close()
            b.close()

    def test_health_snapshot_surface(self):
        data, queries = _workload()
        a = ShardServer(data).start()
        b = ShardServer(data).start()
        spec = f"{_addr(a)}|{_addr(b)}"
        try:
            with RemoteShardPool([spec]) as pool:
                pool.search(queries, k=3)
                snap = pool.health_snapshot()
            assert set(snap) == {spec}
            assert [r["address"] for r in snap[spec]] == [_addr(a), _addr(b)]
            for r in snap[spec]:
                assert r["state"] in (STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN)
            # the primary did the work: at least one replica has samples
            assert any(r["successes"] > 0 for r in snap[spec])
        finally:
            a.close()
            b.close()

    def test_batched_front_door_forwards_replication_events(self):
        data, queries = _workload(n=60, d=16, n_queries=3)
        a = ShardServer(data).start()
        b = ShardServer(data).start()
        try:
            with RemoteMultiBoardSearch(
                [f"{_addr(a)}|{_addr(b)}"],
                k=3, connect_timeout_s=0.3, retries=0,
                hedge=HedgePolicy(fixed_delay_s=5.0),
            ) as remote:
                remote.search(queries)  # anchors replica a as primary
                a.drain(0.0)
                a.close()
                with remote.batched(max_batch=4, max_wait_ms=1.0) as router:
                    out = router.search(queries)
            assert not out.partial
            assert out.failovers >= 1
        finally:
            a.close()
            b.close()

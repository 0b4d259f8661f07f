"""Chaos tests: fault injection against the availability layer.

Every test here carries the ``chaos`` marker (its own CI lane) and uses
clients with ``retries=0`` — the point is to prove the REPLICATION
layer absorbs faults, not the per-shard reconnect loop.  Faults are
deterministic (`FaultSpec` schedules, no randomness), so every failure
seen here replays.

Covers: proxy transparency, failover on each proxy fault mode
(corrupt / reset / drop / hang-after-header / dead host), hedged reads
beating an injected-slow replica, breaker open -> half-open -> closed
recovery, the acceptance SIGKILL-mid-service scenario against real
server processes, in-server fault hooks, graceful drain (bounded,
in-flight requests finishing), and the ``repro serve`` SIGTERM drain
path end to end.
"""

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.engine import APSimilaritySearch
from repro.host.faults import ChaosProxy, FaultSpec, ServerFaultHook
from repro.host.replication import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    HealthPolicy,
    HedgePolicy,
    ReplicaGroup,
)
from repro.host.rpc import (
    MSG_WL_SEARCH,
    RemoteShard,
    RemoteShardError,
    RemoteShardPool,
    ShardServer,
)

pytestmark = pytest.mark.chaos


def _workload(n=120, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _addr(server) -> str:
    return "{}:{}".format(*server.address)


NO_HEDGE = HedgePolicy(enabled=False)


# -- proxy transparency ----------------------------------------------------


class TestChaosProxy:
    def test_transparent_without_faults(self):
        data, queries = _workload()
        server = ShardServer(data).start()
        try:
            with RemoteShard(_addr(server)) as direct:
                ref = direct.search(queries, k=5)
            with ChaosProxy(_addr(server)) as proxy:
                with RemoteShard(proxy.address) as through:
                    got = through.search(queries, k=5)
                assert proxy.requests_proxied >= 1
                assert proxy.faults_fired == 0
            assert (got[0] == ref[0]).all()
            assert (got[1] == ref[1]).all()
        finally:
            server.close()

    def test_every_and_times_schedule(self):
        data, queries = _workload()
        server = ShardServer(data).start()
        try:
            with ChaosProxy(_addr(server)) as proxy:
                # delay-0 faults: observable via the counter, harmless
                proxy.set_fault(FaultSpec("delay", every=2, times=2))
                with RemoteShard(proxy.address) as shard:
                    for _ in range(6):
                        shard.search(queries, k=3)
                # fired on requests 2 and 4, then auto-disarmed
                assert proxy.faults_fired == 2
        finally:
            server.close()

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            ChaosProxy("nonsense")


# -- failover per fault mode -----------------------------------------------


def _faulty_pair(data):
    """Replica A behind a chaos proxy, replica B direct; A is the
    untried-candidate primary (index order)."""
    a = ShardServer(data).start()
    b = ShardServer(data).start()
    proxy = ChaosProxy(_addr(a))
    return a, b, proxy


class TestFailover:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("corrupt", times=1),
            FaultSpec("reset", times=1),
            FaultSpec("drop", times=1),
        ],
        ids=["corrupt", "reset", "drop"],
    )
    def test_fault_on_primary_fails_over(self, spec):
        data, queries = _workload()
        a, b, proxy = _faulty_pair(data)
        try:
            with RemoteShard(_addr(b)) as direct:
                ref = direct.search(queries, k=4)
            proxy.set_fault(spec)
            with ReplicaGroup(
                f"{proxy.address}|{_addr(b)}",
                retries=0, hedge=NO_HEDGE,
            ) as group:
                indices, distances, _, _ = group.search(queries, k=4)
            assert proxy.faults_fired == 1
            assert group.failovers == 1
            assert group.health[0].failures == 1
            assert (indices == ref[0]).all()
            assert (distances == ref[1]).all()
        finally:
            proxy.close()
            a.close()
            b.close()

    def test_hang_after_header_escaped_by_timeout(self):
        data, queries = _workload()
        a, b, proxy = _faulty_pair(data)
        try:
            proxy.set_fault(
                FaultSpec("hang_after_header", times=1, hold_s=2.0)
            )
            with ReplicaGroup(
                f"{proxy.address}|{_addr(b)}",
                timeout_s=0.4, retries=0, hedge=NO_HEDGE,
            ) as group:
                indices, _, _, _ = group.search(queries, k=3)
            assert indices.shape == (queries.shape[0], 3)
            assert group.failovers == 1
        finally:
            proxy.close()
            a.close()
            b.close()

    def test_killed_host_fails_over(self):
        data, queries = _workload()
        a, b, proxy = _faulty_pair(data)
        try:
            with ReplicaGroup(
                f"{proxy.address}|{_addr(b)}",
                connect_timeout_s=0.5, retries=0, hedge=NO_HEDGE,
            ) as group:
                group.search(queries, k=3)  # anchors the proxy as primary
                proxy.kill()  # dead host: refuses connects, cuts sessions
                indices, _, _, _ = group.search(queries, k=3)
                assert indices.shape == (queries.shape[0], 3)
                assert group.failovers >= 1
        finally:
            proxy.close()
            a.close()
            b.close()


# -- hedged reads ----------------------------------------------------------


class TestHedgedReads:
    def test_hedge_beats_slow_replica(self):
        data, queries = _workload()
        a, b, proxy = _faulty_pair(data)
        try:
            with RemoteShard(_addr(b)) as direct:
                ref = direct.search(queries, k=4)
            # EVERY reply through the proxy is 0.5s late: EWMA-based
            # primary selection alone cannot dodge the first request
            proxy.set_fault(FaultSpec("delay", delay_s=0.5))
            with ReplicaGroup(
                f"{proxy.address}|{_addr(b)}",
                retries=0, hedge=HedgePolicy(fixed_delay_s=0.05),
            ) as group:
                t0 = time.perf_counter()
                indices, distances, _, _ = group.search(queries, k=4)
                elapsed = time.perf_counter() - t0
                assert group.hedges == 1
                assert group.hedge_wins == 1
            assert elapsed < 0.4, f"hedge did not cut latency: {elapsed:.3f}s"
            assert (indices == ref[0]).all()
            assert (distances == ref[1]).all()
        finally:
            proxy.close()
            a.close()
            b.close()

    def test_aborted_loser_is_not_a_health_failure(self):
        data, queries = _workload()
        a, b, proxy = _faulty_pair(data)
        try:
            proxy.set_fault(FaultSpec("delay", delay_s=0.5, times=1))
            with ReplicaGroup(
                f"{proxy.address}|{_addr(b)}",
                retries=0, hedge=HedgePolicy(fixed_delay_s=0.05),
            ) as group:
                group.search(queries, k=3)
                # the slow loser was cancelled by us, not broken
                assert group.health[0].failures == 0
                # and it serves the next batch once the fault is gone
                group.health[1].record_failure()  # deprioritize b
                group.health[1].record_failure()
                group.health[1].record_failure()
                indices, _, _, _ = group.search(queries, k=3)
                assert indices.shape == (queries.shape[0], 3)
        finally:
            proxy.close()
            a.close()
            b.close()


# -- breaker lifecycle under faults ----------------------------------------


class TestBreakerRecovery:
    def test_open_half_open_closed_cycle(self):
        data, queries = _workload()
        server = ShardServer(data).start()
        proxy = ChaosProxy(_addr(server))
        try:
            proxy.set_fault(FaultSpec("drop"))
            with ReplicaGroup(
                proxy.address,  # group of one: every attempt probes it
                retries=0,
                health=HealthPolicy(failure_threshold=1, open_cooldown_s=0.2),
            ) as group:
                with pytest.raises(RemoteShardError):
                    group.search(queries, k=3)
                assert group.health[0].state == STATE_OPEN
                proxy.clear_fault()  # the replica heals...
                time.sleep(0.25)  # ...and the cooldown elapses
                assert group.health[0].state == STATE_HALF_OPEN
                indices, _, _, _ = group.search(queries, k=3)  # the probe
                assert group.health[0].state == STATE_CLOSED
                assert indices.shape == (queries.shape[0], 3)
        finally:
            proxy.close()
            server.close()


# -- the acceptance scenario: SIGKILL a replica of a live group ------------


def _serve_replica(data, address_queue):
    """Child-process entry: serve the full dataset as one shard."""
    server = ShardServer(data)
    server.start()
    address_queue.put(_addr(server))
    server._thread.join()


class TestReplicaKill:
    def test_sigkill_one_replica_mid_service_stays_complete(self):
        """Acceptance: SIGKILL one replica of a 2-replica group while
        the pool is serving — the next result is complete (NOT flagged
        partial) and bit-identical to the unreplicated answer."""
        data, queries = _workload(n=140, d=16, n_queries=6, seed=21)
        ref = APSimilaritySearch(data, k=7).search(
            queries
        )
        ctx = multiprocessing.get_context()
        address_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_serve_replica, args=(data, address_queue), daemon=True
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        try:
            addresses = [address_queue.get(timeout=30) for _ in range(2)]
            # queue order == readiness order; map back to processes so
            # the kill targets whichever replica anchored as primary
            with RemoteShardPool(
                ["|".join(addresses)],
                connect_timeout_s=1.0, retries=0,
                hedge=HedgePolicy(fixed_delay_s=5.0),
            ) as pool:
                before = pool.search(queries, k=7)
                assert not before.partial
                assert (before.indices == ref.indices).all()
                # find the primary (the replica with latency samples)
                snap = pool.health_snapshot()["|".join(addresses)]
                primary = next(
                    r["address"] for r in snap if r["successes"] > 0
                )
                victim = procs[addresses.index(primary)]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10)
                after = pool.search(queries, k=7)
            assert not after.partial, "replica death leaked as partial"
            assert after.failed_shards == ()
            assert after.failovers >= 1
            assert (after.indices == ref.indices).all()
            assert (after.distances == ref.distances).all()
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=10)


# -- in-server fault hooks -------------------------------------------------


class TestServerFaultHook:
    def test_hook_drops_matching_replies_only(self):
        data, queries = _workload()
        # the hook sees REPLY types: match search replies only
        hook = ServerFaultHook(
            FaultSpec("drop", times=1), match=(MSG_WL_SEARCH,)
        )
        server = ShardServer(
            data, fault_hook=hook
        ).start()
        try:
            # handshake traffic is untouched by the match filter...
            with RemoteShard(_addr(server), retries=0) as shard:
                assert shard.ping()
                shard.info()
                # ...but the first search reply is dropped on the floor
                with pytest.raises(RemoteShardError):
                    shard.search(queries, k=3)
                assert hook.fired == 1
                # auto-disarmed: the retry-free client succeeds now
                indices, _, _, _ = shard.search(queries, k=3)
                assert indices.shape == (queries.shape[0], 3)
        finally:
            server.close()


# -- graceful drain --------------------------------------------------------


class TestDrain:
    def test_drain_waits_for_in_flight_request(self):
        data, queries = _workload()
        hook = ServerFaultHook(
            FaultSpec("delay", delay_s=0.3), match=(MSG_WL_SEARCH,)
        )
        server = ShardServer(
            data, fault_hook=hook
        ).start()
        address = _addr(server)
        result, errors = {}, []

        def slow_caller():
            try:
                with RemoteShard(address, retries=0, timeout_s=5.0) as shard:
                    result["got"] = shard.search(queries, k=3)
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        t = threading.Thread(target=slow_caller, daemon=True)
        try:
            t.start()
            deadline = time.monotonic() + 5.0
            while server.active_requests == 0:  # request is in flight
                assert time.monotonic() < deadline, "request never arrived"
                time.sleep(0.005)
            assert server.drain(timeout_s=5.0) is True
            t.join(timeout=5.0)
            assert not errors, errors
            assert result["got"][0].shape == (queries.shape[0], 3)
            # post-drain: the listener is gone, connects are refused
            host, _, port = address.rpartition(":")
            with pytest.raises(OSError):
                socket.create_connection((host, int(port)), timeout=0.5)
        finally:
            server.close()

    def test_drain_bounded_when_request_outlives_timeout(self):
        data, queries = _workload()
        hook = ServerFaultHook(
            FaultSpec("delay", delay_s=2.0), match=(MSG_WL_SEARCH,)
        )
        server = ShardServer(
            data, fault_hook=hook
        ).start()
        address = _addr(server)
        failed = threading.Event()

        def doomed_caller():
            try:
                with RemoteShard(address, retries=0, timeout_s=10.0) as shard:
                    shard.search(queries, k=3)
            except RemoteShardError:
                failed.set()

        t = threading.Thread(target=doomed_caller, daemon=True)
        try:
            t.start()
            deadline = time.monotonic() + 5.0
            while server.active_requests == 0:
                assert time.monotonic() < deadline, "request never arrived"
                time.sleep(0.005)
            t0 = time.monotonic()
            assert server.drain(timeout_s=0.2) is False  # straggler cut
            assert time.monotonic() - t0 < 1.5
            assert failed.wait(timeout=5.0)  # the cut surfaced client-side
        finally:
            server.close()

    def test_drain_idle_server_is_immediate(self):
        data, _ = _workload()
        server = ShardServer(data).start()
        try:
            assert server.drain(timeout_s=1.0) is True
        finally:
            server.close()

    def test_drain_reports_progress_and_gauge(self):
        """The drain-progress fix: a stalled drain is observable via the
        progress callback and the drain-remaining gauge instead of
        looking like a hang."""
        from repro.perf.metrics import get_registry

        data, queries = _workload()
        hook = ServerFaultHook(
            FaultSpec("delay", delay_s=0.6), match=(MSG_WL_SEARCH,)
        )
        server = ShardServer(
            data, fault_hook=hook
        ).start()
        address = _addr(server)
        reports, gauge_peaks = [], []

        def on_progress(in_flight, sessions, remaining_s):
            reports.append((in_flight, sessions, remaining_s))
            gauge_peaks.append(
                get_registry().snapshot().value(
                    "repro_server_drain_remaining"
                )
            )

        def slow_caller():
            try:
                with RemoteShard(address, retries=0, timeout_s=5.0) as shard:
                    shard.search(queries, k=3)
            except RemoteShardError:
                pass

        t = threading.Thread(target=slow_caller, daemon=True)
        try:
            t.start()
            deadline = time.monotonic() + 5.0
            while server.active_requests == 0:
                assert time.monotonic() < deadline, "request never arrived"
                time.sleep(0.005)
            drained = server.drain(
                timeout_s=5.0, progress=on_progress,
                progress_interval_s=0.05,
            )
            t.join(timeout=5.0)
            assert drained is True
            # progress fired while the request was in flight...
            assert any(in_flight >= 1 for in_flight, _, _ in reports)
            assert all(remaining >= 0.0 for _, _, remaining in reports)
            # ...the gauge tracked it, and both report drained at the end
            assert any(peak >= 1.0 for peak in gauge_peaks)
            assert get_registry().snapshot().value(
                "repro_server_drain_remaining"
            ) == 0.0
        finally:
            server.close()

    def test_drain_progress_exceptions_do_not_break_drain(self):
        data, _ = _workload()
        server = ShardServer(data).start()
        try:
            def broken(*_):
                raise RuntimeError("reporter bug")

            assert server.drain(timeout_s=1.0, progress=broken) is True
        finally:
            server.close()


# -- repro serve: SIGTERM drains -------------------------------------------


class TestServeSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        data, queries = _workload(n=60, d=16)
        dataset = tmp_path / "data.npy"
        np.save(dataset, data)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(dataset),
                "--drain-timeout-s", "2.0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, text=True, cwd=os.getcwd(),
        )
        try:
            banner = proc.stdout.readline()  # "# serving shard ... on h:p"
            assert "serving shard" in banner, banner
            address = banner.split(" on ")[1].split()[0]
            with RemoteShard(address, retries=0) as shard:
                assert shard.ping()
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=15)
            stderr = proc.stderr.read()
            assert proc.returncode == 0, stderr
            assert "SIGTERM: draining" in stderr
            assert "drain complete" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_inside_request_window_still_drains(
        self, tmp_path, monkeypatch, capsys
    ):
        """Regression: socketserver wraps ``process_request`` in ``except
        Exception``, so a SIGTERM whose handler raised an ``Exception``
        subclass while the accept loop was in that window was logged as
        a request error and the server kept accepting.  Raise the
        sentinel from exactly there: it must escape ``serve_forever()``
        and run the drain path."""
        import _thread

        from repro import cli
        from repro.host import rpc

        data, _ = _workload(n=40, d=16)
        dataset = tmp_path / "data.npy"
        np.save(dataset, data)
        with socket.socket() as probe:  # a free port to find the server on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        def sigterm_lands_here(self, request, client_address):
            raise cli._Sigterm

        monkeypatch.setattr(
            rpc._ThreadingTCPServer, "process_request", sigterm_lands_here
        )
        served = threading.Event()

        def connect_then_watchdog():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), 0.5).close()
                    break
                except OSError:
                    time.sleep(0.02)
            if not served.wait(timeout=5.0):
                _thread.interrupt_main()  # swallowed sentinel: fail, not hang

        client = threading.Thread(target=connect_then_watchdog, daemon=True)
        previous = signal.getsignal(signal.SIGTERM)
        client.start()
        try:
            code = cli.main([
                "serve", str(dataset), "--port", str(port),
                "--drain-timeout-s", "1.0",
            ])
        finally:
            served.set()
            signal.signal(signal.SIGTERM, previous)
            client.join(timeout=10.0)
        assert not client.is_alive()
        stderr = capsys.readouterr().err
        assert code == 0
        assert "SIGTERM: draining" in stderr
        assert "drain complete" in stderr

"""Tests for the query batching/admission layer (repro.host.batching)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.engine import APSimilaritySearch
from repro.core.multiboard import MultiBoardSearch
from repro.host import batching
from repro.host.batching import BatchRouter


def _workload(n=120, d=16, n_queries=24, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _engine(data, k=4, cap=32, **kw):
    return APSimilaritySearch(
        data, k=k, board_capacity=cap, **kw
    )


class TestValidation:
    def test_rejects_bad_parameters(self):
        eng = _engine(*_workload()[:1])
        for kw in (
            {"max_batch": 0},
            {"max_wait_ms": -1},
        ):
            with pytest.raises(ValueError):
                BatchRouter(eng, **kw)

    def test_malformed_request_fails_only_its_caller(self):
        """A bad request must be rejected at admission — one malformed
        caller must never poison the callers it would coalesce with."""
        data, queries = _workload()
        eng = _engine(data)
        with eng.batched(max_batch=8, max_wait_ms=50.0) as router:
            with ThreadPoolExecutor(3) as pool:
                good1 = pool.submit(router.search, queries[0])
                bad = pool.submit(
                    router.search, np.zeros((1, 8), dtype=np.uint8)  # wrong d
                )
                good2 = pool.submit(router.search, queries[1])
                with pytest.raises(ValueError, match="d="):
                    bad.result(timeout=30)
                r1, r2 = good1.result(timeout=30), good2.result(timeout=30)
        assert (r1.indices == eng.search(queries[:1]).indices).all()
        assert (r2.indices == eng.search(queries[1:2]).indices).all()

    def test_non_binary_request_rejected_at_admission(self):
        data, _ = _workload()
        eng = _engine(data)
        with eng.batched(max_batch=4, max_wait_ms=0.0) as router:
            with pytest.raises(ValueError, match="binary"):
                router.search(np.full((1, data.shape[1]), 7, dtype=np.uint8))


class TestBitIdentity:
    """The router in front of a multi-device engine: two topology
    layers at once, which the oracle's one-topology cells do not
    compose (``tests/integration/test_bit_identity.py`` holds the
    router in front of one device)."""

    def test_multiboard_batched_matches_direct(self):
        data, queries = _workload(n=150, n_queries=20)
        mb = MultiBoardSearch(
            data, k=4, n_devices=3, board_capacity=32
        )
        ref = mb.search(queries)
        with mb.batched(max_batch=32, max_wait_ms=25.0) as router:
            with ThreadPoolExecutor(5) as pool:
                outs = list(pool.map(
                    lambda i: router.search(queries[i]), range(20)
                ))
        got = np.vstack([o.indices for o in outs])
        assert (got == ref.indices).all()


class TestCoalescing:
    def test_concurrent_callers_coalesce(self):
        data, queries = _workload(n_queries=16)
        eng = _engine(data)
        with eng.batched(max_batch=16, max_wait_ms=200.0) as router:
            with ThreadPoolExecutor(16) as pool:
                list(pool.map(
                    lambda i: router.search(queries[i]), range(16)
                ))
        assert router.stats.calls == 16
        assert router.stats.batches < 16  # coalescing actually happened
        assert router.stats.rows == 16
        assert router.stats.coalescing_ratio > 1.0

    def test_max_batch_bounds_merged_rows(self):
        data, queries = _workload(n_queries=20)
        eng = _engine(data)
        with eng.batched(max_batch=4, max_wait_ms=200.0) as router:
            with ThreadPoolExecutor(20) as pool:
                outs = list(pool.map(
                    lambda i: router.search(queries[i]), range(20)
                ))
        assert router.stats.max_batch_rows <= 4
        assert all(o.batch_rows <= 4 for o in outs)

    def test_oversized_single_caller_never_splits(self):
        data, queries = _workload(n_queries=12)
        eng = _engine(data)
        with eng.batched(max_batch=4, max_wait_ms=0.0) as router:
            out = router.search(queries)
        assert out.batch_rows == 12
        assert out.batch_calls == 1
        assert (out.indices == eng.search(queries).indices).all()

    def test_result_carries_batch_metadata(self):
        data, queries = _workload()
        eng = _engine(data)
        with eng.batched(max_batch=4, max_wait_ms=0.0) as router:
            out = router.search(queries[:2])
        assert out.batch_rows == 2
        assert out.batch_calls == 1
        assert out.execution == "functional"
        assert out.counters.configurations > 0


class _StubSearcher:
    """A searcher that answers instantly — or, while ``hold`` is
    cleared, keeps the collector inside ``search()`` until the test
    lets go — and logs the caller rows of every batch it was handed."""

    d = 4

    def __init__(self):
        self.batches = []
        self.entered = threading.Event()
        self.hold = threading.Event()
        self.hold.set()

    def search(self, queries):
        from types import SimpleNamespace

        self.batches.append(queries.shape[0])
        self.entered.set()
        assert self.hold.wait(timeout=30)
        block = np.zeros((queries.shape[0], 1), dtype=np.int64)
        return SimpleNamespace(
            indices=block, distances=block, k=1, counters=None,
            execution="stub",
        )


def _until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestHeadCountAdmission:
    """``max_wait_ms`` is a cap: a round closes once it holds every
    caller seen in flight since the previous dispatch began."""

    CAP_MS = 200.0
    QUERY = np.zeros((1, 4), dtype=np.uint8)

    def test_lone_caller_is_dispatched_without_waiting(self):
        searcher = _StubSearcher()
        with BatchRouter(searcher, max_wait_ms=self.CAP_MS) as router:
            for _ in range(3):
                began = time.monotonic()
                out = router.search(self.QUERY)
                assert time.monotonic() - began < self.CAP_MS / 2e3
                assert out.batch_calls == 1
        assert searcher.batches == [1, 1, 1]
        assert router.stats.early_dispatches == 3

    def test_closed_loop_callers_coalesce_and_a_departure_costs_one_cap(self):
        callers = 4
        searcher = _StubSearcher()
        searcher.hold.clear()  # the first dispatch waits for everyone
        router = BatchRouter(searcher, max_wait_ms=self.CAP_MS)
        log = [[] for _ in range(callers)]  # (batch_calls, seconds) per cycle
        stop = [threading.Event() for _ in range(callers)]

        def caller(i):
            while not stop[i].is_set():
                began = time.monotonic()
                out = router.search(self.QUERY)
                log[i].append((out.batch_calls, time.monotonic() - began))

        threads = [
            threading.Thread(target=caller, args=(i,), daemon=True)
            for i in range(callers)
        ]
        try:
            for t in threads:
                t.start()
            assert searcher.entered.wait(timeout=30)
            # everyone is inside search(): in the held batch or queued
            _until(lambda: searcher.batches[0] + router._queue.qsize() == callers)
            searcher.hold.set()
            _until(lambda: all(len(cycles) >= 6 for cycles in log))
            stop[-1].set()  # one caller leaves after its current reply
            threads[-1].join(timeout=30)
            assert not threads[-1].is_alive()
            before = [len(cycles) for cycles in log[:-1]]
            _until(lambda: all(
                len(cycles) >= n + 5 for cycles, n in zip(log[:-1], before)
            ))
            # freeze the record here: winding the callers down one by
            # one below produces short rounds of its own
            with router._stats_lock:
                capped = router.stats.batches - router.stats.early_dispatches
            batches = list(searcher.batches)
            seen = [list(cycles) for cycles in log]
        finally:
            searcher.hold.set()
            for event in stop:
                event.set()
            for t in threads:
                t.join(timeout=30)
            router.close()
        assert not any(t.is_alive() for t in threads)
        assert router._in_flight == 0  # every admission was paired
        # whoever the first round held, the second holds everyone, and
        # so does every round until the departure; from then on, three
        first, rest = batches[0], batches[1:]
        assert 1 <= first <= callers
        full = rest.index(callers - 1)
        assert full >= 5
        assert rest[:full] == [callers] * full
        assert rest[full:] == [callers - 1] * (len(rest) - full)
        for cycles in seen:
            assert all(calls == callers for calls, _ in cycles[1:5])
        # exactly one round ran to the cap — the first one short a
        # caller — and no request ever waited longer than the cap
        slow = [
            [seconds for _, seconds in cycles if seconds > self.CAP_MS / 2e3]
            for cycles in seen
        ]
        assert [len(s) for s in slow] == [1] * (callers - 1) + [0]
        assert max(max(s) for s in slow[:-1]) < self.CAP_MS / 1e3 + 0.15
        assert capped == 1


class TestBackpressureAndLifecycle:
    def test_backpressure_blocks_at_max_pending(self, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        class SlowSearcher:
            def search(self, queries):
                started.set()
                release.wait(timeout=30)
                return _engine(*_workload()[:1]).search(queries)

        data, queries = _workload()
        monkeypatch.setattr(batching, "_MAX_PENDING", 1)
        router = BatchRouter(SlowSearcher(), max_batch=1, max_wait_ms=0.0)
        try:
            t1 = threading.Thread(
                target=lambda: router.search(queries[0]), daemon=True
            )
            t1.start()
            started.wait(timeout=10)  # collector busy in the slow search
            t2 = threading.Thread(
                target=lambda: router.search(queries[1]), daemon=True
            )
            t2.start()
            deadline = time.monotonic() + 10
            while not router._queue.full():
                assert time.monotonic() < deadline
                time.sleep(0.005)
            # queue full: a third caller must block in put()
            blocked_done = threading.Event()
            t3 = threading.Thread(
                target=lambda: (router.search(queries[2]),
                                blocked_done.set()),
                daemon=True,
            )
            t3.start()
            time.sleep(0.1)
            assert not blocked_done.is_set()  # backpressure held it
            release.set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            assert blocked_done.wait(timeout=30)
        finally:
            release.set()
            router.close()

    def test_close_drains_then_rejects(self):
        data, queries = _workload()
        eng = _engine(data)
        router = eng.batched(max_batch=4, max_wait_ms=0.0)
        out = router.search(queries[:1])
        assert out.indices.shape == (1, 4)
        router.close()
        router.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            router.search(queries[:1])

    def test_engine_error_propagates_to_every_caller(self):
        class ExplodingSearcher:
            def search(self, queries):
                raise ValueError("boom")

        router = BatchRouter(
            ExplodingSearcher(), max_batch=8, max_wait_ms=50.0
        )
        _, queries = _workload()
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(router.search, queries[i]) for i in range(4)
                ]
                for f in futures:
                    with pytest.raises(ValueError, match="boom"):
                        f.result(timeout=30)
        finally:
            router.close()


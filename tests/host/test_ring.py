"""Tests for the pinned-worker shared-memory ring backend (repro.host.ring).

Covers the acceptance properties of the pinned backend: bit-identity
to serial for every registered workload, composition with ``cache=``,
``batched()``, shared-memory datasets and multiboard, lifecycle hygiene
(no ``/dev/shm`` residue, no fd leaks, no exit hangs, finalizer on a
dropped config), crash robustness (a worker killed mid-task respawns
and resubmits; a task that keeps killing workers raises cleanly), and
dispatch accounting.  Platforms without usable shared memory skip the
ring classes gracefully (the backend itself falls back serially there,
which is tested via monkeypatching below).
"""

import gc
import glob
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.runtime import RuntimeCounters
from repro.core.dataset import PackedDataset, ShmStore
from repro.core.engine import APSimilaritySearch
from repro.core.multiboard import MultiBoardSearch
from repro.core.workload import Workload, WorkloadSearch, register_workload
from repro.host import ring as ring_mod
from repro.host.parallel import ParallelConfig, PartitionTask, run_partitions
from repro.host.ring import (
    PinnedWorkerPool,
    RingBrokenError,
    RingUnavailableError,
    RingWorkerCrashed,
)
from repro.host.shm import (
    SHM_SEGMENT_PREFIX,
    SHM_UNAVAILABLE_REASON,
    shm_available,
)

# Same literal reason as test_shm.py so the conftest terminal-summary
# hook counts these skips as shm skips.
SHM_SKIP_REASON = SHM_UNAVAILABLE_REASON

needs_shm = pytest.mark.skipif(not shm_available(), reason=SHM_SKIP_REASON)
# The crash-injection workload below registers at import time; fork
# workers inherit the registry, spawn workers would have to re-import
# this module.  Keep the injection tests to fork platforms.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-injection tests require fork-inherited workload registry",
)


def _workload(n=40, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _own_segments():
    return set(glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{os.getpid()}_*"))


def _knn_tasks(data, cap, mode="functional"):
    from repro.core.macros import collector_tree_depth

    d = data.shape[1]
    depth = collector_tree_depth(d, 16)
    return [
        PartitionTask(
            p_idx=i, start=s, end=min(s + cap, data.shape[0]),
            dataset_bits=data[s : min(s + cap, data.shape[0])],
            mode=mode, d=d, collector_depth=depth,
            max_fan_in=16, counter_max_increment=1,
        )
        for i, s in enumerate(range(0, data.shape[0], cap))
    ]


# -- crash-injection workload ------------------------------------------------


@dataclass
class _EchoResult:
    indices: np.ndarray
    distances: np.ndarray


class _CrashWorkload(Workload):
    """Row-index echo that can kill its own worker process.

    ``flag`` names a file: the first execution (per flag file) creates
    it and ``os._exit``\\ s mid-task — the respawned worker's retry
    finds the file and succeeds.  ``always=True`` dies every time
    (retry-exhaustion paths).  Only meaningful under a fork start
    method (the registry must be inherited).
    """

    name = "test-ring-crash"
    description = "crash-injection workload for ring robustness tests"
    wire_fields = ("indices", "distances")
    result_type = _EchoResult

    def validate_params(self, params, n, d):
        return {
            "flag": str(params.get("flag", "")),
            "always": bool(params.get("always", False)),
        }

    def compile(self, dataset_bits, params):
        return np.asarray(dataset_bits, dtype=np.uint8)

    def execute(self, artifact, queries_bits, params):
        flag = params["flag"]
        if params["always"]:
            os._exit(17)
        if flag and not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(17)
        n = artifact.shape[0]
        n_q = queries_bits.shape[0]
        partial = _EchoResult(
            indices=np.tile(np.arange(n, dtype=np.int64), (n_q, 1)),
            distances=np.zeros((n_q, n), dtype=np.int64),
        )
        return partial, RuntimeCounters()

    def merge(self, partials, offsets, params):
        idx = []
        for bi, p in enumerate(partials):
            off = 0 if offsets is None else int(offsets[bi])
            idx.append(np.asarray(p.indices, dtype=np.int64) + off)
        return _EchoResult(
            np.concatenate(idx, axis=1),
            np.concatenate([p.distances for p in partials], axis=1),
        )

    def empty(self, n_q, params):
        return _EchoResult(
            np.empty((n_q, 0), np.int64), np.empty((n_q, 0), np.int64)
        )


register_workload(_CrashWorkload(), replace=True)


def _crash_tasks(data, cap, flag="", always=False, crash_p_idx=0):
    params = (("always", False), ("flag", ""))
    crash_params = (("always", bool(always)), ("flag", str(flag)))
    return [
        PartitionTask(
            p_idx=i, start=s, end=min(s + cap, data.shape[0]),
            dataset_bits=data[s : min(s + cap, data.shape[0])],
            mode="workload", d=data.shape[1], collector_depth=1,
            max_fan_in=16, counter_max_increment=1,
            workload="test-ring-crash",
            params=crash_params if i == crash_p_idx else params,
        )
        for i, s in enumerate(range(0, data.shape[0], cap))
    ]


# -- parity ------------------------------------------------------------------


@needs_shm
class TestPinnedParity:
    """backend="pinned" is bit-identical to serial for every workload."""

    def test_knn_functional_bit_identical(self):
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional"
        ).search(queries)
        assert seq.n_partitions >= 3
        par = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional",
            parallel=ParallelConfig(n_workers=3, backend="pinned"),
        ).search(queries)
        assert (par.indices == seq.indices).all()
        assert (par.distances == seq.distances).all()
        assert par.counters == seq.counters

    def test_knn_simulate_bit_identical(self):
        data, queries = _workload(n=21, d=8, n_queries=3)
        seq = APSimilaritySearch(
            data, k=3, board_capacity=7, execution="simulate"
        ).search(queries)
        par = APSimilaritySearch(
            data, k=3, board_capacity=7, execution="simulate",
            parallel=ParallelConfig(n_workers=2, backend="pinned"),
        ).search(queries)
        assert (par.indices == seq.indices).all()
        assert (par.distances == seq.distances).all()

    @pytest.mark.parametrize(
        "workload,params",
        [("jaccard", {"k": 4}), ("range", {"radius": 5})],
    )
    def test_registered_workloads_bit_identical(self, workload, params):
        data, queries = _workload(n=50, d=16, n_queries=4, seed=11)
        serial = WorkloadSearch(
            data, workload, params=params, board_capacity=12
        ).search(queries)
        pinned = WorkloadSearch(
            data, workload, params=params, board_capacity=12,
            parallel=ParallelConfig(n_workers=3, backend="pinned"),
        ).search(queries)
        wl = serial.value
        for f in pinned.value.__dataclass_fields__:
            a = getattr(wl, f)
            b = getattr(pinned.value, f)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f
        assert pinned.n_workers == 3

    def test_custom_workload_bit_identical(self):
        """A custom-registered workload (the crash workload, benign
        mode) runs on the ring like the built-ins."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("custom registry needs fork inheritance")
        data, queries = _workload(n=30, d=8, n_queries=2)
        tasks = _crash_tasks(data, cap=10)  # no flag, no always: benign
        serial = run_partitions(tasks, queries, ParallelConfig(backend="serial"))
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            pinned = run_partitions(tasks, queries, cfg)
        assert pinned.n_workers == 2
        for rs, rp in zip(serial.results, pinned.results):
            assert np.array_equal(rs.payload.indices, rp.payload.indices)


@needs_shm
class TestPinnedPropertyParity:
    """Hypothesis: pinned == serial over random shapes, one shared
    persistent pool across examples (spawning per example would
    dominate the test's runtime)."""

    @classmethod
    def setup_class(cls):
        cls.cfg = ParallelConfig(n_workers=2, backend="pinned", persistent=True)

    @classmethod
    def teardown_class(cls):
        cls.cfg.close()

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(8, 60),
        d=st.integers(4, 24),
        n_q=st.integers(1, 5),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_pinned_matches_serial(self, n, d, n_q, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (n_q, d), dtype=np.uint8)
        cap = max(2, n // 4)
        seq = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional"
        ).search(queries)
        par = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional",
            parallel=self.cfg,
        ).search(queries)
        assert (par.indices == seq.indices).all()
        assert (par.distances == seq.distances).all()


# -- composition -------------------------------------------------------------


@needs_shm
class TestPinnedComposition:
    def test_composes_with_cache(self):
        """Artifact shipping works both ways: pinned workers receive
        cached boards and ship built ones back to the parent cache."""
        from repro.ap.compiler import BoardImageCache

        data, queries = _workload()
        cache = BoardImageCache()
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            eng = APSimilaritySearch(
                data, k=3, board_capacity=12, execution="functional",
                parallel=cfg, cache=cache,
            )
            cold = eng.search(queries)
            assert len(cache) > 0  # ship-back filled the cache
            warm = eng.search(queries)
        assert (cold.indices == warm.indices).all()
        assert warm.counters.image_cache_hits > 0  # shipped artifacts hit
        seq = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)
        assert (warm.indices == seq.indices).all()

    def test_composes_with_shm_transport(self):
        data, queries = _workload(n=60, d=16, n_queries=4)
        # a shared-memory dataset: tasks carry slice refs the pinned
        # workers attach
        eng = APSimilaritySearch(
            PackedDataset(ShmStore.export(data)), k=3, board_capacity=12,
            execution="functional",
        )
        tasks = eng._partition_tasks(eng.params)
        assert all(t.dataset_slice.kind == "shm" for t in tasks)
        serial = run_partitions(tasks, queries, ParallelConfig(backend="serial"))
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            report = run_partitions(tasks, queries, cfg)
        assert report.transport == "pickle"
        assert report.n_workers == 2
        for rs, rp in zip(serial.results, report.results):
            assert np.array_equal(rs.payload.indices, rp.payload.indices)
            assert np.array_equal(rs.payload.distances, rp.payload.distances)

    def test_composes_with_batched(self):
        data, queries = _workload(n=50, d=16, n_queries=6)
        direct = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            eng = APSimilaritySearch(
                data, k=3, board_capacity=12, execution="functional",
                parallel=cfg,
            )
            with eng.batched(max_batch=4, max_wait_ms=1.0) as front:
                res = front.search(queries)
        assert (res.indices == direct.indices).all()
        assert (res.distances == direct.distances).all()

    def test_composes_with_multiboard(self):
        data, queries = _workload(n=60, d=16, n_queries=4)
        single = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional"
        ).search(queries)
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            multi = MultiBoardSearch(
                data, k=4, n_devices=2, board_capacity=12,
                execution="functional", parallel=cfg,
            ).search(queries)
        assert (multi.indices == single.indices).all()
        assert (multi.distances == single.distances).all()

    def test_unavailable_shm_falls_back_serial(self, monkeypatch):
        """Where shared memory is unusable the pinned backend degrades
        exactly like any other pool-creation failure."""
        monkeypatch.setattr(ring_mod, "shm_available", lambda: False)
        with pytest.raises(RingUnavailableError):
            PinnedWorkerPool(2)
        data, queries = _workload()
        tasks = _knn_tasks(data, cap=12)
        report = run_partitions(
            tasks, queries, ParallelConfig(n_workers=2, backend="pinned")
        )
        assert report.n_workers == 1  # serial fallback, still correct
        serial = run_partitions(tasks, queries, ParallelConfig(backend="serial"))
        for rs, rp in zip(serial.results, report.results):
            assert np.array_equal(rs.payload.indices, rp.payload.indices)
        with pytest.raises(OSError):
            run_partitions(
                tasks, queries,
                ParallelConfig(
                    n_workers=2, backend="pinned", fallback_serial=False
                ),
            )


# -- lifecycle ---------------------------------------------------------------


@needs_shm
class TestPinnedLifecycle:
    def test_close_leaves_no_residue(self):
        data, queries = _workload()
        before = _own_segments()
        cfg = ParallelConfig(n_workers=2, backend="pinned", persistent=True)
        eng = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional", parallel=cfg
        )
        eng.search(queries)
        pids = cfg._pool.worker_pids()
        cfg.close()
        assert _own_segments() == before
        for pid in pids:
            # workers exited (double-fork reuse would raise nothing;
            # daemon children are reaped by multiprocessing join)
            assert not _pid_alive(pid)

    def test_dropped_config_cleans_via_finalizer(self):
        data, queries = _workload()
        before = _own_segments()
        cfg = ParallelConfig(n_workers=2, backend="pinned", persistent=True)
        APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional", parallel=cfg
        ).search(queries)
        pool = cfg._pool
        assert pool is not None and not pool.closed
        del cfg
        gc.collect()
        assert _own_segments() == before
        assert not any(_pid_alive(p) for p in pool.worker_pids())

    def test_pool_shutdown_idempotent_and_blocks_reuse(self):
        pool = PinnedWorkerPool(2)
        pool.shutdown()
        pool.shutdown()  # idempotent
        assert pool.closed
        with pytest.raises(RingBrokenError):
            pool.run_tasks([PartitionTask(
                p_idx=0, start=0, end=1,
                dataset_bits=np.zeros((1, 8), np.uint8), mode="functional",
                d=8, collector_depth=1, max_fan_in=16,
                counter_max_increment=1,
            )], np.zeros((1, 8), np.uint8))

    def test_empty_batch_is_noop(self):
        with PinnedWorkerPool(2) as pool:
            report = pool.run_tasks([], None)
        assert report.results == []

    def test_heartbeats_advance(self):
        data, queries = _workload(n=30, d=8, n_queries=2)
        with PinnedWorkerPool(2) as pool:
            assert pool.heartbeats() == [0, 0]
            pool.run_tasks(_knn_tasks(data, cap=10), queries)
            assert sum(pool.heartbeats()) > 0

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs procfs"
    )
    def test_no_fd_leak_across_pool_lifecycles(self):
        data, queries = _workload(n=30, d=8, n_queries=2)
        tasks = _knn_tasks(data, cap=10)
        # warm-up: import/allocator side effects open fds once
        pool = PinnedWorkerPool(2)
        pool.run_tasks(tasks, queries)
        pool.shutdown()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            pool = PinnedWorkerPool(2)
            pool.run_tasks(tasks, queries)
            pool.shutdown()
        assert len(os.listdir("/proc/self/fd")) <= before + 2

    def test_dropped_pinned_config_does_not_hang_exit(self, tmp_path):
        """A dropped persistent pinned config must neither hang
        interpreter exit nor leave /dev/shm residue behind."""
        import subprocess
        import sys

        script = tmp_path / "leak_pinned.py"
        script.write_text(
            "import numpy as np, os\n"
            "from repro.core.engine import APSimilaritySearch\n"
            "from repro.host.parallel import ParallelConfig\n"
            "rng = np.random.default_rng(0)\n"
            "data = rng.integers(0, 2, (40, 16), dtype=np.uint8)\n"
            "queries = rng.integers(0, 2, (3, 16), dtype=np.uint8)\n"
            "cfg = ParallelConfig(n_workers=2, backend='pinned',"
            " persistent=True)\n"
            "res = APSimilaritySearch(data, k=2, board_capacity=12,"
            " execution='functional', parallel=cfg).search(queries)\n"
            "assert res.n_workers == 2, res.n_workers\n"
            "print('pid', os.getpid(), flush=True)\n"
            # cfg dropped without close(): the finalizer must clean up
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else ""
        )
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        pid = int(proc.stdout.split("pid")[1].strip())
        assert not glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{pid}_*")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


# -- robustness --------------------------------------------------------------


@needs_shm
@needs_fork
class TestPinnedRobustness:
    def test_worker_killed_mid_task_respawns_and_resubmits(self, tmp_path):
        data, queries = _workload(n=40, d=8, n_queries=2)
        flag = tmp_path / "crashed-once"
        tasks = _crash_tasks(data, cap=10, flag=flag)
        before = _own_segments()
        with PinnedWorkerPool(2, poll_timeout_s=0.2) as pool:
            report = pool.run_tasks(tasks, queries)
            assert pool.respawns >= 1
            assert report.respawns >= 1
            assert flag.exists()  # the crash really happened mid-task
            assert [r.p_idx for r in report.results] == [0, 1, 2, 3]
            serial = run_partitions(
                tasks, queries, ParallelConfig(backend="serial")
            )
            for rs, rp in zip(serial.results, report.results):
                assert np.array_equal(rs.payload.indices, rp.payload.indices)
        assert _own_segments() == before  # no leaked ring or spills

    def test_run_partitions_pinned_survives_worker_death(self, tmp_path):
        """End to end, without serial-fallback masking: the surviving
        report must come from the ring (n_workers == 2, respawns)."""
        data, queries = _workload(n=40, d=8, n_queries=2)
        flag = tmp_path / "crashed-once-e2e"
        tasks = _crash_tasks(data, cap=10, flag=flag)
        cfg = ParallelConfig(
            n_workers=2, backend="pinned", persistent=True,
            fallback_serial=False,
        )
        with cfg:
            report = run_partitions(tasks, queries, cfg)
            assert report.n_workers == 2
            assert cfg._pool.respawns >= 1
        assert [r.p_idx for r in report.results] == [0, 1, 2, 3]

    def test_repeated_crasher_raises_cleanly(self, tmp_path):
        data, queries = _workload(n=20, d=8, n_queries=2)
        tasks = _crash_tasks(data, cap=10, always=True)
        before = _own_segments()
        pool = PinnedWorkerPool(2, task_retries=1, poll_timeout_s=0.2)
        try:
            with pytest.raises(RingWorkerCrashed):
                pool.run_tasks(tasks, queries)
            with pytest.raises(RingBrokenError):
                pool.run_tasks(tasks, queries)  # pool is broken now
        finally:
            pool.shutdown()
        assert _own_segments() == before

    def test_zero_retries_raises_on_first_death(self, tmp_path):
        data, queries = _workload(n=20, d=8, n_queries=2)
        flag = tmp_path / "would-succeed-on-retry"
        tasks = _crash_tasks(data, cap=10, flag=flag)
        with PinnedWorkerPool(2, task_retries=0, poll_timeout_s=0.2) as pool:
            with pytest.raises(RingWorkerCrashed):
                pool.run_tasks(tasks, queries)

    def test_idle_dead_worker_healed_between_runs(self):
        data, queries = _workload(n=30, d=8, n_queries=2)
        tasks = _knn_tasks(data, cap=10)
        with PinnedWorkerPool(2, poll_timeout_s=0.2) as pool:
            first = pool.run_tasks(tasks, queries)
            os.kill(pool.worker_pids()[0], 9)  # dies while idle
            # wait for the kernel to reap it into zombie state
            deadline = 50
            while _proc_running(pool.worker_pids()[0]) and deadline:
                deadline -= 1
                import time as _t
                _t.sleep(0.02)
            second = pool.run_tasks(tasks, queries)
            assert pool.respawns >= 1
        for rf, rs in zip(first.results, second.results):
            assert np.array_equal(rf.payload.indices, rs.payload.indices)
            assert np.array_equal(rf.payload.distances, rs.payload.distances)


def _proc_running(pid: int) -> bool:
    """True while the pid is alive and not a zombie (Linux procfs)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(")")[-1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


# -- dispatch accounting -----------------------------------------------------


@needs_shm
class TestDispatchAccounting:
    def test_pinned_engine_reports_dispatch_overhead(self):
        data, queries = _workload()
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            res = APSimilaritySearch(
                data, k=3, board_capacity=12, execution="functional",
                parallel=cfg,
            ).search(queries)
        assert res.dispatch_overhead_s is not None
        assert res.dispatch_overhead_s >= 0.0

    def test_serial_reports_none(self):
        data, queries = _workload()
        res = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)
        assert res.dispatch_overhead_s is None

    def test_ring_queue_depth_bounded_by_inflight_cap(self):
        data, queries = _workload(n=60, d=8, n_queries=2)
        tasks = _knn_tasks(data, cap=10)
        with PinnedWorkerPool(2, poll_timeout_s=0.2) as pool:
            report = pool.run_tasks(tasks, queries)
        assert 1 <= report.max_queue_depth <= 2 * 2  # cap * workers
        lats = [x for x in report.dispatch_latencies_s if x is not None]
        assert len(lats) == len(tasks)
        assert all(x >= 0 for x in lats)

    def test_workload_result_carries_dispatch_overhead(self):
        data, queries = _workload(n=50, d=16, n_queries=3, seed=3)
        with ParallelConfig(
            n_workers=2, backend="pinned", persistent=True
        ) as cfg:
            res = WorkloadSearch(
                data, "jaccard", params={"k": 3}, board_capacity=12,
                parallel=cfg,
            ).search(queries)
        assert res.dispatch_overhead_s is not None
        assert res.dispatch_overhead_s >= 0.0

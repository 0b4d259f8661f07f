"""Tests for sharded parallel partition execution (repro.host.parallel)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.runtime import RuntimeCounters
from repro.core import dataset as dataset_mod
from repro.core.engine import APSimilaritySearch
from repro.host.parallel import (
    ParallelConfig,
    PartitionTask,
    execute_partition,
    run_partitions,
)
from repro.host.shm import SHM_UNAVAILABLE_REASON, shm_available
from tests.conftest import brute_force_knn


def _workload(n=40, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


class TestParallelConfig:
    def test_defaults_serial(self):
        assert ParallelConfig().effective_workers == 1

    def test_serial_backend_forces_one_worker(self):
        assert ParallelConfig(n_workers=8, backend="serial").effective_workers == 1

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_workers=-1)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelConfig(backend="warp")

    def test_thread_backend_counts_workers(self):
        assert ParallelConfig(n_workers=4, backend="thread").effective_workers == 4


class TestShardedParity:
    """Acceptance: sharded search is bit-identical to the sequential path."""

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_functional_bit_identical(self, n_workers):
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional"
        ).search(queries)
        assert seq.n_partitions >= 3
        par = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional",
            parallel=n_workers,
        ).search(queries)
        assert (par.indices == seq.indices).all()
        assert (par.distances == seq.distances).all()

    def test_simulate_bit_identical(self):
        data, queries = _workload(n=21, d=8, n_queries=3)
        seq = APSimilaritySearch(
            data, k=3, board_capacity=7, execution="simulate"
        ).search(queries)
        par = APSimilaritySearch(
            data, k=3, board_capacity=7, execution="simulate", parallel=2
        ).search(queries)
        assert (par.indices == seq.indices).all()
        assert (par.distances == seq.distances).all()

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_matches_brute_force(self, backend):
        data, queries = _workload(n=50, d=12, n_queries=4, seed=3)
        res = APSimilaritySearch(
            data, k=5, board_capacity=9, execution="functional",
            parallel=ParallelConfig(n_workers=3, backend=backend),
        ).search(queries)
        exp_i, exp_d = brute_force_knn(data, queries, 5)
        assert (res.indices == exp_i).all()
        assert (res.distances == exp_d).all()

    def test_result_records_worker_lanes(self):
        data, queries = _workload()
        par = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional", parallel=2
        ).search(queries)
        assert par.n_workers == 2
        seq = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional"
        ).search(queries)
        assert seq.n_workers == 1
        # single-partition dataset: the parallel path is never taken
        one = APSimilaritySearch(
            data, k=2, board_capacity=100, execution="functional", parallel=4
        ).search(queries)
        assert one.n_partitions == 1
        assert one.n_workers == 1

    def test_counter_aggregation_exact(self):
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional"
        ).search(queries)
        par = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional", parallel=2
        ).search(queries)
        assert par.counters == seq.counters

    def test_int_parallel_shorthand(self):
        data, queries = _workload(n=30)
        eng = APSimilaritySearch(data, k=1, parallel=2, execution="functional")
        assert eng.parallel == ParallelConfig(n_workers=2)
        res = eng.search(queries)
        exp_i, _ = brute_force_knn(data, queries, 1)
        assert (res.indices == exp_i).all()

    def test_rejects_bad_parallel(self):
        data, _ = _workload()
        with pytest.raises(ValueError, match="parallel"):
            APSimilaritySearch(data, k=1, parallel="many")


class TestRunPartitions:
    def _tasks(self, data, cap, mode="functional"):
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

    def test_results_sorted_by_partition(self):
        data, queries = _workload()
        run = run_partitions(
            self._tasks(data, 12), queries, ParallelConfig(n_workers=2)
        )
        assert [r.p_idx for r in run.results] == list(range(len(run.results)))

    def test_reports_actual_worker_count(self):
        data, queries = _workload()
        tasks = self._tasks(data, 12)
        assert run_partitions(tasks, queries, ParallelConfig()).n_workers == 1
        assert (
            run_partitions(tasks, queries, ParallelConfig(n_workers=2)).n_workers
            == 2
        )
        # more workers than partitions: capped at the task count
        capped = run_partitions(tasks, queries, ParallelConfig(n_workers=64))
        assert capped.n_workers == len(tasks)

    def test_serial_equals_parallel(self):
        self._serial_equals(mode="functional", backend="process")

    @pytest.mark.parametrize("mode,backend", [
        ("functional", "thread"), ("functional", "pinned"),
        ("simulate", "thread"), ("simulate", "process"),
        ("simulate", "pinned"),
    ])
    def test_both_back_ends_ride_every_pool(self, mode, backend):
        self._serial_equals(mode, backend)

    def _serial_equals(self, mode, backend):
        """Both kNN back-ends ride the one task path on every backend:
        decoded partials and counters are bit-identical to serial, and
        the two back-ends agree with each other."""
        if backend == "pinned" and not shm_available():
            pytest.skip(SHM_UNAVAILABLE_REASON)
        data, queries = _workload(n=40, d=8, n_queries=3)
        tasks = self._tasks(data, 12, mode=mode)
        serial = run_partitions(tasks, queries, ParallelConfig(n_workers=1)).results
        pooled = run_partitions(
            tasks, queries, ParallelConfig(n_workers=3, backend=backend)
        ).results
        other = run_partitions(
            self._tasks(
                data, 12,
                mode="simulate" if mode == "functional" else "functional",
            ),
            queries,
        ).results
        for a, b, c in zip(serial, pooled, other):
            for x in (b, c):
                assert np.array_equal(a.payload.indices, x.payload.indices)
                assert np.array_equal(a.payload.distances, x.payload.distances)
                assert a.counters == x.counters

    def test_execute_partition_counters_functional(self):
        data, queries = _workload(n=10)
        (task,) = self._tasks(data, 10)
        res = execute_partition(task, queries)
        assert res.counters.configurations == 1
        assert res.counters.reports_received == 10 * queries.shape[0]

    def test_execute_partition_rejects_bad_mode(self):
        data, queries = _workload(n=10)
        (task,) = self._tasks(data, 10)
        bad = PartitionTask(
            p_idx=0, start=0, end=10, dataset_bits=data, mode="warp",
            d=task.d, collector_depth=task.collector_depth,
            max_fan_in=16, counter_max_increment=1,
        )
        with pytest.raises(ValueError, match="mode"):
            execute_partition(bad, queries)

    def test_worker_counters_match_engine_counters(self):
        """Per-partition deltas sum to exactly the sequential counters."""
        data, queries = _workload()
        run = run_partitions(
            self._tasks(data, 12), queries, ParallelConfig(n_workers=2)
        )
        total = RuntimeCounters()
        for r in run.results:
            total.merge(r.counters)
        seq = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional"
        ).search(queries)
        assert total == seq.counters


class TestThreadBackend:
    """thread ≡ process ≡ sequential, bit for bit."""

    @pytest.mark.parametrize("execution", ["functional", "simulate"])
    def test_three_way_parity(self, execution):
        n = 40 if execution == "functional" else 21
        d = 16 if execution == "functional" else 8
        data, queries = _workload(n=n, d=d, n_queries=3)
        cap = 12 if execution == "functional" else 7
        results = {}
        for name, parallel in [
            ("sequential", None),
            ("process", ParallelConfig(n_workers=2, backend="process")),
            ("thread", ParallelConfig(n_workers=2, backend="thread")),
        ]:
            results[name] = APSimilaritySearch(
                data, k=4, board_capacity=cap, execution=execution,
                parallel=parallel,
            ).search(queries)
        seq = results["sequential"]
        for name in ("process", "thread"):
            res = results[name]
            assert (res.indices == seq.indices).all(), name
            assert (res.distances == seq.distances).all(), name
            assert res.counters == seq.counters, name
        assert results["thread"].n_workers == 2

    def test_thread_workers_share_cache(self):
        """parallel= and cache= compose under the thread backend: the
        second search hits the parent's cache from worker threads."""
        from repro.ap.compiler import BoardImageCache

        data, queries = _workload()
        cache = BoardImageCache()
        eng = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional",
            parallel=ParallelConfig(n_workers=2, backend="thread"),
            cache=cache,
        )
        cold = eng.search(queries)
        assert cold.counters.image_cache_hits == 0
        assert cache.stats.misses == cold.n_partitions
        warm = eng.search(queries)
        assert warm.counters.image_cache_hits == warm.n_partitions
        assert (warm.indices == cold.indices).all()
        assert (warm.distances == cold.distances).all()

    @given(st.integers(2, 40), st.integers(2, 12), st.integers(1, 4),
           st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_thread_parity_property(self, n, d, q, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, (n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, (q, d), dtype=np.uint8)
        cap = max(1, n // 3)
        seq = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional"
        ).search(queries)
        thr = APSimilaritySearch(
            data, k=k, board_capacity=cap, execution="functional",
            parallel=ParallelConfig(n_workers=3, backend="thread"),
        ).search(queries)
        assert (thr.indices == seq.indices).all()
        assert (thr.distances == seq.distances).all()


class TestPersistentPool:
    def test_pool_spawned_lazily_and_reused(self):
        data, queries = _workload()
        config = ParallelConfig(n_workers=2, backend="thread", persistent=True)
        assert config._pool is None
        eng = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional", parallel=config
        )
        eng.search(queries)
        pool = config._pool
        assert pool is not None
        eng.search(queries)
        assert config._pool is pool  # reused, not respawned
        config.close()
        assert config._pool is None

    def test_context_manager_closes(self):
        data, queries = _workload()
        with ParallelConfig(n_workers=2, backend="thread", persistent=True) as cfg:
            res = APSimilaritySearch(
                data, k=2, board_capacity=12, execution="functional", parallel=cfg
            ).search(queries)
            assert res.n_workers == 2
            assert cfg._pool is not None
        assert cfg._pool is None

    def test_close_without_spawn_is_noop(self):
        ParallelConfig(persistent=True).close()

    def test_concurrent_first_use_spawns_one_pool(self):
        """Racy lazy spawn must not leak a second executor."""
        import threading

        cfg = ParallelConfig(n_workers=2, backend="thread", persistent=True)
        barrier = threading.Barrier(4)
        seen = []

        def acquire():
            barrier.wait()
            pool, owned = cfg._acquire_pool(2)
            seen.append((pool, owned))

        threads = [threading.Thread(target=acquire) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pools = {id(pool) for pool, _ in seen}
            assert len(pools) == 1
            assert all(not owned for _, owned in seen)
        finally:
            cfg.close()

    def test_persistent_results_match_one_shot(self):
        data, queries = _workload()
        one_shot = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional", parallel=2
        ).search(queries)
        with ParallelConfig(n_workers=2, persistent=True) as cfg:
            persistent = APSimilaritySearch(
                data, k=3, board_capacity=12, execution="functional", parallel=cfg
            ).search(queries)
        assert (persistent.indices == one_shot.indices).all()
        assert (persistent.distances == one_shot.distances).all()
        assert persistent.counters == one_shot.counters

    def test_equality_ignores_pool_state(self):
        data, queries = _workload()
        cfg = ParallelConfig(n_workers=2, backend="thread", persistent=True)
        APSimilaritySearch(
            data, k=1, board_capacity=12, execution="functional", parallel=cfg
        ).search(queries)
        try:
            assert cfg == ParallelConfig(
                n_workers=2, backend="thread", persistent=True
            )
        finally:
            cfg.close()


class TestPoolLeakGuard:
    """A persistent pool must not outlive a config dropped without close()."""

    def test_dropped_config_shuts_pool_via_finalizer(self):
        import gc

        cfg = ParallelConfig(n_workers=2, backend="thread", persistent=True)
        pool, owned = cfg._acquire_pool(2)
        assert not owned and cfg._pool_finalizer is not None
        del cfg
        gc.collect()
        assert pool._shutdown  # finalizer fired, workers released

    def test_close_detaches_finalizer(self):
        cfg = ParallelConfig(n_workers=2, backend="thread", persistent=True)
        cfg._acquire_pool(2)
        finalizer = cfg._pool_finalizer
        cfg.close()
        assert cfg._pool_finalizer is None
        assert not finalizer.alive  # detached, will not fire later

    def test_dropped_process_config_does_not_hang_exit(self, tmp_path):
        """Regression: a dropped persistent process pool must not hang
        interpreter exit (the weakref.finalize guard also runs atexit)."""
        import os
        import subprocess
        import sys

        script = tmp_path / "leak.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.core.engine import APSimilaritySearch\n"
            "from repro.host.parallel import ParallelConfig\n"
            "rng = np.random.default_rng(0)\n"
            "data = rng.integers(0, 2, (40, 16), dtype=np.uint8)\n"
            "queries = rng.integers(0, 2, (3, 16), dtype=np.uint8)\n"
            "cfg = ParallelConfig(n_workers=2, backend='process',"
            " persistent=True)\n"
            "res = APSimilaritySearch(data, k=2, board_capacity=12,"
            " execution='functional', parallel=cfg).search(queries)\n"
            "assert res.n_workers == 2\n"
            "print('done', flush=True)\n"  # cfg dropped without close()
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env
                     else "")
        )
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout


class TestProcessCacheShipback:
    """backend="process" composes with cache=: artifacts ship both ways."""

    @pytest.mark.parametrize("execution", ["functional", "simulate"])
    def test_cold_run_fills_parent_cache_warm_run_hits(self, execution):
        from repro.ap.compiler import BoardImageCache

        n, d, cap = (40, 16, 12) if execution == "functional" else (21, 8, 7)
        data, queries = _workload(n=n, d=d, n_queries=3)
        cache = BoardImageCache()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=cap, execution=execution,
            parallel=ParallelConfig(n_workers=2, backend="process"),
            cache=cache,
        )
        cold = eng.search(queries)
        assert cold.counters.image_cache_hits == 0
        # workers shipped their builds back: the parent cache is warm
        assert len(cache) == cold.n_partitions
        warm = eng.search(queries)
        assert warm.counters.image_cache_hits == warm.n_partitions
        assert (warm.indices == cold.indices).all()
        assert (warm.distances == cold.distances).all()

    def test_process_warm_results_match_sequential(self):
        from repro.ap.compiler import BoardImageCache

        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional"
        ).search(queries)
        eng = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional",
            parallel=ParallelConfig(n_workers=2, backend="process"),
            cache=BoardImageCache(),
        )
        eng.search(queries)
        warm = eng.search(queries)
        assert (warm.indices == seq.indices).all()
        assert (warm.distances == seq.distances).all()

    def test_broken_pool_fallback_rebuilds_from_original_tasks(
        self, monkeypatch
    ):
        """Regression: the serial fallback after a broken pool must not
        reuse artifact-attached tasks — their dataset slices are
        stubbed, and a small cache may have evicted the artifact by the
        time the in-process pass reaches it (which once rebuilt an
        empty board and silently dropped that partition's neighbors)."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.ap.compiler import BoardImageCache

        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)

        class BrokenPool:
            def submit(self, fn, *args, **kwargs):
                raise BrokenProcessPool("worker spawn failed")

            def shutdown(self, *args, **kwargs):
                pass

        # by value, and (where shm works) by slice ref into the
        # promoted segment: the original tasks keep their refs intact
        carriers = [("array", dataset_mod.SHM_PROMOTE_MIN_BYTES)]
        if shm_available():
            carriers.append(("shm", 1))
        for kind, floor in carriers:
            with monkeypatch.context() as m:
                m.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", floor)
                eng = APSimilaritySearch(
                    data, k=3, board_capacity=12, execution="functional",
                    parallel=ParallelConfig(n_workers=2, backend="process"),
                    cache=BoardImageCache(max_entries=1),  # evicts aggressively
                )
                assert eng.dataset.kind == kind
                assert (eng.search(queries).indices == seq.indices).all()
                m.setattr(
                    ParallelConfig, "_spawn_pool", lambda self, n: BrokenPool()
                )
                fallback = eng.search(queries)
                assert (fallback.indices == seq.indices).all(), kind
                assert (fallback.distances == seq.distances).all(), kind

    def test_shipped_artifact_is_reused_not_rebuilt(self, monkeypatch):
        """On a warm run no worker-side board construction happens (the
        serial in-process path exercises the same execute_partition
        code, so the build hook is observable)."""
        import repro.core.engine as eng_mod
        from repro.ap.compiler import BoardImageCache

        data, queries = _workload()
        cache = BoardImageCache()
        eng = APSimilaritySearch(
            data, k=2, board_capacity=12, execution="functional", cache=cache
        )
        eng.search(queries)  # warm the cache in-process
        builds = []
        real = eng_mod.build_functional_board

        def counting(dataset_slice, layout):
            builds.append(1)
            return real(dataset_slice, layout)

        monkeypatch.setattr(eng_mod, "build_functional_board", counting)
        warm = eng.search(queries)
        assert warm.counters.image_cache_hits == warm.n_partitions
        assert not builds


    @pytest.mark.parametrize("backend", [
        "serial", "thread", "process",
        pytest.param("pinned", marks=pytest.mark.skipif(
            not shm_available(), reason=SHM_UNAVAILABLE_REASON)),
    ])
    def test_multi_board_tasks_keep_the_cache_per_board(self, backend, unfused):
        """One task spanning several boards: every backend returns one
        result per task equal to serial's, the cache still holds one
        entry per board, and a pass that finds only some of its boards
        cached (shipped, for process workers) rebuilds just the rest."""
        from repro.ap.compiler import BoardImageCache

        data, queries = _workload(n=72, d=16)  # 6 boards of 12
        cache = BoardImageCache()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional", cache=cache
        )
        tasks = eng._partition_tasks(eng.params, boards_per_pass=3)
        assert [len(t.boards) for t in tasks] == [3, 3]
        with unfused():
            ref = run_partitions(tasks, queries, cache=BoardImageCache()).results
        config = ParallelConfig(n_workers=2, backend=backend)
        cold = run_partitions(tasks, queries, config, cache)
        assert len(cache) == 6 and cache.stats.misses == 6
        # a cache holding every board but the middle one of each task
        holey = BoardImageCache()
        for task in tasks:
            for _, key in task.boards[::2]:
                holey.put(key, cache.get(key))
        partial = run_partitions(tasks, queries, config, holey)
        assert len(holey) == 6  # the two rebuilt boards are in
        assert (holey.stats.hits, holey.stats.misses) == (4, 2)
        for run, hits in ((cold, 0), (partial, 2)):
            assert [r.p_idx for r in run.results] == [0, 1]
            for got, exp in zip(run.results, ref):
                assert np.array_equal(got.payload.indices, exp.payload.indices)
                assert np.array_equal(got.payload.distances, exp.payload.distances)
                assert got.counters.image_cache_hits == hits
                exp.counters.image_cache_hits = hits
                assert got.counters == exp.counters
                assert (got.passes, exp.passes) == (1, 3)

    @pytest.mark.parametrize("version", [1, 2])
    def test_slice_ref_is_touched_once_per_pass_that_needs_rows(
        self, tmp_path, monkeypatch, version
    ):
        """Over a byte-per-bit (version-1) file a warm pass never
        touches the dataset — its slice ref is neither resolved nor
        released — and a cold one resolves it once per task, not per
        board.  Over packed words every pass is one view and one
        release, and no row is ever unpacked."""
        from repro.core.dataset import DatasetSliceRef, write_pds
        from tests.conftest import write_pds_v1

        data, queries = _workload(n=72, d=16)
        path = tmp_path / "warm.pds"
        (write_pds_v1 if version == 1 else write_pds)(path, data)
        eng = APSimilaritySearch(
            str(path), k=3, board_capacity=12, execution="functional",
            cache=True,
        )
        touched = []
        for name in ("resolve", "release"):
            real = getattr(DatasetSliceRef, name)

            def spy(self, _real=real, _name=name):
                touched.append(_name)
                return _real(self)

            monkeypatch.setattr(DatasetSliceRef, name, spy)
        cold = eng.search(queries)  # 6 boards, one pass
        assert touched == (["resolve", "release"] if version == 1 else ["release"])
        warm = eng.search(queries)
        assert touched == (
            ["resolve", "release"] if version == 1 else ["release"] * 2
        )
        assert warm.counters.image_cache_hits == 6
        assert (warm.indices == cold.indices).all()


class TestChunkedDispatch:
    """The stock process backend amortizes dispatch: task lists larger
    than the worker count ride one executor.submit per worker chunk."""

    def _tasks(self, data, cap, mode="functional"):
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

    def test_chunk_bounds_balanced_and_complete(self):
        from repro.host.parallel import _chunk_bounds

        for n_items in (1, 2, 5, 7, 12, 100):
            for n_chunks in (1, 2, 3, 5):
                bounds = _chunk_bounds(n_items, n_chunks)
                assert bounds[0] == 0 and bounds[-1] == n_items
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert all(s >= 0 for s in sizes)
                assert max(sizes) - min(s for s in sizes if s) <= 1

    def test_chunked_process_run_bit_identical(self):
        data, queries = _workload(n=72, d=16, n_queries=4)
        tasks = self._tasks(data, cap=8)  # 9 tasks >> 2 workers
        assert len(tasks) > 2
        serial = run_partitions(tasks, queries, ParallelConfig(backend="serial"))
        chunked = run_partitions(
            tasks, queries, ParallelConfig(n_workers=2, backend="process")
        )
        assert chunked.n_workers == 2
        # one submission per worker chunk, not per task
        assert chunked.queue_depth == 2
        for rs, rp in zip(serial.results, chunked.results):
            assert np.array_equal(rs.payload.indices, rp.payload.indices)
            assert np.array_equal(rs.payload.distances, rp.payload.distances)
            assert rs.counters == rp.counters

    def test_per_task_submits_when_tasks_fit_workers(self):
        data, queries = _workload(n=24, d=16, n_queries=3)
        tasks = self._tasks(data, cap=12)  # 2 tasks, 2 workers
        report = run_partitions(
            tasks, queries, ParallelConfig(n_workers=2, backend="process")
        )
        assert report.queue_depth == len(tasks)

    def test_chunked_run_reports_dispatch_overhead(self):
        data, queries = _workload(n=72, d=16, n_queries=3)
        tasks = self._tasks(data, cap=8)
        report = run_partitions(
            tasks, queries, ParallelConfig(n_workers=2, backend="process")
        )
        assert report.dispatch_overhead_s is not None
        assert report.dispatch_overhead_s >= 0.0


class TestDispatchAccountingBackends:
    def test_thread_backend_reports_dispatch(self):
        data, queries = _workload()
        tasks = TestChunkedDispatch()._tasks(data, 12)
        run = run_partitions(
            tasks, queries, ParallelConfig(n_workers=2, backend="thread")
        )
        assert run.dispatch_overhead_s is not None
        assert run.dispatch_overhead_s >= 0.0
        assert run.queue_depth == len(tasks)

    def test_serial_reports_no_dispatch(self):
        data, queries = _workload()
        run = run_partitions(
            TestChunkedDispatch()._tasks(data, 12),
            queries,
            ParallelConfig(backend="serial"),
        )
        assert run.dispatch_overhead_s is None
        assert run.queue_depth == 0

    def test_pinned_backend_validates(self):
        cfg = ParallelConfig(n_workers=4, backend="pinned")
        assert cfg.effective_workers == 4
        assert not cfg.shares_memory

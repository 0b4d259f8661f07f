"""Tests for the shared-memory task transport (repro.host.shm).

Platforms without a usable ``multiprocessing.shared_memory`` skip the
shm-dependent classes gracefully; the fallback tests run everywhere.
"""

import gc
import glob
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.compiler import (
    BoardImageCache,
    export_artifact_shm,
    import_artifact_shm,
)
from repro.core.engine import APSimilaritySearch, build_functional_board
from repro.core.stream import StreamLayout
from repro.host import parallel as parallel_mod
from repro.host.parallel import ParallelConfig, run_partitions
from repro.host.shm import (
    SHM_SEGMENT_PREFIX,
    SHM_UNAVAILABLE_REASON,
    SegmentRegistry,
    ShmExporter,
    resolve_array,
    shm_available,
)

# One explicit reason string shared by every shm-dependent skip: the
# conftest terminal-summary hook keys off it to report how many
# shared-memory tests a lane silently skipped (a CI lane with no usable
# /dev/shm must be *visibly* running fewer tests, not quietly green).
SHM_SKIP_REASON = SHM_UNAVAILABLE_REASON

needs_shm = pytest.mark.skipif(not shm_available(), reason=SHM_SKIP_REASON)


def _workload(n=40, d=16, n_queries=5, seed=7):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (n_queries, d), dtype=np.uint8),
    )


def _own_segments():
    """This process's live /dev/shm segment names (Linux observability;
    empty set elsewhere — the GC/close assertions still hold via the
    exporter's own bookkeeping)."""
    return set(glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{os.getpid()}_*"))


@needs_shm
class TestArrayRoundTrip:
    @pytest.mark.parametrize("dtype", ["uint8", "int64", "uint64", "float32"])
    def test_round_trip_dtypes(self, dtype):
        arr = (np.arange(60).reshape(5, 12) % 7).astype(dtype)
        with ShmExporter() as exp:
            ref = exp.export_array(arr)
            out = resolve_array(ref)
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            assert (out == arr).all()
            assert not out.flags.writeable

    def test_round_trip_strided_source(self):
        base = np.arange(200, dtype=np.int64).reshape(10, 20)
        views = [base[::2], base[:, ::3], base.T, base[1:7, 3:15]]
        with ShmExporter() as exp:
            for v in views:
                out = resolve_array(exp.export_array(v))
                assert (out == v).all()

    def test_empty_array_needs_no_segment(self):
        with ShmExporter() as exp:
            ref = exp.export_array(np.empty((0, 8), dtype=np.uint8))
            assert ref.segment == ""
            out = resolve_array(ref)
            assert out.shape == (0, 8)

    @given(
        st.integers(0, 30),
        st.integers(1, 16),
        st.sampled_from(["uint8", "int64", "float64"]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, d, dtype, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 100, (n, d)).astype(dtype)
        with ShmExporter() as exp:
            out = resolve_array(exp.export_array(arr))
            assert out.shape == arr.shape and out.dtype == arr.dtype
            assert (out == arr).all()

    def test_views_are_read_only(self):
        with ShmExporter() as exp:
            out = resolve_array(exp.export_array(np.ones((3, 3))))
            with pytest.raises(ValueError):
                out[0, 0] = 5.0


@needs_shm
class TestExporter:
    def test_dedupe_same_array_exports_once(self):
        data = np.arange(1024, dtype=np.uint8).reshape(32, 32)
        with ShmExporter() as exp:
            r1 = exp.export_array(data)
            r2 = exp.export_array(data)
            assert r1 == r2
            assert exp.stats.arrays_exported == 1
            assert exp.stats.dedupe_hits == 1

    def test_slices_of_one_dataset_export_separately_but_stably(self):
        data = np.arange(4096, dtype=np.uint8).reshape(64, 64)
        with ShmExporter() as exp:
            refs_a = [exp.export_array(data[i : i + 16]) for i in (0, 16, 32)]
            refs_b = [exp.export_array(data[i : i + 16]) for i in (0, 16, 32)]
            assert refs_a == refs_b
            assert exp.stats.arrays_exported == 3

    def test_pickled_artifact_round_trip(self):
        data, queries = _workload(n=24, d=16)
        layout = StreamLayout(16, 2)
        board = build_functional_board(data, layout)
        with ShmExporter() as exp:
            shmp = export_artifact_shm(board, exp)
            # big buffers are out of band: skeleton stays small
            assert shmp.nbytes < board.nbytes + 1024
            clone = import_artifact_shm(shmp)
            codes_a, cycles_a = board.query_topk(queries, 5)
            codes_b, cycles_b = clone.query_topk(queries, 5)
            assert (codes_a == codes_b).all()
            assert (cycles_a == cycles_b).all()

    def test_pickled_artifact_dedupes_by_identity(self):
        data, _ = _workload(n=24, d=16)
        board = build_functional_board(data, StreamLayout(16, 2))
        with ShmExporter() as exp:
            s1 = export_artifact_shm(board, exp)
            s2 = export_artifact_shm(board, exp)
            assert s1 is s2
            assert exp.stats.pickles_exported == 1

    def test_export_after_close_raises(self):
        exp = ShmExporter()
        exp.close()
        with pytest.raises(RuntimeError, match="closed"):
            exp.export_array(np.ones(4))

    def test_max_bytes_bounds_the_arena(self):
        with ShmExporter(max_bytes=1 << 16) as exp:
            exp.export_array(np.zeros(1 << 12, dtype=np.uint8))
            with pytest.raises(RuntimeError, match="max_bytes"):
                exp.export_array(np.zeros(1 << 20, dtype=np.uint8))
            # the exporter stays usable for payloads that fit
            ref = exp.export_array(np.arange(16, dtype=np.uint8))
            assert (resolve_array(ref) == np.arange(16)).all()

    def test_arena_overflow_degrades_search_to_pickle(self, monkeypatch):
        monkeypatch.setattr(ShmExporter, "DEFAULT_MAX_BYTES", 1024)
        data, queries = _workload(n=200, d=32)
        seq = APSimilaritySearch(
            data, k=3, board_capacity=32, execution="functional"
        ).search(queries)
        res = APSimilaritySearch(
            data, k=3, board_capacity=32, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="shm"
            ),
        ).search(queries)
        assert res.transport == "pickle"
        assert (res.indices == seq.indices).all()


@needs_shm
class TestSegmentLeaks:
    """No /dev/shm residue after close or GC (regression)."""

    def test_close_unlinks_segments(self):
        before = _own_segments()
        exp = ShmExporter()
        exp.export_array(np.ones((256, 256)))
        assert len(_own_segments()) > len(before)
        exp.close()
        assert _own_segments() == before

    def test_dropped_exporter_cleans_via_finalizer(self):
        before = _own_segments()
        exp = ShmExporter()
        exp.export_array(np.ones((64, 64)))
        assert len(_own_segments()) > len(before)
        del exp
        gc.collect()
        assert _own_segments() == before

    def test_pool_close_leaves_no_residue(self):
        data, queries = _workload(n=64, d=16)
        before = _own_segments()
        cfg = ParallelConfig(
            n_workers=2, backend="process", transport="shm", persistent=True
        )
        with cfg:
            res = APSimilaritySearch(
                data, k=3, board_capacity=16, execution="functional",
                parallel=cfg,
            ).search(queries)
            assert res.transport == "shm"
        gc.collect()
        assert _own_segments() == before

    def test_one_shot_run_leaves_no_residue(self):
        data, queries = _workload(n=64, d=16)
        before = _own_segments()
        res = APSimilaritySearch(
            data, k=3, board_capacity=16, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="shm"
            ),
        ).search(queries)
        assert res.transport == "shm"
        gc.collect()
        assert _own_segments() == before

    def test_registry_refcounts_and_releases(self):
        reg = SegmentRegistry(keep_alive=0)
        with ShmExporter() as exp:
            ref = exp.export_array(np.arange(32, dtype=np.int64))
            a = resolve_array(ref, reg)
            b = resolve_array(ref, reg)
            assert len(reg) == 1  # one segment, two references
            del a
            gc.collect()
            assert len(reg) == 1
            del b
            gc.collect()
            assert len(reg) == 0


@needs_shm
class TestTransportParity:
    """serial ≡ thread ≡ process ≡ shm-process, bit for bit."""

    @pytest.mark.parametrize("execution", ["functional", "simulate"])
    def test_four_way_parity(self, execution):
        n = 40 if execution == "functional" else 21
        d = 16 if execution == "functional" else 8
        cap = 12 if execution == "functional" else 7
        data, queries = _workload(n=n, d=d, n_queries=3)
        results = {}
        for name, parallel in [
            ("sequential", None),
            ("thread", ParallelConfig(n_workers=2, backend="thread")),
            ("process", ParallelConfig(
                n_workers=2, backend="process", transport="pickle")),
            ("shm-process", ParallelConfig(
                n_workers=2, backend="process", transport="shm")),
        ]:
            results[name] = APSimilaritySearch(
                data, k=4, board_capacity=cap, execution=execution,
                parallel=parallel,
            ).search(queries)
        seq = results["sequential"]
        for name in ("thread", "process", "shm-process"):
            res = results[name]
            assert (res.indices == seq.indices).all(), name
            assert (res.distances == seq.distances).all(), name
            assert res.counters == seq.counters, name
        assert results["shm-process"].transport == "shm"
        assert results["process"].transport == "pickle"

    def test_warm_cache_shm_parity_and_artifact_reuse(self):
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=4, board_capacity=12, execution="functional"
        ).search(queries)
        cfg = ParallelConfig(
            n_workers=2, backend="process", transport="shm", persistent=True
        )
        with cfg:
            eng = APSimilaritySearch(
                data, k=4, board_capacity=12, execution="functional",
                parallel=cfg, cache=BoardImageCache(),
            )
            eng.search(queries)  # cold: workers build, artifacts ship back
            warm = eng.search(queries)
            again = eng.search(queries)
        assert (warm.indices == seq.indices).all()
        assert (warm.distances == seq.distances).all()
        assert warm.counters.image_cache_hits == warm.n_partitions
        assert (again.indices == seq.indices).all()

    def test_persistent_pool_exports_once(self):
        """Stable payloads cross into shared memory once per pool
        lifetime: repeated searches re-ship descriptors only."""
        data, queries = _workload(n=60, d=16)
        cfg = ParallelConfig(
            n_workers=2, backend="process", transport="shm", persistent=True
        )
        with cfg:
            eng = APSimilaritySearch(
                data, k=3, board_capacity=16, execution="functional",
                parallel=cfg,
            )
            eng.search(queries)
            exported_after_first = cfg._exporter.stats.arrays_exported
            eng.search(queries)
            eng.search(queries)
            assert cfg._exporter.stats.arrays_exported == exported_after_first
            assert cfg._exporter.stats.dedupe_hits > 0

    def test_multiboard_shm_parity(self):
        from repro.core.multiboard import MultiBoardSearch

        data, queries = _workload(n=90, d=16, n_queries=4)
        seq = APSimilaritySearch(
            data, k=5, board_capacity=16, execution="functional"
        ).search(queries)
        res = MultiBoardSearch(
            data, k=5, n_devices=3, board_capacity=16,
            execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="shm"
            ),
        ).search(queries)
        assert (res.indices == seq.indices).all()
        assert (res.distances == seq.distances).all()
        assert res.transport == "shm"


class TestFallback:
    """The pickle path serves whenever shm cannot."""

    def test_transport_validation(self):
        with pytest.raises(ValueError, match="transport"):
            ParallelConfig(transport="carrier-pigeon")

    def test_auto_small_payload_stays_pickle(self):
        data, queries = _workload()
        res = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="auto"
            ),
        ).search(queries)
        assert res.transport == "pickle"

    def test_thread_backend_reports_no_transport(self):
        data, queries = _workload()
        res = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="thread", transport="shm"
            ),
        ).search(queries)
        assert res.transport == "none"

    def test_shm_unavailable_falls_back_to_pickle(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "shm_available", lambda: False)
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)
        res = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="shm"
            ),
        ).search(queries)
        assert res.transport == "pickle"
        assert (res.indices == seq.indices).all()
        assert (res.distances == seq.distances).all()

    def test_export_failure_degrades_to_pickle(self, monkeypatch):
        def broken_export(self, arr):
            raise OSError("no space on /dev/shm")

        monkeypatch.setattr(ShmExporter, "export_array", broken_export)
        data, queries = _workload()
        seq = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        ).search(queries)
        res = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional",
            parallel=ParallelConfig(
                n_workers=2, backend="process", transport="shm"
            ),
        ).search(queries)
        assert res.transport == "pickle"
        assert (res.indices == seq.indices).all()

    def test_measure_ipc_records_payload(self):
        data, queries = _workload()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=12, execution="functional"
        )
        run = run_partitions(
            eng._partition_tasks(eng.params),
            queries,
            ParallelConfig(
                n_workers=2, backend="process", transport="pickle",
                measure_ipc=True,
            ),
        )
        assert run.transport == "pickle"
        assert run.ipc_payload_bytes > 0

    def test_descriptor_smaller_than_pickled_payload(self):
        if not shm_available():
            pytest.skip(SHM_SKIP_REASON)
        data, queries = _workload(n=400, d=64, n_queries=8, seed=3)
        eng = APSimilaritySearch(
            data, k=3, board_capacity=64, execution="functional"
        )
        tasks = eng._partition_tasks(eng.params)
        pickled = sum(
            len(pickle.dumps((t, queries), protocol=pickle.HIGHEST_PROTOCOL))
            for t in tasks
        )
        with ShmExporter() as exp:
            qref = exp.export_array(queries)
            stubs = [parallel_mod._export_task(t, exp) for t in tasks]
            shm_bytes = sum(
                len(pickle.dumps((t, qref), protocol=pickle.HIGHEST_PROTOCOL))
                for t in stubs
            )
        assert shm_bytes * 3 < pickled

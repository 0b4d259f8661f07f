"""Tests for shared-memory dataset segments (repro.host.shm) and the
promotion of in-memory datasets onto them for out-of-process workers.

Platforms without a usable ``multiprocessing.shared_memory`` skip the
shm-dependent classes gracefully; the fallback tests run everywhere.
"""

import errno
import gc
import glob
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dataset as dataset_mod
from repro.core.dataset import PackedDataset, ShmStore
from repro.core.engine import APSimilaritySearch
from repro.core.workload import WorkloadSearch
from repro.host import shm as shm_mod
from repro.host.parallel import ParallelConfig, run_partitions
from repro.host.rpc import ShardServer
from repro.host.shm import (
    SHM_SEGMENT_PREFIX,
    SHM_UNAVAILABLE_REASON,
    SegmentRegistry,
    export_array,
    resolve_array,
    shm_available,
)
from tests.conftest import submitted_bytes

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
    empty set elsewhere)."""
    return set(glob.glob(f"/dev/shm/{SHM_SEGMENT_PREFIX}_{os.getpid()}_*"))


def _open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("/proc/self/fd unavailable (fd accounting is Linux-only)")
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def tiny_floor(monkeypatch):
    """Promote test-sized datasets: the size floor is policy, not
    mechanism, and nothing below exercises it except the floor test."""
    monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1)


def _process(**kw):
    return ParallelConfig(n_workers=2, backend="process", **kw)


@needs_shm
class TestArrayRoundTrip:
    @pytest.mark.parametrize("dtype", ["uint8", "int64", "uint64", "float32"])
    def test_round_trip_dtypes(self, dtype):
        arr = (np.arange(60).reshape(5, 12) % 7).astype(dtype)
        ref, view = export_array(arr)
        out = resolve_array(ref)
        for got in (out, view):
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            assert (got == arr).all()
            assert not got.flags.writeable

    def test_round_trip_strided_source(self):
        base = np.arange(200, dtype=np.int64).reshape(10, 20)
        for v in [base[::2], base[:, ::3], base.T, base[1:7, 3:15]]:
            ref, view = export_array(v)
            assert (resolve_array(ref) == v).all()

    def test_empty_array_needs_no_segment(self):
        before = _own_segments()
        ref, _ = export_array(np.empty((0, 8), dtype=np.uint8))
        assert ref.segment == ""
        assert resolve_array(ref).shape == (0, 8)
        assert _own_segments() == before

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
        ref, view = export_array(arr)
        out = resolve_array(ref)
        assert out.shape == arr.shape and out.dtype == arr.dtype
        assert (out == arr).all()

    def test_views_are_read_only(self):
        ref, view = export_array(np.ones((3, 3)))
        for arr in (view, resolve_array(ref)):
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0


@needs_shm
class TestExporter:
    """``ArrayStore.promote`` is the one exporter of dataset segments."""

    def test_dedupe_same_array_exports_once(self, tiny_floor):
        data, _ = _workload()
        before = _own_segments()
        store = PackedDataset.ensure(data).store
        twin = store.promote(0, store.n)
        assert store.promote(0, store.n) is twin
        assert len(_own_segments()) == len(before) + 1
        assert np.array_equal(twin.rows(0, twin.n), data)
        # the memo is weak: the segment goes with its last holder
        del twin
        gc.collect()
        assert _own_segments() == before

    def test_size_band_measures_the_bytes_the_segment_pins(self, monkeypatch):
        """The segment holds packed words, so the band is compared with
        those: 200 x 32 bits pin 1600 bytes of /dev/shm, not 6400."""
        data, _ = _workload(n=200, d=32)
        handle = PackedDataset.ensure(data)
        assert (handle.nbytes, handle.stored_nbytes) == (6400, 6400)
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1601)
        assert handle.attachable() is handle  # below the floor
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1600)
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MAX_BYTES", 1599)
        assert handle.attachable() is handle  # above the ceiling
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MAX_BYTES", 1600)
        twin = handle.attachable()
        assert twin.kind == "shm"
        assert twin.stored_nbytes == twin.store.ref.nbytes == 1600
        assert twin.nbytes == 6400

    def test_arena_overflow_degrades_search_to_pickle(
        self, tiny_floor, monkeypatch
    ):
        """The shared-memory budget (once the exporter arena's cap, now
        the promotion ceiling) is never exceeded: a dataset over it
        runs by value."""
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MAX_BYTES", 1024)
        data, queries = _workload(n=200, d=32)
        seq = APSimilaritySearch(
            data, k=3, board_capacity=32
        ).search(queries)
        before = _own_segments()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=32,
            parallel=_process(),
        )
        res = eng.search(queries)
        assert eng.dataset.kind == "array"
        assert _own_segments() == before
        assert res.transport == "pickle"
        assert (res.indices == seq.indices).all()


@needs_shm
class TestSegmentLeaks:
    """No /dev/shm residue after close or GC (regression)."""

    def test_close_unlinks_segments(self):
        before = _own_segments()
        store = ShmStore.export(np.ones((256, 256), dtype=np.uint8))
        assert len(_own_segments()) == len(before) + 1
        store.close()
        assert _own_segments() == before

    def test_dropped_exporter_cleans_via_finalizer(self):
        """Whoever exported owns the segment through the returned view:
        dropping it — with no close() anywhere — unlinks."""
        before = _own_segments()
        ref, view = export_array(np.ones((64, 64)))
        rows = view[3:9]
        assert len(_own_segments()) == len(before) + 1
        del view
        # a surviving slice keeps the mapping (and the name) alive
        assert len(_own_segments()) == len(before) + 1
        assert (rows == 1).all()
        del rows
        gc.collect()
        assert _own_segments() == before

    def test_pool_close_leaves_no_residue(self, tiny_floor):
        data, queries = _workload(n=64, d=16)
        before = _own_segments()
        cfg = _process(persistent=True)
        with cfg:
            eng = APSimilaritySearch(
                data, k=3, board_capacity=16,
                parallel=cfg,
            )
            assert eng.dataset.kind == "shm"
            eng.search(queries)
        del eng
        gc.collect()
        assert _own_segments() == before

    def test_one_shot_run_leaves_no_residue(self, tiny_floor):
        data, queries = _workload(n=64, d=16)
        before = _own_segments()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=16,
            parallel=_process(),
        )
        assert eng.dataset.kind == "shm"
        eng.search(queries)
        del eng
        gc.collect()
        assert _own_segments() == before

    def test_registry_refcounts_and_releases(self):
        reg = SegmentRegistry(keep_alive=0)
        ref, view = export_array(np.arange(32, dtype=np.int64))
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
class TestPromotion:
    """An in-memory dataset moves to shared memory exactly when an
    engine's workers are out of process — once per store, for as long
    as an engine uses it."""

    def test_engines_over_one_handle_share_one_segment(self, tiny_floor):
        data, queries = _workload(n=96, d=16)
        handle = PackedDataset.ensure(data)
        seq = WorkloadSearch(handle, "knn", {"k": 3}, board_capacity=16).search(
            queries
        )
        before = _own_segments()
        cfg = _process(persistent=True)
        with cfg:
            knn = WorkloadSearch(
                handle, "knn", {"k": 3}, board_capacity=16, parallel=cfg
            )
            rng = WorkloadSearch(
                handle, "range", {"radius": 4}, board_capacity=16, parallel=cfg
            )
            # a shard server builds one engine per (workload, params)
            # over its handle: all of them ride the same segment
            with ShardServer(handle, parallel=cfg, board_capacity=16) as server:
                served = [
                    server._engine("knn", {"k": 3}),
                    server._engine("knn", {"k": 5}),
                    server._engine("jaccard", {"k": 3}),
                ]
                engines = [knn, rng, *served]
                assert {e.dataset.kind for e in engines} == {"shm"}
                assert len({id(e.dataset.store) for e in engines}) == 1
                assert len(_own_segments()) == len(before) + 1
                res = knn.search(queries)
                assert (res.indices == seq.indices).all()
                assert (res.distances == seq.distances).all()
                assert (
                    served[0].search(queries).indices == seq.indices
                ).all()
                del served, engines
        assert handle.kind == "array"  # the caller's handle is untouched
        del knn, rng, server
        gc.collect()
        assert _own_segments() == before

    def test_dropped_engines_release_segment_and_fds(self, tiny_floor):
        data, queries = _workload(n=96, d=16)
        handle = PackedDataset.ensure(data)
        cfg = _process(persistent=True)
        with cfg:
            # warm-up: pool, resource tracker and attach caches settle
            WorkloadSearch(
                handle, "knn", {"k": 3}, board_capacity=16, parallel=cfg
            ).search(queries)
            gc.collect()
            before, fds = _own_segments(), _open_fds()
            a = WorkloadSearch(
                handle, "knn", {"k": 3}, board_capacity=16, parallel=cfg
            )
            b = WorkloadSearch(
                handle, "jaccard", {"k": 3}, board_capacity=16, parallel=cfg
            )
            a.search(queries)
            b.search(queries)
            assert len(_own_segments()) == len(before) + 1
            del a
            gc.collect()
            assert len(_own_segments()) == len(before) + 1  # b still uses it
            del b
            gc.collect()
            assert _own_segments() == before
            assert _open_fds() <= fds
            # the memo was weak: a later engine promotes afresh
            c = WorkloadSearch(
                handle, "knn", {"k": 3}, board_capacity=16, parallel=cfg
            )
            assert c.dataset.kind == "shm"
            assert len(_own_segments()) == len(before) + 1
            del c
        gc.collect()
        assert _own_segments() == before

    @pytest.mark.parametrize(
        "parallel",
        [
            None,
            ParallelConfig(n_workers=2, backend="serial"),
            ParallelConfig(n_workers=2, backend="thread"),
            ParallelConfig(n_workers=1, backend="process"),
        ],
        ids=["default", "serial", "thread", "process-1"],
    )
    def test_in_process_engines_never_create_a_segment(
        self, tiny_floor, parallel
    ):
        data, queries = _workload(n=64, d=16)
        before = _own_segments()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=16,
            parallel=parallel,
        )
        eng.search(queries)
        assert eng.dataset.kind == "array"
        assert _own_segments() == before

    def test_store_backed_handles_pass_through(self, tiny_floor, tmp_path):
        data, _ = _workload(n=64, d=16)
        dataset_mod.write_pds(tmp_path / "d.pds", data)
        mm = PackedDataset.open(tmp_path / "d.pds")
        shm = PackedDataset(ShmStore.export(data))
        assert mm.attachable() is mm
        assert shm.attachable() is shm
        # a sub-window (a shard cut from a bigger array) exports only
        # its own rows
        sub = PackedDataset.ensure(data).slice_rows(8, 40).attachable()
        assert (sub.kind, sub.store.n, sub.n) == ("shm", 32, 32)
        assert np.array_equal(sub.rows(0, 32), data[8:40])

    def test_persistent_pool_exports_once(self, tiny_floor):
        """The dataset crosses into shared memory once per store:
        repeated searches re-ship descriptors only."""
        data, queries = _workload(n=60, d=16)
        before = _own_segments()
        cfg = _process(persistent=True)
        with cfg:
            eng = APSimilaritySearch(
                data, k=3, board_capacity=16,
                parallel=cfg,
            )
            segments = _own_segments() - before
            assert len(segments) == 1
            eng.search(queries)
            first = submitted_bytes(eng, queries)
            for _ in range(2):
                eng.search(queries)
                assert _own_segments() - before == segments
                assert submitted_bytes(eng, queries) == first


class TestFallback:
    """The dataset travels by value whenever shared memory cannot
    carry it — same answers, no segment."""

    def _parity(self, data, queries):
        seq = APSimilaritySearch(
            data, k=3, board_capacity=12
        ).search(queries)
        before = _own_segments()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=12,
            parallel=_process(),
        )
        res = eng.search(queries)
        assert eng.dataset.kind == "array"
        assert res.transport == "pickle"
        assert (res.indices == seq.indices).all()
        assert (res.distances == seq.distances).all()
        assert _own_segments() == before

    def test_auto_small_payload_stays_pickle(self):
        """Below the floor promotion never happens: small searches
        never pay segment setup."""
        data, queries = _workload()
        assert data.nbytes < dataset_mod.SHM_PROMOTE_MIN_BYTES
        self._parity(data, queries)

    def test_thread_backend_reports_no_transport(self):
        data, queries = _workload()
        res = APSimilaritySearch(
            data, k=3, board_capacity=12,
            parallel=ParallelConfig(n_workers=2, backend="thread"),
        ).search(queries)
        assert res.transport == "none"

    def test_transport_validation(self):
        """The transport axis is gone: nothing accepts the knob."""
        with pytest.raises(TypeError):
            ParallelConfig(transport="shm")

    def test_shm_unavailable_falls_back_to_pickle(self, tiny_floor, monkeypatch):
        monkeypatch.setattr(dataset_mod, "shm_available", lambda: False)
        self._parity(*_workload())

    def test_export_failure_degrades_to_pickle(self, monkeypatch):
        """A size-limited /dev/shm refuses the page reservation
        (ENOSPC) instead of SIGBUS-ing the parent mid-copy: the store
        stays an ArrayStore, the search runs by value, and the
        half-made segment is gone."""
        if not shm_available():
            pytest.skip(SHM_SKIP_REASON)
        reserved = []

        def no_space(segment):
            reserved.append(segment.name)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shm_mod, "_reserve_pages", no_space)
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1)
        self._parity(*_workload())
        assert len(reserved) == 1
        assert not os.path.exists(f"/dev/shm/{reserved[0]}")

    def test_measure_ipc_records_payload(self):
        """A kNN engine cuts one task per worker lane (two here, of two
        one-board windows each), so the run crosses to the pool."""
        data, queries = _workload()
        eng = APSimilaritySearch(
            data, k=3, board_capacity=12,
            parallel=_process(),
        )
        tasks = eng._partition_tasks()
        assert [[len(b) for _, _, b in t.window_list()] for t in tasks] == [
            [1, 1], [1, 1]
        ]
        run = run_partitions(tasks, queries, _process())
        assert run.transport == "pickle"
        assert sum(
            len(pickle.dumps((t, queries), protocol=pickle.HIGHEST_PROTOCOL))
            for t in tasks
        ) > 0

    def test_descriptor_smaller_than_pickled_payload(self, tiny_floor):
        if not shm_available():
            pytest.skip(SHM_SKIP_REASON)
        data, queries = _workload(n=400, d=64, n_queries=8, seed=3)

        def submitted_bytes(parallel):
            eng = APSimilaritySearch(
                data, k=3, board_capacity=64,
                parallel=parallel,
            )
            return sum(
                len(pickle.dumps((t, queries), protocol=pickle.HIGHEST_PROTOCOL))
                for t in eng._partition_tasks()
            )

        assert submitted_bytes(_process()) * 3 < submitted_bytes(None)

"""Cross-store parity: ArrayStore ≡ ShmStore ≡ MmapStore, bit for bit.

The PackedDataset refactor's non-negotiable property: where the
dataset's bytes *live* and how they are laid out (in-memory array,
packed shared-memory segment, mmap-backed ``.pds`` file of either
version) must be invisible to every result — for every workload, every
backend, the multi-board layer, and the shard server.  These tests
drive the same data through all the stores and demand byte equality of
answers and of every counter but ``image_cache_hits`` (a packed store's
functional passes are views: every board is served without a compile),
plus fail-fast construction for bad inputs.
"""

import dataclasses
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.compiler import BoardImageCache
from repro.core import dataset as dataset_mod
from repro.core.dataset import PackedDataset, write_pds
from repro.core.engine import APSimilaritySearch
from repro.core.multiboard import MultiBoardSearch
from repro.core.workload import WorkloadSearch
from repro.host.parallel import ParallelConfig
from repro.host.shm import shm_available
from tests.conftest import (
    assert_snapshots_equal,
    counters_but_cache_hits,
    run_snapshot,
    write_pds_v1,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory"
)

WORKLOADS = [
    ("knn", {"k": 4}),
    ("jaccard", {"k": 4}),
    ("range", {"radius": 8}),
]


def _make(rng_seed: int, n: int, d: int, n_q: int):
    rng = np.random.default_rng(rng_seed)
    data = (rng.random((n, d)) < 0.5).astype(np.uint8)
    queries = (rng.random((n_q, d)) < 0.5).astype(np.uint8)
    return data, queries


# Stores that hold packed row words: their functional passes are views.
PACKED = ("mmap", "shm")


def _stores(data, tmp_path):
    """The same rows behind every available store: the in-memory array,
    a ``.pds`` of each version (``mmap`` packed words, ``mmap-v1`` one
    byte per bit), and ``shm``, the packed twin an out-of-process engine
    promotes an in-memory handle to."""
    path = tmp_path / "parity.pds"
    write_pds(path, data, chunk_rows=max(1, len(data) // 3))
    stores = {
        "array": PackedDataset.ensure(data),
        "mmap": PackedDataset.open(path),
        "mmap-v1": PackedDataset.open(write_pds_v1(tmp_path / "v1.pds", data)),
    }
    if shm_available():
        with mock.patch.object(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1):
            stores["shm"] = PackedDataset.ensure(data).attachable()
        assert stores["shm"].kind == "shm"
    return stores


def _assert_same_run(ref, res, kind, label):
    """Same answers and counters; ``image_cache_hits`` by the rule."""
    _assert_same_result(ref.value, res.value, label)
    assert counters_but_cache_hits(res.counters) == counters_but_cache_hits(
        ref.counters
    ), label
    assert res.per_device_partitions == ref.per_device_partitions, label
    functional = res.execution == "functional"
    assert res.counters.image_cache_hits == (
        res.n_partitions if kind in PACKED and functional
        else ref.counters.image_cache_hits
    ), label


def _result_fields(value):
    return {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
        if isinstance(getattr(value, f.name), np.ndarray)
    }


def _assert_same_result(a, b, label):
    fa, fb = _result_fields(a), _result_fields(b)
    assert fa.keys() == fb.keys()
    for name in fa:
        assert np.array_equal(fa[name], fb[name]), f"{label}: {name} differs"


# -- serial parity across workloads and stores -------------------------------


class TestSerialParity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(30, 200),
        d=st.sampled_from([8, 33, 64, 100, 130]),
        n_q=st.integers(1, 6),
        k=st.sampled_from([1, 4, 500]),  # 500: k >= n
        cut=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    )
    def test_all_stores_bit_identical(
        self, tmp_path_factory, seed, n, d, n_q, k, cut
    ):
        data, queries = _make(seed, n, d, n_q)
        tmp_path = tmp_path_factory.mktemp("stores")
        stores = _stores(data, tmp_path)
        # the whole store, and a window cut out of it by slice_rows
        # (unaligned to boards, words' chunks and pages alike)
        windows = [(0, n), (cut[0], n - cut[1])]
        for wl, params in [
            ("knn", {"k": k}),
            ("jaccard", {"k": k}),
            ("range", {"radius": d // 2}),
        ]:
            for lo, hi in windows:
                results = {
                    kind: WorkloadSearch(
                        ds.slice_rows(lo, hi), wl, params,
                        board_capacity=max(8, n // 3),
                    ).search(queries)
                    for kind, ds in stores.items()
                }
                for kind, res in results.items():
                    _assert_same_run(
                        results["array"], res, kind, f"{wl}/{kind}/[{lo},{hi})"
                    )

    def test_simulate_over_a_packed_store_unpacks_and_shares_the_cache(
        self, tmp_path
    ):
        """``execution="simulate"`` compiles real board images from
        rows a packed store unpacks on demand; the images are keyed by
        content digest, so they are shared with an array engine."""
        data, queries = _make(5, 40, 8, 2)
        cache = BoardImageCache()
        ref = APSimilaritySearch(
            data, k=3, board_capacity=16, execution="simulate", cache=cache
        ).search(queries)
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)
        for kind, ds in _stores(data, tmp_path).items():
            hits = cache.stats.hits
            res = APSimilaritySearch(
                ds, k=3, board_capacity=16, execution="simulate", cache=cache
            ).search(queries)
            assert res.execution == "simulate"
            _assert_same_result(ref.value, res.value, kind)
            assert counters_but_cache_hits(res.counters) == (
                counters_but_cache_hits(ref.counters)
            )
            # all three images came out of the array engine's cache
            assert res.counters.image_cache_hits == 3, kind
            assert (cache.stats.hits, cache.stats.misses) == (hits + 3, 3)


# -- backend sweep over the mmap store ---------------------------------------


BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("thread", id="thread"),
    pytest.param("process", id="process"),
    pytest.param("pinned", id="pinned", marks=needs_shm),
]


class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knn_engine_mmap_matches_array(self, tmp_path, backend):
        data, queries = _make(11, 150, 16, 5)
        path = tmp_path / "b.pds"
        write_pds(path, data)
        ref = APSimilaritySearch(data, k=4, board_capacity=32).search(queries)
        parallel = (
            None if backend == "serial"
            else ParallelConfig(n_workers=2, backend=backend)
        )
        try:
            res = APSimilaritySearch(
                str(path), k=4, board_capacity=32, parallel=parallel
            ).search(queries)
        finally:
            if parallel is not None:
                parallel.close()
        _assert_same_run(ref, res, "mmap", backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("wl,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_workloads_every_store_matches_array(
        self, tmp_path, backend, wl, params
    ):
        data, queries = _make(13, 120, 70, 4)  # two words a row, one padded
        ref = WorkloadSearch(data, wl, params, board_capacity=32).search(
            queries
        )
        for kind, dataset in _stores(data, tmp_path).items():
            parallel = (
                None if backend == "serial"
                else ParallelConfig(n_workers=2, backend=backend)
            )
            try:
                res = WorkloadSearch(
                    dataset, wl, params, board_capacity=32, parallel=parallel
                ).search(queries)
            finally:
                if parallel is not None:
                    parallel.close()
            _assert_same_run(ref, res, kind, f"{wl}/{kind}/{backend}")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("wl,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_fused_passes_match_one_board_per_pass_on_every_store(
        self, tmp_path, backend, wl, params, unfused
    ):
        """Runs of boards executed as one host pass — over every store,
        on every backend — answer, count and cache (cold, then warm)
        exactly as a serial engine running one board per pass."""
        data, queries = _make(53, 150, 16, 5)  # 10 boards, the last short
        with unfused():
            ref = run_snapshot(
                WorkloadSearch(data, wl, params, board_capacity=16, cache=True),
                queries,
            )
        assert ref[1]["counters"]["image_cache_hits"] == 10
        for kind, dataset in _stores(data, tmp_path).items():
            parallel = (
                None if backend == "serial"
                else ParallelConfig(n_workers=2, backend=backend, persistent=True)
            )
            try:
                engine = WorkloadSearch(
                    dataset, wl, params, board_capacity=16, cache=True,
                    parallel=parallel,
                )
                tasks = engine._partition_tasks(
                    engine.params, engine._boards_per_pass(engine.params, 5)
                )
                assert [len(t.boards) for t in tasks] == (
                    [10] if backend == "serial" else [5, 5]
                )
                got = run_snapshot(engine, queries)
            finally:
                if parallel is not None:
                    parallel.close()
            if kind in PACKED:
                # View passes: no board is compiled, looked up or held —
                # each search counts all ten as served, in the counters
                # and (one bump per search) in the engine's cache.
                assert got[2] == {"cache": (20, 0, 0, 0)}
                got[2] = ref[2]
                for search, ref_search in zip(got[:2], ref):
                    assert search["counters"]["image_cache_hits"] == 10
                    search["counters"]["image_cache_hits"] = (
                        ref_search["counters"]["image_cache_hits"]
                    )
            assert_snapshots_equal(got, ref, f"{wl}/{kind}/{backend}")

    @pytest.mark.parametrize("wl,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_functional_pass_over_packed_words_is_a_view(
        self, tmp_path, monkeypatch, wl, params
    ):
        """A functional search over a version-2 store packs no dataset
        row, hashes no partition and never asks the cache for a board:
        the stored words are the artifact."""
        import repro.core.functional as functional_mod
        import repro.core.workload as workload_mod

        data, queries = _make(59, 150, 16, 5)
        path = tmp_path / "view.pds"
        write_pds(path, data)
        expected = WorkloadSearch(data, wl, params, board_capacity=16).search(
            queries
        )
        packed_rows, cache_calls, digests = [], [], []
        for module in (workload_mod, functional_mod, dataset_mod):
            def pack_spy(bits, _real=module.pack_bits):
                packed_rows.append(np.shape(bits)[0])
                return _real(bits)

            monkeypatch.setattr(module, "pack_bits", pack_spy)
        for name in ("get", "put"):
            monkeypatch.setattr(
                BoardImageCache, name,
                lambda self, *a, _name=name: cache_calls.append(_name),
            )
        monkeypatch.setattr(
            PackedDataset, "partition_digest",
            lambda self, lo, hi: digests.append((lo, hi)) or "0" * 40,
        )
        engine = WorkloadSearch(
            str(path), wl, params, board_capacity=16, cache=True
        )
        for _ in range(2):
            _assert_same_run(expected, engine.search(queries), "mmap", wl)
        assert set(packed_rows) <= {5}  # the query batch, nothing else
        assert cache_calls == [] and digests == []
        assert engine.cache.stats.hits == 20 and len(engine.cache) == 0

    def test_process_workers_ship_zero_dataset_bytes(self, tmp_path):
        # The acceptance criterion's accounting check: an mmap-backed
        # run's measured IPC payload must not scale with the dataset —
        # workers attach the store by path.
        data, queries = _make(17, 1600, 32, 3)
        path = tmp_path / "ipc.pds"
        write_pds(path, data)
        with ParallelConfig(
            n_workers=2, backend="process", measure_ipc=True
        ) as pc:
            mm = APSimilaritySearch(
                str(path), k=3, board_capacity=64, parallel=pc,
                execution="functional",
            ).search(queries)
        with ParallelConfig(
            n_workers=2, backend="process", measure_ipc=True
        ) as pc:
            arr = APSimilaritySearch(
                data, k=3, board_capacity=64, parallel=pc,
                execution="functional",
            ).search(queries)
        assert np.array_equal(mm.indices, arr.indices)
        assert mm.ipc_payload_bytes is not None
        # array tasks carry the full slices; mmap tasks only
        # descriptors — switching stores removes (at least ~90% of)
        # the dataset's bytes from the wire
        assert arr.ipc_payload_bytes > data.nbytes
        saved = arr.ipc_payload_bytes - mm.ipc_payload_bytes
        assert saved >= 0.9 * data.nbytes


# -- higher layers -----------------------------------------------------------


class TestMultiBoardAndServer:
    def test_multiboard_over_mmap(self, tmp_path):
        data, queries = _make(19, 300, 16, 4)
        path = tmp_path / "mb.pds"
        write_pds(path, data)
        ref = MultiBoardSearch(
            data, k=5, n_devices=3, board_capacity=40
        ).search(queries)
        res = MultiBoardSearch(
            str(path), k=5, n_devices=3, board_capacity=40
        ).search(queries)
        assert np.array_equal(res.indices, ref.indices)
        assert np.array_equal(res.distances, ref.distances)

    def test_shard_server_pds_parity_all_workloads(self, tmp_path):
        from repro.host.rpc import RemoteShard, ShardServer

        data, queries = _make(23, 260, 16, 4)
        path = tmp_path / "srv.pds"
        write_pds(path, data)
        mem = ShardServer(data, board_capacity=64)
        disk = ShardServer(str(path), board_capacity=64)
        mem.start()
        disk.start()
        try:
            c_mem = RemoteShard("%s:%d" % mem.address)
            c_disk = RemoteShard("%s:%d" % disk.address)
            mi, md, _, _ = c_mem.search(queries, k=5)
            di, dd, _, _ = c_disk.search(queries, k=5)
            assert np.array_equal(mi, di)
            assert np.array_equal(md, dd)
            for wl, params in WORKLOADS:
                vm, _, _ = c_mem.search_workload(queries, wl, params)
                vd, _, _ = c_disk.search_workload(queries, wl, params)
                _assert_same_result(vm, vd, f"server/{wl}")
            c_mem.close()
            c_disk.close()
        finally:
            mem.close()
            disk.close()

    def test_serve_shard_bounds_from_handle(self, tmp_path):
        from repro.host.rpc import serve_shard

        data, _ = _make(29, 101, 8, 1)
        path = tmp_path / "sh.pds"
        write_pds(path, data)
        servers = [
            serve_shard(str(path), i, 3, board_capacity=32) for i in range(3)
        ]
        try:
            offsets = sorted(s.offset for s in servers)
            sizes = sorted(s.n for s in servers)
            assert sum(s.n for s in servers) == 101
            assert offsets == [0, 34, 68]
            assert sizes == [33, 34, 34]
        finally:
            for s in servers:
                s.close()


# -- fail-fast construction --------------------------------------------------


class TestFailFast:
    def test_server_rejects_corrupt_pds_before_bind(self, tmp_path):
        from repro.core.dataset import DatasetFormatError
        from repro.host.rpc import ShardServer

        data, _ = _make(31, 64, 8, 1)
        path = tmp_path / "bad.pds"
        write_pds(path, data)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError):
            ShardServer(str(path))

    def test_server_rejects_impossible_n_devices(self):
        from repro.host.rpc import ShardServer

        data, _ = _make(37, 16, 8, 1)
        with pytest.raises(ValueError, match="n_devices"):
            ShardServer(data, n_devices=100)

    def test_truncated_pds_fails_at_engine_construction(self, tmp_path):
        from repro.core.dataset import DatasetFormatError

        data, _ = _make(41, 64, 8, 1)
        path = tmp_path / "t.pds"
        write_pds(path, data)
        path.write_bytes(path.read_bytes()[:-64])
        with pytest.raises(DatasetFormatError, match="truncated"):
            APSimilaritySearch(str(path), k=2)


# -- leak guard across a full parallel run -----------------------------------


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc fd introspection")
def test_no_fd_leak_across_mmap_parallel_runs(tmp_path):
    data, queries = _make(43, 200, 16, 3)
    path = tmp_path / "fd.pds"
    write_pds(path, data)

    def pds_fds():
        # Count only fds referencing our file: the total fd count is
        # noisy (unrelated pools / sockets close in the background).
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                count += "fd.pds" in os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                pass
        return count

    # Prime: first open enters the process attach cache.
    APSimilaritySearch(str(path), k=3, board_capacity=64).search(queries)
    before = pds_fds()
    for _ in range(5):
        APSimilaritySearch(str(path), k=3, board_capacity=64).search(queries)
    assert pds_fds() == before
    assert before <= 1  # the attach cache holds at most one


# -- out-of-core budget -------------------------------------------------------

_RSS_PROBE = r"""
import sys
import numpy as np
from repro.core.engine import APSimilaritySearch


def peak_rss_bytes():
    # VmHWM is per address space, so it starts fresh after exec;
    # ru_maxrss is inherited from the (large) pytest parent and would
    # never move.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


path, d, cap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
queries = (np.random.default_rng(7).random((4, d)) < 0.5).astype(np.uint8)
# Baseline AFTER imports and query setup: everything from here on is
# the engine's footprint over the file-backed shard.
before = peak_rss_bytes()
engine = APSimilaritySearch(
    path, k=8, board_capacity=cap, execution="functional", cache=True
)
cold = engine.search(queries)   # verifies every chunk, executes
warm = engine.search(queries)   # executes
assert (cold.indices == warm.indices).all()
print(peak_rss_bytes() - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc/self/status VmHWM")
def test_mmap_serving_stays_out_of_core(tmp_path):
    """A fresh process that attaches a ``.pds``, verifies and searches
    all of it grows its peak RSS by < 25% of the *stored* payload: the
    shard is paged through — chunk by chunk to verify, pass by pass to
    search — never loaded."""
    d, cap = 128, 1 << 10
    data = np.random.default_rng(47).integers(0, 2, (1 << 20, d), dtype=np.uint8)
    path = tmp_path / "rss.pds"
    payload = write_pds(path, data).payload_nbytes
    assert payload == 16 << 20  # 25% of it is 4 MiB: ~64 passes' worth
    del data
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(path), str(d), str(cap)],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
    )
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout)
    assert growth < 0.25 * payload, (
        f"peak RSS grew {growth / (1 << 20):.1f} MiB serving a "
        f"{payload / (1 << 20):.0f} MiB .pds shard"
    )

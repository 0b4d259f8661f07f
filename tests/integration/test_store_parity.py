"""Store properties beyond parity: what a store does with its bytes.

Answers over every store (array / mmap / shm) are the bit-identity
oracle's (``tests/integration/test_bit_identity.py``).  These tests
hold what parity cannot see: a packed store's pass is a view that
packs, hashes and caches nothing, the cycle-accurate oracle reads any
store's rows, mmap workers ship
descriptors instead of rows, and a ``.pds`` shard is paged through,
never loaded — plus fail-fast construction for bad inputs.
"""

import dataclasses
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from repro.ap.compiler import BoardImageCache
from repro.core import dataset as dataset_mod
from repro.core.dataset import PackedDataset, write_pds
from repro.core.engine import APSimilaritySearch, simulate_knn
from repro.core.workload import WorkloadSearch
from repro.host.parallel import ParallelConfig
from repro.host.shm import shm_available
from tests.conftest import submitted_bytes

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


def _stores(data, tmp_path):
    """The same rows behind every available store: the in-memory array,
    a ``.pds`` file, and ``shm``, the packed twin an out-of-process
    engine promotes an in-memory handle to."""
    path = tmp_path / "parity.pds"
    write_pds(path, data, chunk_rows=max(1, len(data) // 3))
    stores = {
        "array": PackedDataset.ensure(data),
        "mmap": PackedDataset.open(path),
    }
    if shm_available():
        with mock.patch.object(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1):
            stores["shm"] = PackedDataset.ensure(data).attachable()
        assert stores["shm"].kind == "shm"
    return stores


def _assert_same_result(a, b, label):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (
            f"{label}: {f.name} differs"
        )


# -- caches and views ----------------------------------------------------------


class TestCachesAndViews:
    def test_simulate_over_a_packed_store_unpacks_and_answers_as_the_array(
        self, tmp_path
    ):
        """``simulate_knn`` builds its board networks from rows a packed
        store unpacks on demand: answers and counters are the array's."""
        data, queries = _make(5, 40, 8, 2)
        ref = simulate_knn(data, queries, 3, board_capacity=16)
        for kind, ds in _stores(data, tmp_path).items():
            indices, distances, counters = simulate_knn(
                ds, queries, 3, board_capacity=16
            )
            assert np.array_equal(indices, ref[0]), kind
            assert np.array_equal(distances, ref[1]), kind
            assert counters == ref[2], kind

    @pytest.mark.parametrize("wl,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_functional_pass_over_packed_words_is_a_view(
        self, tmp_path, monkeypatch, wl, params
    ):
        """A functional search over a ``.pds`` store packs no dataset
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
            _assert_same_result(expected.value, engine.search(queries).value, wl)
        assert set(packed_rows) <= {5}  # the query batch, nothing else
        assert cache_calls == [] and digests == []
        assert engine.cache.stats.hits == 20 and len(engine.cache) == 0

    def test_process_workers_ship_zero_dataset_bytes(self, tmp_path):
        # The acceptance criterion's accounting check: what an
        # mmap-backed search submits must not scale with the dataset —
        # workers attach the store by path.
        data, queries = _make(17, 1600, 32, 3)
        path = tmp_path / "ipc.pds"
        write_pds(path, data)
        with ParallelConfig(n_workers=2, backend="process") as pc:
            mm_engine = APSimilaritySearch(
                str(path), k=3, board_capacity=64, parallel=pc,
            )
            mm = mm_engine.search(queries)
            mm_bytes = submitted_bytes(mm_engine, queries)
        with ParallelConfig(n_workers=2, backend="process") as pc:
            arr_engine = APSimilaritySearch(
                data, k=3, board_capacity=64, parallel=pc,
            )
            arr = arr_engine.search(queries)
            arr_bytes = submitted_bytes(arr_engine, queries)
        assert np.array_equal(mm.indices, arr.indices)
        assert mm.transport == arr.transport == "pickle"
        # array tasks carry the full slices; mmap tasks only
        # descriptors — switching stores removes (at least ~90% of)
        # the dataset's bytes from the wire
        assert arr_bytes > data.nbytes
        saved = arr_bytes - mm_bytes
        assert saved >= 0.9 * data.nbytes


class TestServeShard:
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
    path, k=8, board_capacity=cap, cache=True
)
cold = engine.search(queries)   # verifies every chunk, executes
warm = engine.search(queries)   # executes
# One row: the row budget, not the pair budget, sizes its passes.
single = engine.search(queries[:1])
assert (cold.indices == warm.indices).all()
assert (single.indices == warm.indices[:1]).all()
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

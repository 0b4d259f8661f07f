"""Shared fixtures for the test suite."""

import contextlib
import dataclasses
import struct

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection tests (run in their own CI lane with "
        "client retries disabled; select with `-m chaos`)",
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Surface shared-memory skips in the run summary.

    ``tests/host/test_shm.py`` (and the RPC shm-leak tests) skip
    gracefully when ``multiprocessing.shared_memory`` is unusable; that
    is correct behavior, but a CI lane quietly running *zero* shm tests
    looks identical to one running all of them.  Print an explicit
    count either way so coverage loss is visible in the log."""
    skipped = terminalreporter.stats.get("skipped", [])
    shm_skips = [
        r for r in skipped
        if "shared_memory" in str(getattr(r, "longrepr", ""))
    ]
    ran = [
        r
        for category in ("passed", "failed", "error")
        for r in terminalreporter.stats.get(category, [])
        if "shm" in getattr(r, "nodeid", "")
    ]
    if shm_skips:
        terminalreporter.write_line(
            f"[shm] {len(shm_skips)} shared-memory test(s) SKIPPED on this "
            "platform — shared-memory dataset paths were NOT exercised",
            yellow=True,
        )
    elif ran:
        terminalreporter.write_line(
            f"[shm] {len(ran)} shared-memory test(s) ran (no shm skips)"
        )
    # neither: no shm tests were selected in this run — stay quiet
    # rather than claiming coverage that did not happen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset(rng):
    """A small binary dataset suitable for cycle-accurate simulation."""
    return rng.integers(0, 2, size=(24, 16), dtype=np.uint8)


@pytest.fixture
def small_queries(rng):
    return rng.integers(0, 2, size=(6, 16), dtype=np.uint8)


@pytest.fixture(
    params=[
        (0.5, np.float64), (257, np.float64), (-255, np.float64),
        (np.nan, np.float64), (257, np.int64), (-255, np.int64),
    ],
    ids=["0.5-f8", "257-f8", "-255-f8", "nan-f8", "257-i8", "-255-i8"],
)
def non_binary(request):
    """``non_binary(bits)``: a wide-dtype copy of a 0/1 array with one
    element that is not a bit but that a cast to uint8 would turn into
    one (0.5 -> 0, 257 -> 1, -255 -> 1, nan -> 0).  Every entry point
    must reject it: validation runs on the array as given."""
    value, dtype = request.param

    def poison(bits):
        out = np.array(bits, dtype=dtype)
        out.flat[0] = value
        return out

    return poison


def brute_force_knn(data, queries, k):
    """Independent oracle: O(qnd) scan with (distance, index) tie-break."""
    data = np.asarray(data, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    n_q = queries.shape[0]
    indices = np.empty((n_q, k), dtype=np.int64)
    distances = np.empty((n_q, k), dtype=np.int64)
    for qi in range(n_q):
        dist = np.abs(data - queries[qi]).sum(axis=1)
        order = np.lexsort((np.arange(data.shape[0]), dist))[:k]
        indices[qi] = order
        distances[qi] = dist[order]
    return indices, distances


@pytest.fixture
def oracle():
    return brute_force_knn


@pytest.fixture
def unfused():
    """``with unfused(): ...`` — inside it no workload fuses boards, so
    the worker body runs one ``execute`` per board: the
    one-board-per-pass reference every fused run must equal."""
    from repro.core.workload import Workload, available_workloads

    @contextlib.contextmanager
    def per_board():
        with pytest.MonkeyPatch.context() as patch:
            for workload in available_workloads().values():
                patch.setattr(type(workload), "fuse", Workload.fuse)
            yield

    return per_board


def write_pds_v1(path, data):
    """A version-1 ``.pds`` (layout 1: one byte per bit at offset 4096,
    88-byte header, no chunk table), as the previous release wrote it —
    the library only reads this version now, so the writer lives here."""
    from repro.ap.compiler import dataset_digest

    data = np.ascontiguousarray(data, dtype=np.uint8)
    n, d = data.shape
    header = struct.pack(
        "<8sHHBB2xQQQQ40s", b"REPROPDS", 1, 88, 1, 1, n, d, 4096, n * d,
        dataset_digest(data).encode("ascii"),
    )
    with open(path, "wb") as f:
        f.write(header.ljust(4096, b"\x00"))
        f.write(data.tobytes())
    return str(path)


def counters_but_cache_hits(counters):
    """Every ``RuntimeCounters`` field a store may not change:
    ``image_cache_hits`` counts boards served without a compile, which
    a packed store's view passes all are (README "Board-image cache
    hygiene")."""
    return dataclasses.replace(counters, image_cache_hits=0)


def run_snapshot(engine, queries, searches=2):
    """Everything a search exposes that must not depend on how boards
    are grouped into host passes: per search the value arrays, every
    counter field and the partition counts; then the cache's stats and
    size."""
    out = []
    for _ in range(searches):
        res = engine.search(queries)
        out.append({
            "value": {
                f.name: np.array(getattr(res.value, f.name))
                for f in dataclasses.fields(res.value)
            },
            "counters": dataclasses.asdict(res.counters),
            "partitions": (res.n_partitions, res.per_device_partitions),
            "execution": res.execution,
        })
    if engine.cache is not None:
        stats = engine.cache.stats
        out.append({
            "cache": (stats.hits, stats.misses, stats.evictions,
                      len(engine.cache)),
        })
    return out


def assert_snapshots_equal(got, ref, label=""):
    assert len(got) == len(ref), label
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g.keys() == r.keys(), (label, i)
        for key in g:
            if key == "value":
                assert g[key].keys() == r[key].keys(), (label, i)
                for name in g[key]:
                    assert np.array_equal(g[key][name], r[key][name]), (
                        label, i, name,
                    )
            else:
                assert g[key] == r[key], (label, i, key, g[key], r[key])

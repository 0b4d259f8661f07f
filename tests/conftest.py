"""Shared fixtures for the test suite."""

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

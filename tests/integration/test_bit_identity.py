"""Every execution path answers, counts and caches bit for bit as the
serial in-memory reference does (``tests/oracle.py`` states the
property, its axes, its prunes and its named deltas).

Each cell of workload × store × backend × topology × cache is its own
case, run on the oracle's fixed shapes — a tie split across boards, ``k``
beyond ``n``, and 157 rows of 130 bits over 4 devices or shards — so
each (shape, store) pays one rack.  Then one cell per axis value runs
generated shapes, seeded (``derandomize=True``) so a failure
reproduces, plus one shape for each width the fixed shapes leave out.
Last, the cycle-accurate oracle (``simulate_workload``) equals the
engine on shapes small enough to simulate, for every workload that
declares the simulator hooks: all three built-ins.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings

from repro.core.engine import simulate_workload
from repro.core.workload import WorkloadSearch
from tests import oracle
from tests.oracle import (
    EXAMPLES,
    SIM_EXAMPLES,
    TIED,
    WIDTH_EXAMPLES,
    Cell,
    check,
)

CELLS = oracle.cells()

NEEDS_FORK = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="process workers see a test-time registration only by fork",
)


def _cells():
    """One case per cell, under its readable id.  The toy workload is
    registered in this process only, so its process cells need fork."""
    def marks(c):
        return NEEDS_FORK if (c.workload, c.backend) == ("toy", "process") else ()

    return [pytest.param(c, id=c.id, marks=marks(c)) for c in CELLS]


EXPLICIT = settings(database=None, deadline=None, phases=[Phase.explicit])
GENERATED = settings(
    derandomize=True, database=None, deadline=None, max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)


def _examples(shapes):
    def add(test):
        for shape in shapes:
            test = example(shape=shape)(test)
        return test
    return add


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    env = oracle.Env(tmp_path_factory.mktemp("oracle"))
    try:
        yield env
    finally:
        env.close()


@pytest.mark.parametrize("cell", _cells())
@EXPLICIT
@_examples(EXAMPLES)
@given(shape=oracle.shapes())
def test_cell(env, cell, shape):
    check(cell, shape, env)


# -- generated shapes, one cell per axis value --------------------------------

SWEPT = (
    Cell("knn", "mmap", "process", "multi", "cold"),
    Cell("knn", "array", "thread", "multi", "none"),
    Cell("jaccard", "shm", "process", "batched", "warm"),
    Cell("range", "array", "thread", "local", "none"),
    Cell("toy", "shm", "serial", "batched", "cold"),
    Cell("knn", "mmap", "serial", "remote", "warm"),
    Cell("range", "array", "serial", "replicated", "none"),
)


@pytest.mark.parametrize("cell", [pytest.param(c, id=c.id) for c in SWEPT])
@GENERATED
@_examples(WIDTH_EXAMPLES)
@given(shape=oracle.shapes())
def test_generated_shapes(env, cell, shape):
    try:
        check(cell, shape, env)
    finally:
        env.release(shape)


def test_every_axis_value_runs_in_the_matrix_and_the_sweep():
    axes = (oracle.WORKLOADS, oracle.STORES, oracle.BACKENDS, oracle.TOPOLOGIES,
            oracle.CACHES)
    assert all(c in CELLS for c in SWEPT)
    for field, values in zip(dataclasses.fields(Cell), axes):
        for chosen in (CELLS, SWEPT):
            assert {getattr(c, field.name) for c in chosen} == set(values), field.name


# -- the cycle-accurate oracle ------------------------------------------------


def test_every_built_in_declares_the_simulator_hooks():
    assert oracle.SIMULATED == ("knn", "jaccard", "range")


@pytest.mark.parametrize("workload", oracle.SIMULATED)
@GENERATED
@_examples(SIM_EXAMPLES)
@given(shape=oracle.tiny_shapes)
def test_generated_simulated_shapes(workload, shape):
    """The simulator's answer is the engine's, bit for bit: every value
    array (tie-breaks included) and every ``RuntimeCounters`` field, and
    both are the brute-force scan's.  Every cell above equals this
    engine, so every cell equals the simulator."""
    spec = oracle.WORKLOADS[workload]
    rows, queries = shape.arrays()
    rows = rows[slice(*shape.window)]
    params = spec.params(shape)
    value, counters = simulate_workload(
        spec.name, rows, queries, params, board_capacity=shape.cap
    )
    result = WorkloadSearch(rows, spec.name, params, board_capacity=shape.cap).search(
        queries
    )
    truth = spec.truth(rows, queries, shape)
    for answer in (value, result.value):
        for name, want in truth.items():
            got = getattr(answer, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert counters == result.counters


# -- the oracle catches what it exists to catch -------------------------------


class TestOracleCatchesDefects:
    """One backend × store cell is broken on purpose; the oracle must
    fail it and pass its in-memory twin."""

    BROKEN = Cell("knn", "mmap", "thread", "local", "none")
    TWIN = Cell("knn", "array", "thread", "local", "none")

    def _break(self, monkeypatch, defect):
        real = WorkloadSearch.search
        broken = []

        def search(engine, queries):
            result = real(engine, queries)
            if (engine.parallel.backend, engine.dataset.kind) == ("thread", "mmap"):
                broken.append(defect(result))
            return result

        monkeypatch.setattr(WorkloadSearch, "search", search)
        return broken

    def _assert_caught(self, env, broken):
        check(self.TWIN, TIED, env)
        with pytest.raises(AssertionError):
            check(self.BROKEN, TIED, env)
        assert broken and all(broken), "the defect was never injected"

    def test_a_flipped_tie_is_caught(self, env, monkeypatch):
        def swap_tied_neighbours(result):
            idx, dist = result.value.indices, result.value.distances
            for row in range(idx.shape[0]):
                tied = np.flatnonzero(dist[row, 1:] == dist[row, :-1])
                if tied.size:
                    j = tied[0]
                    idx[row, [j, j + 1]] = idx[row, [j + 1, j]]
                    return True
            return False

        self._assert_caught(env, self._break(monkeypatch, swap_tied_neighbours))

    def test_a_dropped_counter_field_is_caught(self, env, monkeypatch):
        def drop_payload_bits(result):
            result.counters = dataclasses.replace(
                result.counters, report_payload_bits=0
            )
            return True

        self._assert_caught(env, self._break(monkeypatch, drop_payload_bits))

"""A serving process loads only what it serves.

Each gate runs in a fresh interpreter (``sys.modules`` and ``VmHWM`` of
the pytest process say nothing about a server's): the serving path —
a ``WorkloadSearch``, a ``ShardServer`` answering over loopback, or a
process worker running an unpickled engine-built task — must finish
with exactly the served ``repro`` modules loaded, without ``scipy`` or
``networkx``, and within a stated memory budget over the interpreter +
NumPy floor, while the cycle-accurate oracle (``simulate_workload``,
for kNN, Jaccard and range alike) imports ``scipy.sparse`` exactly when
it builds its first simulator.
"""

import functools
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

_PROBE = r"""
import json
import pickle
import sys

import numpy as np


def peak_rss_mb():
    # VmHWM starts fresh after exec; ru_maxrss would be inherited from
    # the (large) pytest parent.  None where /proc is not Linux's.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def heavy():
    return sorted(
        {m.split(".")[0] for m in sys.modules} & {"scipy", "networkx"}
    )


mode = sys.argv[1]
rng = np.random.default_rng(5)
data = rng.integers(0, 2, (512, 64), dtype=np.uint8)
queries = rng.integers(0, 2, (4, 64), dtype=np.uint8)
payload = sys.stdin.buffer.read()
floor = peak_rss_mb()
out = {}

if mode == "worker":
    # What a process worker does with its submission.
    from repro.host.parallel import execute_partition

    tasks, queries_bits = pickle.loads(payload)
    results = [execute_partition(t, queries_bits) for t in tasks]
    value = [r.payload.indices.tolist() for r in results]
elif mode == "engine":
    from repro.core.workload import WorkloadSearch

    value = WorkloadSearch(data, "knn", {"k": 3}, board_capacity=64).search(
        queries
    ).value
elif mode == "server":
    from repro.host.rpc import RemoteShard, serve_shard

    # ``repro serve`` builds its ShardServer this way.
    server = serve_shard(data, 0, 1, board_capacity=64)
    server.start()
    try:
        with RemoteShard("{}:{}".format(*server.address)) as shard:
            value, _, execution = shard.search_workload(
                queries, "knn", {"k": 3}
            )
    finally:
        server.close()
    assert execution == "functional", execution
else:
    from repro import APSimilaritySearch

    value = APSimilaritySearch(data[:64], k=3, board_capacity=64).search(queries)

out["heavy_after_functional"] = heavy()
out["repro_modules"] = sorted(
    m for m in sys.modules if m == "repro" or m.startswith("repro.")
)
peak = peak_rss_mb()
out["growth_mb"] = None if floor is None else peak - floor

if mode == "simulate":
    from repro.core.engine import simulate_knn, simulate_workload
    from repro.core.workload import WorkloadSearch

    indices, distances, _ = simulate_knn(data[:64], queries, 3, board_capacity=64)
    out["scipy_sparse_loaded"] = "scipy.sparse" in sys.modules
    same = (indices == value.indices).all() and (distances == value.distances).all()
    for name, params in (("jaccard", {"k": 3}), ("range", {"radius": 28})):
        simulated, _ = simulate_workload(name, data[:64], queries, params)
        served = WorkloadSearch(data[:64], name, params).search(queries).value
        same &= all(np.array_equal(getattr(simulated, f), served_field)
                    for f, served_field in vars(served).items())
    out["same_answers"] = bool(same)
    out["heavy_after_simulate"] = heavy()

out["indices"] = value if mode == "worker" else np.asarray(value.indices).tolist()
print(json.dumps(out))
"""

# Every served process loads these ``repro`` modules and no others (a
# server adds ``repro.host.rpc``).  The package ``__init__``s export
# nothing, so a module joins this set only when a served path imports
# it.
SERVED = frozenset({
    "repro",
    "repro.ap", "repro.ap.compiler", "repro.ap.device", "repro.ap.runtime",
    "repro.automata", "repro.automata.elements", "repro.automata.network",
    "repro.automata.symbols",
    "repro.core", "repro.core.dataset", "repro.core.engine",
    "repro.core.functional", "repro.core.macros", "repro.core.stream",
    "repro.core.workload",
    "repro.host", "repro.host.batching", "repro.host.parallel", "repro.host.shm",
    "repro.perf", "repro.perf.metrics", "repro.perf.models",
    "repro.util", "repro.util.bitops", "repro.util.topk",
    "repro.workloads", "repro.workloads.generators", "repro.workloads.params",
})
# No request reaches these: the regex stack, the chaos proxy, the
# Section VI/VII designs, the energy models and the leaf packages.
UNSERVED = (
    "repro.automata.anml", "repro.automata.pcre", "repro.automata.regex",
    "repro.automata.optimize", "repro.host.faults", "repro.ap.extensions",
    "repro.core.index_automata", "repro.core.jaccard", "repro.core.multiboard",
    "repro.core.multiplexing", "repro.core.reduction", "repro.core.packing",
    "repro.perf.energy", "repro.perf.roofline", "repro.index", "repro.baselines",
)

# Peak-RSS growth over the interpreter + NumPy floor (33.4 MB here),
# cores = 2, no bytecode: 6.9 (engine) / 7.7-8.0 (server) / 7.0 MB
# (worker) with the served set alone, 8.4 / 8.8 / 8.5 MB when the
# package ``__init__``s exported eagerly.  Importing scipy and networkx
# on this path once grew it by 43 MB.
_GROWTH_BUDGET_MB = 24.0


def _worker_payload() -> bytes:
    """What ``run_partitions`` submits to a process worker: the engine's
    own tasks for the probe's search, and the query rows."""
    from repro.core.workload import WorkloadSearch
    from repro.host.parallel import ParallelConfig

    rng = np.random.default_rng(5)
    data = rng.integers(0, 2, (512, 64), dtype=np.uint8)
    queries = rng.integers(0, 2, (4, 64), dtype=np.uint8)
    engine = WorkloadSearch(
        data, "knn", {"k": 3}, board_capacity=64,
        parallel=ParallelConfig(n_workers=2, backend="process"),
    )
    tasks = engine._partition_tasks(engine._boards_per_pass(len(queries)))
    assert len(tasks) == 2
    return pickle.dumps((tasks, queries))


@functools.cache
def _probe(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, mode],
        input=_worker_payload() if mode == "worker" else b"",
        capture_output=True, env=env, cwd=os.getcwd(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("mode", ["engine", "server", "worker"])
def test_functional_serving_imports_no_scipy_or_networkx(mode):
    out = _probe(mode)
    assert out["heavy_after_functional"] == []
    if mode == "worker":
        from repro.host.parallel import execute_partition

        tasks, queries = pickle.loads(_worker_payload())
        assert out["indices"] == [
            execute_partition(t, queries).payload.indices.tolist() for t in tasks
        ]
    else:
        assert len(out["indices"]) == 4 and len(out["indices"][0]) == 3
    if out["growth_mb"] is None:
        pytest.skip("no /proc/self/status VmHWM: RSS half not checked")
    assert out["growth_mb"] < _GROWTH_BUDGET_MB, (
        f"{mode}: peak RSS grew {out['growth_mb']:.1f} MB over the "
        f"interpreter + NumPy floor (budget {_GROWTH_BUDGET_MB} MB)"
    )


def test_simulate_imports_scipy_lazily_and_agrees_with_functional():
    pytest.importorskip("scipy.sparse")
    out = _probe("simulate")
    assert out["heavy_after_functional"] == []
    assert out["scipy_sparse_loaded"]
    assert out["heavy_after_simulate"] == ["scipy"]
    assert out["same_answers"]


@pytest.mark.parametrize("mode", ["engine", "server", "worker"])
def test_served_process_loads_only_the_served_modules(mode):
    loaded = set(_probe(mode)["repro_modules"])
    assert not loaded & set(UNSERVED), sorted(loaded & set(UNSERVED))
    assert loaded == SERVED | ({"repro.host.rpc"} if mode == "server" else set())

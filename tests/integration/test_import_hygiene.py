"""A serving process loads only what it serves.

Each gate runs in a fresh interpreter (``sys.modules`` and ``VmHWM`` of
the pytest process say nothing about a server's): the serving path —
library engine or a ``ShardServer`` answering over loopback — must
finish without ``scipy`` or ``networkx`` imported and within a stated
memory budget over the interpreter + NumPy floor, while the
cycle-accurate oracle (``simulate_workload``, for kNN, Jaccard and
range alike) imports ``scipy.sparse`` exactly when it builds its first
simulator.
"""

import json
import os
import subprocess
import sys

import pytest

_PROBE = r"""
import json
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
floor = peak_rss_mb()
out = {}

if mode == "server":
    from repro.host.rpc import RemoteShard, ShardServer

    server = ShardServer(data, board_capacity=64)
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

    value = APSimilaritySearch(
        data[:64] if mode == "simulate" else data,
        k=3, board_capacity=64,
    ).search(queries)

out["heavy_after_functional"] = heavy()
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

out["indices"] = np.asarray(value.indices).tolist()
print(json.dumps(out))
"""

# Peak-RSS growth over the interpreter + NumPy floor (24.6 MB here, so
# ~48 MB absolute).  Measured 17.3 MB (engine) / 17.5 MB (server) with
# cores = 2; the parent commit, which imported scipy and networkx on
# this path, grew 43 MB.
_GROWTH_BUDGET_MB = 24.0


def _probe(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, mode],
        capture_output=True, text=True, env=env, cwd=os.getcwd(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("mode", ["engine", "server"])
def test_functional_serving_imports_no_scipy_or_networkx(mode):
    out = _probe(mode)
    assert out["heavy_after_functional"] == []
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

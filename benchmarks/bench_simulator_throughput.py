"""Ablation: cycle-accurate simulator throughput vs the functional model.

Not a paper table — this quantifies the reproduction's own engineering
trade-off (DESIGN.md): the vectorized sparse-matrix simulator pays
O(states) per cycle while the functional model pays O(n d / 64) per
query batch, which is why the engine runs the functional model and the
simulator is the oracle that checks it (``simulate_knn``).
Also measures simulator scaling in board size (states x cycles / s).
"""

import numpy as np
import pytest

from repro.automata.simulator import CompiledSimulator
from repro.core.functional import FunctionalKnnBoard
from repro.core.macros import build_knn_network
from repro.core.stream import StreamLayout, encode_query_batch


@pytest.mark.parametrize("n", [16, 64, 256])
def test_cycle_simulator_scaling(benchmark, report, n):
    d = 32
    rng = np.random.default_rng(61)
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (2, d), dtype=np.uint8)
    net, handles = build_knn_network(data)
    layout = StreamLayout(d, handles[0].collector_depth)
    sim = CompiledSimulator(net)
    stream = encode_query_batch(queries, layout)

    res = benchmark(sim.run, stream)

    report(
        f"Cycle simulator scaling: n={n} vectors, d={d}",
        ["States", "Cycles", "Reports"],
        [[sim.n_elements, res.n_cycles, len(res.reports)]],
    )
    assert len(res.reports) == 2 * n


def test_functional_model_throughput(benchmark):
    rng = np.random.default_rng(62)
    data = rng.integers(0, 2, (4096, 128), dtype=np.uint8)
    queries = rng.integers(0, 2, (64, 128), dtype=np.uint8)
    board = FunctionalKnnBoard(data, StreamLayout(128, 1))
    q_idx, codes, cycles = benchmark(board.query_reports, queries)
    assert codes.shape[0] == 64 * 4096

#!/usr/bin/env python
"""Quickstart: kNN similarity search on the simulated Automata Processor.

Builds a small binary dataset, runs the paper's automata design through
the cycle-accurate simulator (the oracle ``simulate_knn``), and checks
the answers against a plain CPU linear scan.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.baselines import CPUHammingKnn
from repro.core.engine import simulate_knn
from repro.perf.models import ap_gen1_model, ap_gen2_model


def main() -> None:
    rng = np.random.default_rng(0)
    n, d, k = 200, 32, 5
    dataset = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (8, d), dtype=np.uint8)

    # One board configuration holds 64 vectors here, so the dataset is
    # partitioned and the board "reconfigured" between partitions,
    # exactly like Section III-C's partial reconfiguration flow.  The
    # cycle-accurate automata run here; the library's engine
    # (repro.APSimilaritySearch) runs their exact functional model,
    # with identical answers and counters.
    capacity = 64
    indices, distances, counters = simulate_knn(
        dataset, queries, k, board_capacity=capacity
    )

    print("execution mode : cycle-accurate simulation (simulate_knn)")
    print(f"partitions     : {-(-n // capacity)}")
    print(f"board loads    : {counters.configurations}")
    print(f"symbols        : {counters.symbols_streamed}")
    print(f"reports        : {counters.reports_received}")
    print()
    for qi in range(3):
        pairs = ", ".join(
            f"#{i} (dist {dist})" for i, dist in zip(indices[qi], distances[qi])
        )
        print(f"query {qi}: {pairs}")

    # The AP's temporally-encoded sort gives exact kNN: cross-check.
    cpu = CPUHammingKnn(dataset).search(queries, k)
    assert (cpu.indices == indices).all()
    assert (cpu.distances == distances).all()
    print("\ncross-check vs CPU linear scan: identical results")

    # What would this take on real AP hardware? (paper's timing model)
    for name, model in [("AP Gen 1", ap_gen1_model()), ("AP Gen 2", ap_gen2_model())]:
        t = model.runtime_s(n, len(queries), d, capacity)
        print(f"{name} estimated device time: {t * 1e6:.1f} us")


if __name__ == "__main__":
    main()

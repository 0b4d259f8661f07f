#!/usr/bin/env python
"""Quickstart: kNN similarity search on the simulated Automata Processor.

Builds a small binary dataset, runs the paper's automata design through
the cycle-accurate simulator, and checks the answers against a plain
CPU linear scan.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import APSimilaritySearch
from repro.baselines import CPUHammingKnn
from repro.perf.models import ap_gen1_model, ap_gen2_model


def main() -> None:
    rng = np.random.default_rng(0)
    n, d, k = 200, 32, 5
    dataset = rng.integers(0, 2, (n, d), dtype=np.uint8)
    queries = rng.integers(0, 2, (8, d), dtype=np.uint8)

    # One board configuration holds 64 vectors here, so the engine
    # partitions the dataset and "reconfigures" between partitions,
    # exactly like Section III-C's partial reconfiguration flow.  The
    # default execution is the exact functional model; "simulate" runs
    # the cycle-accurate automata instead, with identical answers.
    engine = APSimilaritySearch(
        dataset, k=k, board_capacity=64, execution="simulate"
    )
    result = engine.search(queries)

    print(f"execution mode : {result.execution}")
    print(f"partitions     : {result.n_partitions}")
    print(f"board loads    : {result.counters.configurations}")
    print(f"symbols        : {result.counters.symbols_streamed}")
    print(f"reports        : {result.counters.reports_received}")
    print()
    for qi in range(3):
        pairs = ", ".join(
            f"#{i} (dist {dist})"
            for i, dist in zip(result.indices[qi], result.distances[qi])
        )
        print(f"query {qi}: {pairs}")

    # The AP's temporally-encoded sort gives exact kNN: cross-check.
    cpu = CPUHammingKnn(dataset).search(queries, k)
    assert (cpu.indices == result.indices).all()
    assert (cpu.distances == result.distances).all()
    print("\ncross-check vs CPU linear scan: identical results")

    # What would this take on real AP hardware? (paper's timing model)
    for name, model in [("AP Gen 1", ap_gen1_model()), ("AP Gen 2", ap_gen2_model())]:
        t = model.runtime_s(n, len(queries), d, engine.board_capacity)
        print(f"{name} estimated device time: {t * 1e6:.1f} us")


if __name__ == "__main__":
    main()

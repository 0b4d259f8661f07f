"""E5 — Table IV: large-dataset (2^20 points) run time and energy.

The large dataset exceeds one board image, so AP Gen 1 drowns in 45 ms
reconfigurations (>= 98 % of its run time), Gen 2's ~100x faster reloads
recover a 19.4x speedup, and the Opt+Ext projection divides by the
Table VIII compounded gains.  The benchmark regenerates all eight
platform columns from the calibrated models and validates the paper's
headline ratios; a scaled-down live run confirms the engine's
reconfiguration accounting produces exactly n/capacity board loads.
"""

import pytest

from benchmarks.conftest import fmt
from repro.core.engine import APSimilaritySearch
from repro.perf.energy import queries_per_joule
from repro.perf.models import (
    CORTEX_MODEL,
    JETSON_MODEL,
    KINTEX_MODEL,
    TITANX_MODEL,
    XEON_MODEL,
    ap_gen1_model,
    ap_gen2_model,
    ap_opt_ext_model,
)
from repro.workloads.generators import uniform_binary
from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS

PAPER_RUNTIME_S = {
    # [Xeon, A15, TK1, TitanX, K7, Gen1, Gen2, Opt+Ext]
    "kNN-WordEmbed": [19.89, 109.06, 16.09, 0.99, 1.85, 48.10, 2.48, 0.039],
    "kNN-SIFT": [33.18, 199.5, 16.73, 1.02, 3.69, 50.11, 4.50, 0.062],
    "kNN-TagSpace": [60.12, 382.82, 16.41, 1.03, 7.38, 108.31, 17.07, 0.23],
}
PAPER_QPJ = {
    "kNN-WordEmbed": [3.92, 4.69, 212.14, 83.84, 593.89, 4.53, 87.81, 1737.92],
    "kNN-SIFT": [2.35, 2.57, 204.02, 81.94, 296.95, 4.34, 48.40, 1091.86],
    "kNN-TagSpace": [1.30, 1.34, 208.00, 81.05, 148.47, 1.62, 10.20, 236.30],
}
OPT_EXT = {"kNN-WordEmbed": 63.14, "kNN-SIFT": 71.96, "kNN-TagSpace": 73.17}
COLS = ["Xeon E5-2620", "Cortex A15", "Jetson TK1", "Titan X", "Kintex-7",
        "AP Gen 1", "AP Gen 2", "AP Opt+Ext"]


def model_rows(w):
    q, n, d = N_QUERIES, LARGE_N, w.d
    ap1, ap2 = ap_gen1_model(), ap_gen2_model()
    apx = ap_opt_ext_model(OPT_EXT[w.name])
    times = [
        XEON_MODEL.runtime_s(n, q, d),
        CORTEX_MODEL.runtime_s(n, q, d),
        JETSON_MODEL.runtime_s(n, q, d),
        TITANX_MODEL.runtime_s(n, q, d),
        KINTEX_MODEL.runtime_s(n, q, d),
        ap1.runtime_for(w, n, q),
        ap2.runtime_for(w, n, q),
        apx.runtime_for(w, n, q),
    ]
    powers = [52.5, 8.0, 1.2, 49.4, 3.74,
              ap1.power_w(d), ap2.power_w(d), apx.power_w(d)]
    qpj = [queries_per_joule(q, p, t) for p, t in zip(powers, times)]
    return times, qpj


@pytest.mark.parametrize("wname", sorted(WORKLOADS))
def test_table4_models(benchmark, report, wname):
    w = WORKLOADS[wname]
    times, qpj = benchmark(model_rows, w)
    rows = [
        [c, fmt(times[i]), fmt(PAPER_RUNTIME_S[wname][i]),
         fmt(qpj[i], 4), fmt(PAPER_QPJ[wname][i], 4)]
        for i, c in enumerate(COLS)
    ]
    report(
        f"Table IV ({wname}, n=2^20): run time (s) & queries/J",
        ["Platform", "Model s", "Paper s", "Model q/J", "Paper q/J"],
        rows,
    )
    for got, paper in zip(times, PAPER_RUNTIME_S[wname]):
        assert got == pytest.approx(paper, rel=0.10)
    # Shape assertions from the paper's narrative:
    assert times[5] > times[0]  # Gen 1 loses to the Xeon at 2^20 (reconfig)
    assert times[5] / times[6] > 5  # Gen 2 recovers 6-19x depending on d
    assert times[7] < times[3]  # Opt+Ext overtakes even the Titan X


def test_table4_headline_ratios(benchmark, report):
    def ratios():
        w = WORKLOADS["kNN-WordEmbed"]
        g1 = ap_gen1_model().runtime_for(w, LARGE_N, N_QUERIES)
        g2 = ap_gen2_model().runtime_for(w, LARGE_N, N_QUERIES)
        parts = LARGE_N // w.board_capacity
        reconfig_frac = parts * 45e-3 / g1
        return g1 / g2, reconfig_frac

    gap, frac = benchmark(ratios)
    report(
        "Table IV headline ratios (kNN-WordEmbed)",
        ["Quantity", "Model", "Paper"],
        [["Gen1 / Gen2 speedup", fmt(gap), "19.4x"],
         ["Gen1 reconfiguration share", f"{frac:.1%}", ">= 98%"]],
    )
    assert gap == pytest.approx(19.4, rel=0.05)
    assert frac > 0.95


def test_table4_live_partitioned_engine(benchmark, report):
    """Scaled-down live run: the engine's counters must show exactly
    n/capacity configurations, the mechanism behind the Gen 1 column."""
    d, cap, n = 64, 256, 4096
    data = uniform_binary(n, d, seed=5)
    queries = uniform_binary(64, d, seed=6)
    engine = APSimilaritySearch(data, k=2, board_capacity=cap)
    res = benchmark(engine.search, queries)
    assert res.counters.configurations == n // cap
    report(
        "Live partitioned engine (scaled: n=4096, cap=256)",
        ["Configurations", "Symbols streamed", "Reports"],
        [[res.counters.configurations, res.counters.symbols_streamed,
          res.counters.reports_received]],
    )

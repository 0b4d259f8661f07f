"""Calibration tests: analytic models vs the paper's published tables."""

import pytest

from repro.perf.energy import energy_joules, lithography_scale_factor, queries_per_joule
from repro.perf.models import (
    CORTEX_MODEL,
    JETSON_MODEL,
    KINTEX_MODEL,
    PLATFORMS,
    TITANX_MODEL,
    XEON_MODEL,
    ap_gen1_model,
    ap_gen2_model,
    ap_opt_ext_model,
)
from repro.workloads.params import LARGE_N, N_QUERIES, WORKLOADS

Q = N_QUERIES

# Table III (ms) and Table IV (s) ground truth from the paper.
TABLE3_MS = {
    ("kNN-WordEmbed", "xeon"): 23.33, ("kNN-SIFT", "xeon"): 37.50,
    ("kNN-TagSpace", "xeon"): 33.97,
    ("kNN-WordEmbed", "arm"): 103.63, ("kNN-SIFT", "arm"): 191.44,
    ("kNN-TagSpace", "arm"): 185.34,
    ("kNN-WordEmbed", "tk1"): 125.80, ("kNN-SIFT", "tk1"): 155.94,
    ("kNN-TagSpace", "tk1"): 160.15,
    ("kNN-WordEmbed", "k7"): 1.89, ("kNN-SIFT", "k7"): 3.78,
    ("kNN-TagSpace", "k7"): 4.33,
    ("kNN-WordEmbed", "ap1"): 1.97, ("kNN-SIFT", "ap1"): 3.94,
    ("kNN-TagSpace", "ap1"): 7.88,
}
TABLE4_S = {
    ("kNN-WordEmbed", "xeon"): 19.89, ("kNN-SIFT", "xeon"): 33.18,
    ("kNN-TagSpace", "xeon"): 60.12,
    ("kNN-WordEmbed", "arm"): 109.06, ("kNN-SIFT", "arm"): 199.5,
    ("kNN-TagSpace", "arm"): 382.82,
    ("kNN-WordEmbed", "tk1"): 16.09, ("kNN-SIFT", "tk1"): 16.73,
    ("kNN-TagSpace", "tk1"): 16.41,
    ("kNN-WordEmbed", "tx"): 0.99, ("kNN-SIFT", "tx"): 1.02,
    ("kNN-TagSpace", "tx"): 1.03,
    ("kNN-WordEmbed", "k7"): 1.85, ("kNN-SIFT", "k7"): 3.69,
    ("kNN-TagSpace", "k7"): 7.38,
    ("kNN-WordEmbed", "ap1"): 48.10, ("kNN-SIFT", "ap1"): 50.11,
    ("kNN-TagSpace", "ap1"): 108.31,
    ("kNN-WordEmbed", "ap2"): 2.48, ("kNN-SIFT", "ap2"): 4.50,
    ("kNN-TagSpace", "ap2"): 17.07,
}
OPT_EXT_TOTAL = {"kNN-WordEmbed": 63.14, "kNN-SIFT": 71.96,
                 "kNN-TagSpace": 73.17}


def _model_time(w, plat, n):
    ap1, ap2 = ap_gen1_model(), ap_gen2_model()
    return {
        "xeon": lambda: XEON_MODEL.runtime_s(n, Q, w.d),
        "arm": lambda: CORTEX_MODEL.runtime_s(n, Q, w.d),
        "tk1": lambda: JETSON_MODEL.runtime_s(n, Q, w.d),
        "tx": lambda: TITANX_MODEL.runtime_s(n, Q, w.d),
        "k7": lambda: KINTEX_MODEL.runtime_s(n, Q, w.d),
        "ap1": lambda: ap1.runtime_for(w, n, Q),
        "ap2": lambda: ap2.runtime_for(w, n, Q),
    }[plat]()


class TestTable3Calibration:
    @pytest.mark.parametrize("key", sorted(TABLE3_MS))
    def test_small_dataset_rows(self, key):
        wname, plat = key
        w = WORKLOADS[wname]
        got = _model_time(w, plat, w.small_n)
        assert got == pytest.approx(TABLE3_MS[key] / 1e3, rel=0.10), key


class TestTable4Calibration:
    @pytest.mark.parametrize("key", sorted(TABLE4_S))
    def test_large_dataset_rows(self, key):
        wname, plat = key
        w = WORKLOADS[wname]
        got = _model_time(w, plat, LARGE_N)
        assert got == pytest.approx(TABLE4_S[key], rel=0.05), key

    @pytest.mark.parametrize("wname", sorted(OPT_EXT_TOTAL))
    def test_opt_ext_rows(self, wname):
        w = WORKLOADS[wname]
        apx = ap_opt_ext_model(OPT_EXT_TOTAL[wname])
        got = apx.runtime_for(w, LARGE_N, Q)
        paper = {"kNN-WordEmbed": 0.039, "kNN-SIFT": 0.062,
                 "kNN-TagSpace": 0.23}[wname]
        assert got == pytest.approx(paper, rel=0.05)

    def test_gen1_gen2_gap_is_19x(self):
        """The paper's headline: 19.4x between Gen 1 and Gen 2 overall."""
        w = WORKLOADS["kNN-WordEmbed"]
        ratio = ap_gen1_model().runtime_for(w, LARGE_N, Q) / ap_gen2_model(
        ).runtime_for(w, LARGE_N, Q)
        assert ratio == pytest.approx(19.4, rel=0.05)

    def test_jetson_flat_in_d(self):
        """The paper's signature GPU behaviour: run time ~ independent of d."""
        t = [JETSON_MODEL.runtime_s(2**20, 4096, d) for d in (64, 128, 256)]
        assert max(t) / min(t) < 1.05

    def test_titanx_much_faster_than_jetson(self):
        tj = JETSON_MODEL.runtime_s(2**20, 4096, 128)
        tx = TITANX_MODEL.runtime_s(2**20, 4096, 128)
        assert tj / tx > 10

    def test_gen1_reconfiguration_dominates(self):
        """Section V-B: reconfiguration is upwards of 98% of Gen 1 time."""
        w = WORKLOADS["kNN-WordEmbed"]
        total = ap_gen1_model().runtime_for(w, LARGE_N, Q)
        parts = LARGE_N // w.board_capacity
        reconfig = parts * 45e-3
        assert reconfig / total > 0.95


class TestEnergy:
    def test_energy_arithmetic(self):
        assert energy_joules(10, 2) == 20
        assert queries_per_joule(100, 10, 2) == 5
        with pytest.raises(ValueError):
            energy_joules(-1, 1)

    def test_lithography_scaling_is_3_19(self):
        assert lithography_scale_factor(50, 28) == pytest.approx(3.19, abs=0.01)

    @pytest.mark.parametrize(
        "wname,plat_power,paper_qpj,runtime_key",
        [
            ("kNN-WordEmbed", 52.5, 3.92, "xeon"),
            ("kNN-TagSpace", 8.0, 1.34, "arm"),
            ("kNN-SIFT", 3.74, 296.95, "k7"),
            ("kNN-WordEmbed", 49.4, 83.84, "tx"),
        ],
    )
    def test_table4_energy_rows(self, wname, plat_power, paper_qpj, runtime_key):
        w = WORKLOADS[wname]
        t = _model_time(w, runtime_key, LARGE_N)
        assert queries_per_joule(Q, plat_power, t) == pytest.approx(
            paper_qpj, rel=0.08
        )

    def test_ap_energy_rows(self):
        """AP Gen 1 energy for WordEmbed/TagSpace (Table IV): 4.53 / 1.62."""
        ap1 = ap_gen1_model()
        for wname, paper in [("kNN-WordEmbed", 4.53), ("kNN-TagSpace", 1.62)]:
            w = WORKLOADS[wname]
            t = ap1.runtime_for(w, LARGE_N, Q)
            got = queries_per_joule(Q, ap1.power_w(w.d), t)
            assert got == pytest.approx(paper, rel=0.08), wname

    def test_opt_ext_energy_gain_23x(self):
        w = WORKLOADS["kNN-TagSpace"]
        ap2 = ap_gen2_model()
        apx = ap_opt_ext_model(73.17)
        e2 = queries_per_joule(Q, ap2.power_w(w.d), ap2.runtime_for(w, LARGE_N, Q))
        ex = queries_per_joule(Q, apx.power_w(w.d), apx.runtime_for(w, LARGE_N, Q))
        assert ex / e2 == pytest.approx(23.0, rel=0.05)


class TestPlatformRegistry:
    def test_table1_rows_present(self):
        names = set(PLATFORMS)
        assert {"Xeon E5-2620", "Cortex A15", "Jetson TK1", "Titan X",
                "Kintex-7", "Automata Processor"} == names

    def test_table1_parameters(self):
        ap = PLATFORMS["Automata Processor"]
        assert ap.process_nm == 50 and ap.clock_mhz == 133
        assert PLATFORMS["Kintex-7"].clock_mhz == 185
        assert PLATFORMS["Xeon E5-2620"].cores == 6
        assert PLATFORMS["Titan X"].cores == 3072

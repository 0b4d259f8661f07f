"""Integration tests spanning the full stack."""

import numpy as np

from repro.ap.device import GEN1, GEN2
from repro.baselines.cpu import CPUHammingKnn
from repro.baselines.fpga import FPGAKnnAccelerator
from repro.core.engine import APSimilaritySearch
from repro.index.itq import ITQQuantizer
from repro.index.kdtree import RandomizedKDTrees
from repro.index.search import IndexedAPSearch
from repro.workloads.generators import (
    clustered_binary,
    gaussian_features,
    queries_near_dataset,
)
from tests.conftest import brute_force_knn


class TestFullPipeline:
    def test_itq_to_ap_search(self):
        """The paper's end-to-end flow: real features -> ITQ codes -> AP kNN,
        cross-checked against a brute-force scan of the same codes."""
        X, _ = gaussian_features(300, 48, n_clusters=6, seed=0)
        Q = X[:12] + 0.05 * np.random.default_rng(1).standard_normal((12, 48))
        itq = ITQQuantizer(24, n_iterations=20).fit(X)
        codes, qcodes = itq.transform(X), itq.transform(Q)
        engine = APSimilaritySearch(codes, k=5, board_capacity=100)
        res = engine.search(qcodes)
        ref_i, ref_d = brute_force_knn(codes, qcodes, 5)
        assert (res.indices == ref_i).all()
        assert (res.distances == ref_d).all()
        # perturbed queries find their source points
        assert (res.indices[:, 0] == np.arange(12)).sum() >= 10

    def test_all_four_backends_agree(self):
        """AP, CPU and FPGA answer exactly the brute-force kNN; the
        fourth platform, the GPU, is priced by its model only."""
        data, _ = clustered_binary(400, 32, seed=2)
        queries = queries_near_dataset(data, 15, seed=3)
        k = 6
        ref_i, _ = brute_force_knn(data, queries, k)
        ap = APSimilaritySearch(data, k=k, board_capacity=128).search(queries)
        cpu = CPUHammingKnn(data).search(queries, k)
        fpga_i, _, _ = FPGAKnnAccelerator(data).search(queries, k)
        assert (ap.indices == ref_i).all()
        assert (cpu.indices == ref_i).all()
        assert (fpga_i == ref_i).all()

    def test_indexed_search_recall_on_clustered_data(self):
        data, _ = clustered_binary(2000, 32, n_clusters=16, flip_prob=0.05,
                                   seed=6)
        queries = queries_near_dataset(data, 40, flip_prob=0.03, seed=7)
        truth = brute_force_knn(data, queries, 4)[0]
        index = RandomizedKDTrees(data, n_trees=4, bucket_size=256, seed=8)
        idx, _, stats = IndexedAPSearch(index, device=GEN2).search(queries, 4)
        hits = sum(
            len(set(idx[i].tolist()) & set(truth[i].tolist()))
            for i in range(40)
        )
        assert hits / truth.size > 0.8
        assert stats.distinct_buckets_loaded < len(index.buckets) + 1

    def test_gen1_vs_gen2_estimates_at_scale(self):
        """Timing-model integration: the 19x Gen 1 -> Gen 2 gap appears as
        soon as the dataset spans many partitions."""
        data = np.random.default_rng(9).integers(0, 2, (256, 16), dtype=np.uint8)
        e1 = APSimilaritySearch(data, k=1, device=GEN1, board_capacity=16)
        e2 = APSimilaritySearch(data, k=1, device=GEN2, board_capacity=16)
        ratio = e1.estimated_runtime_s(4096) / e2.estimated_runtime_s(4096)
        assert ratio > 15


class TestReductionOnEngineScale:
    def test_reduced_network_bandwidth_saving(self):
        """Activation reduction at engine scale: reports drop ~p/k'."""
        from repro.automata.simulator import CompiledSimulator
        from repro.core.macros import build_knn_network
        from repro.core.reduction import build_reduced_network
        from repro.core.stream import StreamLayout, encode_query_batch

        rng = np.random.default_rng(10)
        data = rng.integers(0, 2, (64, 12), dtype=np.uint8)
        queries = rng.integers(0, 2, (3, 12), dtype=np.uint8)
        lay = StreamLayout(12, 1)
        full_net, _ = build_knn_network(data)
        red_net, _ = build_reduced_network(data, k_prime=4, group_size=16)
        full = CompiledSimulator(full_net).run(encode_query_batch(queries, lay))
        red = CompiledSimulator(red_net).run(encode_query_batch(queries, lay))
        assert len(full.reports) == 3 * 64
        assert 0 < len(red.reports) < len(full.reports) / 2

    def test_reduced_results_still_near_correct(self):
        from repro.core.reduction import ReductionModel

        model = ReductionModel(d=32, k=4, k_prime=4, p=16, n=256)
        frac = model.incorrect_fraction(runs=25, seed=11)
        assert frac <= 0.12

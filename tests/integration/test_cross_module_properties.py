"""Cross-module property tests: independent paths must agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.anml import parse_anml, to_anml
from repro.automata.network import ValidationError
from tests.automata.reference import reference_run
from repro.automata.simulator import CompiledSimulator
from repro.baselines.cpu import CPUHammingKnn
from repro.baselines.fpga import FPGAKnnAccelerator
from repro.core.index_automata import IndexGatedSearch
from repro.index.lsh import HammingLSH
from repro.index.search import IndexedAPSearch
from repro.util import topk as topk_mod
from repro.util.bitops import pack_bits
from repro.util.topk import hamming_topk
from tests.automata.test_reference_differential import random_network
from tests.conftest import brute_force_knn


class TestAnmlRoundTripFuzz:
    @given(st.integers(0, 5000), st.integers(1, 25))
    @settings(max_examples=30, deadline=None)
    def test_serialized_network_behaves_identically(self, seed, stream_len):
        """ANML round-trip over random networks preserves behaviour,
        not just structure."""
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        try:
            net.validate()
        except ValidationError:
            return
        net2 = parse_anml(to_anml(net))
        stream = rng.integers(0, 4, size=stream_len).astype(np.uint8)
        r1 = sorted((r.cycle, r.code) for r in CompiledSimulator(net).run(stream).reports)
        r2 = sorted((r.cycle, r.code) for r in CompiledSimulator(net2).run(stream).reports)
        assert r1 == r2

    @given(st.integers(0, 5000), st.integers(1, 25))
    @settings(max_examples=15, deadline=None)
    def test_parsed_network_agrees_with_reference(self, seed, stream_len):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        try:
            net.validate()
        except ValidationError:
            return
        net2 = parse_anml(to_anml(net))
        stream = rng.integers(0, 4, size=stream_len).astype(np.uint8)
        fast = sorted(
            (r.cycle, r.code) for r in CompiledSimulator(net2).run(stream).reports
        )
        ref = [(r.cycle, r.code) for r in reference_run(net2, stream)]
        assert fast == ref


class TestOptimizerOnEveryDesign:
    @pytest.mark.parametrize("builder", ["knn", "packed", "range", "jaccard"])
    def test_optimize_preserves_all_core_designs(self, builder, rng):
        from repro.automata.optimize import optimize
        from repro.core.macros import build_knn_network
        from repro.core.packing import build_packed_network
        from repro.core.stream import StreamLayout, encode_query_batch, encode_query_blocks
        from repro.core.workload import get_workload

        data = rng.integers(0, 2, (8, 10), dtype=np.uint8)
        queries = rng.integers(0, 2, (2, 10), dtype=np.uint8)
        if builder == "knn":
            net, _ = build_knn_network(data)
            stream = encode_query_batch(queries, StreamLayout(10, 1))
        elif builder == "packed":
            net, _ = build_packed_network(data, group_size=4)
            stream = encode_query_batch(queries, StreamLayout(10, 1))
        else:
            params = {"radius": 3} if builder == "range" else {"k": 3}
            net, block_length = get_workload(builder).network(data, params)
            stream = encode_query_blocks(queries, block_length)
        opt, stats = optimize(net)
        r1 = sorted((r.cycle, r.code) for r in CompiledSimulator(net).run(stream).reports)
        r2 = sorted((r.cycle, r.code) for r in CompiledSimulator(opt).run(stream).reports)
        assert r1 == r2
        assert stats.stes_after <= stats.stes_before


def _lsh(data):
    # four tables over the same rows: every row sits in four buckets
    return HammingLSH(data, n_tables=4, hash_bits=6, n_probes=2, seed=0)


def _index_search(index, queries, k):
    idx, dist, _ = index.search(queries, k)
    return idx, dist, [index.candidates(q) for q in queries]


def _indexed_ap(index, queries, k):
    idx, dist, _ = IndexedAPSearch(index).search(queries, k)
    return idx, dist, [index.candidates(q) for q in queries]


def _gated(data, queries, k):
    gated = IndexGatedSearch(data, 2)
    idx, dist, _ = gated.search(queries, k)
    buckets = [gated.query_bucket(q) for q in queries]
    empty = np.empty(0, dtype=np.int64)
    return idx, dist, [gated.buckets[b].indices if b >= 0 else empty
                       for b in buckets]


def _hamming_topk(data, queries, k):
    idx, dist = hamming_topk(pack_bits(queries), pack_bits(data), k, data.shape[1])
    return idx, dist, None


def _cpu(data, queries, k):
    res = CPUHammingKnn(data).search(queries, k)
    return res.indices, res.distances, None


def _fpga(data, queries, k):
    idx, dist, _ = FPGAKnnAccelerator(data).search(queries, k)
    return idx, dist, None


# Each path answers ``(indices, distances, candidates)``; ``candidates``
# is ``None`` for a full scan, else each query's scanned row ids.
EXACT_TOPK_PATHS = {
    "hamming_topk": _hamming_topk,
    "cpu": _cpu,
    "fpga": _fpga,
    "index.search": lambda data, queries, k: _index_search(_lsh(data), queries, k),
    "indexed_ap": lambda data, queries, k: _indexed_ap(_lsh(data), queries, k),
    "index_gated": _gated,
}


def _brute_force_over(data, queries, k, candidates):
    """Brute-force top-k of each query over its candidate rows, padded
    with ``(-1, d + 1)`` to width ``k``."""
    n_q, d = queries.shape[0], data.shape[1]
    indices = np.full((n_q, k), -1, dtype=np.int64)
    distances = np.full((n_q, k), d + 1, dtype=np.int64)
    for qi in range(n_q):
        rows = np.sort(candidates[qi])
        kk = min(k, rows.size)
        if kk:
            idx, dist = brute_force_knn(data[rows], queries[qi : qi + 1], kk)
            indices[qi, :kk] = rows[idx[0]]
            distances[qi, :kk] = dist[0]
    return indices, distances


class TestExactHammingTopk:
    @pytest.mark.parametrize("wide_keys", [False, True], ids=["u32", "u64"])
    @pytest.mark.parametrize("path", EXACT_TOPK_PATHS)
    def test_forced_ties_match_brute_force(self, path, wide_keys, monkeypatch):
        """Rows at only two distances from each query, so the k-th
        neighbour sits inside a tie: every exact Hamming top-k keeps the
        lowest-index ties, for uint32 and (forced) uint64 keys."""
        if wide_keys:
            monkeypatch.setattr(topk_mod, "_KEY32_LIMIT", 1)
        for seed, n, d in [(0, 40, 70), (1, 57, 33), (2, 12, 130)]:
            rng = np.random.default_rng(seed)
            near = rng.integers(0, 2, d, dtype=np.uint8)
            # far differs in 3 bits, so most LSH tables and prefix
            # buckets hold rows at both distances
            far = near.copy()
            far[rng.choice(d, 3, replace=False)] ^= 1
            pick = rng.integers(0, 2, (n, 1)) == 1
            data = np.where(pick, near, far).astype(np.uint8)
            queries = np.stack([near, far, 1 - near])
            for k in (1, 5, n // 2, n + 3):
                idx, dist, cands = EXACT_TOPK_PATHS[path](data, queries, k)
                if cands is None:
                    cands = [np.arange(n)] * len(queries)
                    assert idx.shape == (3, min(k, n))
                else:
                    assert idx.shape == (3, k)
                exp_i, exp_d = _brute_force_over(data, queries, k, cands)
                width = idx.shape[1]
                assert (idx == exp_i[:, :width]).all(), (seed, k)
                assert (dist == exp_d[:, :width]).all(), (seed, k)

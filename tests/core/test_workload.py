"""Tests for the generic workload protocol, registry, and engine.

The load-bearing claims:

* the registry resolves the built-ins and rejects duplicates/unknowns;
* the kNN reference workload is bit-identical to the dedicated engine
  (the PR's zero-behavior-change refactor contract);
* Jaccard and range search through :class:`WorkloadSearch` match their
  single-engine references exactly, for every backend (serial/thread/
  process), dataset carrier (by value / shm slice ref), and through the
  batching layer;
* merges are associative and permutation-invariant (hypothesis), so
  shard trees of any shape agree;
* pack/unpack/split roundtrip every workload's result.
"""

import multiprocessing
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dataset as dataset_mod
from repro.core import workload as wl_mod
from repro.core.engine import APSimilaritySearch
from repro.core.jaccard import JaccardAPSearch, jaccard_similarity_matrix
from repro.core.range_search import HammingRangeSearch
from repro.core.workload import (
    HammingKnnWorkload,
    Workload,
    WorkloadSearch,
    available_workloads,
    get_workload,
    normalize_queries,
    register_workload,
)
from repro.host.parallel import ParallelConfig
from repro.host.shm import SHM_UNAVAILABLE_REASON, shm_available
from tests.conftest import assert_snapshots_equal, run_snapshot


def _data(n=200, d=32, n_queries=7, seed=11):
    rng = np.random.default_rng(seed)
    return (
        (rng.random((n, d)) < 0.4).astype(np.uint8),
        (rng.random((n_queries, d)) < 0.4).astype(np.uint8),
    )


def _assert_value_equal(workload, a, b):
    for f in workload.wire_fields:
        fa, fb = np.asarray(getattr(a, f)), np.asarray(getattr(b, f))
        assert fa.shape == fb.shape, (workload.name, f, fa.shape, fb.shape)
        assert (fa == fb).all(), (workload.name, f)


ALL_PARAMS = [("knn", {"k": 9}), ("jaccard", {"k": 9}), ("range", {"radius": 11})]


def _tied_data(n, d=32, distinct=5, seed=3):
    """Few distinct rows laid out in runs that straddle every board
    boundary, queried by the rows themselves: each query's k-th place
    falls inside a tie between boards."""
    rng = np.random.default_rng(seed)
    base = (rng.random((distinct, d)) < 0.4).astype(np.uint8)
    data = base[(np.arange(n) // 5) % distinct]
    return data, base


# Geometries whose host passes span several boards (engine kwargs, k):
# what the fused worker body must get right that one board never showed.
FUSED_GEOMETRIES = [
    pytest.param(_data(n=200), dict(board_capacity=32), 9,
                 id="short-last-board"),
    pytest.param(_data(n=96), dict(board_capacity=8), 20,
                 id="k-beyond-board-rows"),
    pytest.param(_tied_data(128), dict(board_capacity=16), 7,
                 id="ties-straddle-boards"),
    pytest.param(_data(n=200), dict(board_capacity=16, n_devices=3), 9,
                 id="multi-device"),
]


class TestRegistry:
    def test_builtins_registered(self):
        names = list(available_workloads())
        assert names == sorted(names)
        assert {"knn", "jaccard", "range"} <= set(names)

    def test_descriptions_nonempty(self):
        for wl in available_workloads().values():
            assert wl.description.strip()
            assert wl.wire_fields

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="registered: .*knn"):
            get_workload("nope")

    def test_duplicate_rejected_unless_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(HammingKnnWorkload())
        # replace=True swaps the instance and is undone right after
        original = get_workload("knn")
        fresh = HammingKnnWorkload()
        try:
            assert register_workload(fresh, replace=True) is fresh
            assert get_workload("knn") is fresh
        finally:
            register_workload(original, replace=True)

    def test_empty_name_rejected(self):
        class Nameless(HammingKnnWorkload):
            name = ""

        with pytest.raises(ValueError, match="non-empty name"):
            register_workload(Nameless())


class TestKnnReferenceWorkload:
    """The refactor contract: kNN through the protocol ≡ the engine."""

    def test_engine_and_workload_paths_bit_identical(self, oracle):
        self._same_pipeline(oracle, "functional", 16)

    @pytest.mark.parametrize("execution,capacity", [
        ("functional", None), ("simulate", 16), ("simulate", None),
    ])
    def test_engine_is_a_named_constructor(self, oracle, execution, capacity):
        self._same_pipeline(oracle, execution, capacity)

    @staticmethod
    def _same_pipeline(oracle, execution, capacity):
        """APSimilaritySearch is a named constructor over the one
        pipeline: same partitioning (default capacity included), same
        answers, same counters — in both back-ends."""
        data, queries = _data(n=60, d=16, n_queries=3)
        ref_engine = APSimilaritySearch(
            data, k=9, execution=execution, board_capacity=capacity
        )
        engine = WorkloadSearch(
            data, "knn", {"k": 9, "execution": execution},
            board_capacity=capacity,
        )
        assert engine.partitions == ref_engine.partitions
        ref, res = ref_engine.search(queries), engine.search(queries)
        assert (res.value.indices == ref.indices).all()
        assert (res.value.distances == ref.distances).all()
        assert res.counters == ref.counters
        assert res.execution == ref.execution == execution
        assert res.n_partitions == ref.n_partitions == len(engine.partitions)
        exp_idx, exp_dist = oracle(data, queries, 9)
        assert (res.value.indices == exp_idx).all()
        assert (res.value.distances == exp_dist).all()

    def test_default_capacity_is_the_workloads_own_rule(self):
        """kNN: the compiler probe (2368 / 1216 / 576 vectors per board
        at d = 64 / 128 / 256, whichever constructor is used); the
        other built-ins: the paper's Table II constants."""
        for d, knn_cap, table2_cap in ((64, 2368, 1024), (128, 1216, 1024),
                                       (256, 576, 512)):
            data = np.zeros((3, d), dtype=np.uint8)
            assert APSimilaritySearch(data, k=1).board_capacity == knn_cap
            assert WorkloadSearch(
                data, "knn", {"k": 1}
            ).board_capacity == knn_cap
            assert WorkloadSearch(
                data, "jaccard", {"k": 1}
            ).board_capacity == table2_cap

    def test_simulate_and_functional_never_share_cache_entries(self):
        from repro.ap.compiler import BoardImageCache

        data, queries = _data(n=40, d=16, n_queries=2)
        cache = BoardImageCache()
        results = [
            APSimilaritySearch(
                data, k=3, board_capacity=16, execution=execution, cache=cache
            ).search(queries)
            for execution in ("functional", "simulate", "functional")
        ]
        assert len(cache) == 2 * results[0].n_partitions
        assert [r.counters.image_cache_hits for r in results] == [
            0, 0, results[0].n_partitions
        ]
        assert (results[0].indices == results[1].indices).all()

    def test_engine_merge_routes_through_workload(self):
        # multi-partition single engine still merges exactly
        data, queries = _data(n=150, seed=3)
        ref = APSimilaritySearch(data, k=150, execution="functional",
                                 board_capacity=32).search(queries)
        brute = np.lexsort(
            (np.arange(150)[None, :].repeat(queries.shape[0], 0),
             np.abs(data[None].astype(np.int64)
                    - queries[:, None].astype(np.int64)).sum(-1)),
            axis=-1,
        )
        assert (ref.indices == brute).all()


class TestWorkloadParity:
    """WorkloadSearch ≡ single-engine references, every host path."""

    def test_jaccard_matches_reference_engine(self):
        data, queries = _data()
        ref = JaccardAPSearch(data, k=9).search(queries)
        res = WorkloadSearch(data, "jaccard", {"k": 9},
                             board_capacity=64).search(queries)
        assert (res.value.indices == ref.indices).all()
        assert (res.value.similarities == ref.similarities).all()
        assert (res.value.intersections == ref.intersections).all()

    @given(
        st.integers(1, 40),  # n
        st.integers(1, 70),  # d (one and two words)
        st.integers(1, 45),  # k (often >= n)
        st.integers(0, 10_000),
        st.sampled_from(["random", "duplicates", "empty-sets"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_jaccard_selection_equals_full_sort(self, n, d, k, seed, flavor):
        """Top-k by selection keeps exactly the first k of the full
        (descending similarity, ascending index) order — with the k-th
        similarity inside a tie, and for empty-vs-empty (similarity 1)."""
        rng = np.random.default_rng(seed)
        data = (rng.random((n, d)) < 0.4).astype(np.uint8)
        if flavor == "duplicates":
            data = data[rng.integers(0, max(1, n // 4), n)]
        elif flavor == "empty-sets":
            data[rng.random(n) < 0.5] = 0
        queries = (rng.random((3, d)) < 0.4).astype(np.uint8)
        queries[0] = 0
        workload = get_workload("jaccard")
        got, _ = workload.execute(workload.compile(data, {}), queries, {"k": k})
        sim = jaccard_similarity_matrix(queries, data)
        inter = (queries[:, None, :] & data[None, :, :]).sum(axis=-1)
        ids = np.broadcast_to(np.arange(n), sim.shape)
        order = np.lexsort((ids, -sim), axis=-1)[:, : min(k, n)]
        assert (got.indices == order).all()
        assert (got.similarities == np.take_along_axis(sim, order, axis=1)).all()
        assert (got.intersections == np.take_along_axis(inter, order, axis=1)).all()
        assert got.indices.dtype == got.intersections.dtype == np.int64

    def test_range_matches_reference_engine(self):
        data, queries = _data()
        ref = HammingRangeSearch(data, radius=11).search(queries)
        res = WorkloadSearch(data, "range", {"radius": 11},
                             board_capacity=64).search(queries)
        cands, dists = res.value.to_lists()
        for qi in range(queries.shape[0]):
            assert cands[qi].tolist() == ref.candidates[qi].tolist()
            assert dists[qi].tolist() == ref.distances[qi].tolist()

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_bit_identical(self, name, params, backend):
        data, queries = _data()
        serial = WorkloadSearch(data, name, params,
                                board_capacity=32).search(queries)
        par = WorkloadSearch(
            data, name, params, board_capacity=32,
            parallel=ParallelConfig(n_workers=4, backend=backend),
        )
        res = par.search(queries)
        assert res.n_workers == 4
        _assert_value_equal(get_workload(name), res.value, serial.value)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    @pytest.mark.parametrize("n_devices", [2, 5])
    def test_multi_device_bit_identical(self, name, params, n_devices):
        """Every workload shards across boards: partitions never
        straddle a device boundary, the merge is unchanged."""
        data, queries = _data()
        single = WorkloadSearch(data, name, params,
                                board_capacity=32).search(queries)
        engine = WorkloadSearch(data, name, params, board_capacity=32,
                                n_devices=n_devices)
        res = engine.search(queries)
        _assert_value_equal(get_workload(name), res.value, single.value)
        assert res.n_devices == n_devices
        assert res.n_partitions == len(engine.partitions)
        bounds = engine.shard_bounds.tolist()
        for start, end in engine.partitions:
            assert any(lo <= start and end <= hi
                       for lo, hi in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize("name", ["knn", "jaccard", "range"])
    @pytest.mark.parametrize("inputs,kwargs,k", FUSED_GEOMETRIES)
    def test_fused_passes_equal_one_board_per_pass(
        self, name, inputs, kwargs, k, unfused
    ):
        """A pass over a run of boards answers, counts and caches
        exactly as the boards run one by one."""
        data, queries = inputs
        params = {"radius": 11} if name == "range" else {"k": k}

        def engine():
            return WorkloadSearch(data, name, params, cache=True, **kwargs)

        with unfused():
            ref = run_snapshot(engine(), queries)
        fused = engine()
        bounds = fused.shard_bounds.tolist()
        tasks = fused._partition_tasks(
            fused.params, fused._boards_per_pass(fused.params, len(queries))
        )
        assert len(tasks) == fused.n_devices < len(fused.partitions)
        assert [(t.start, t.end) for t in tasks] == list(zip(bounds, bounds[1:]))
        assert_snapshots_equal(run_snapshot(fused, queries), ref, name)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_evicted_board_inside_a_hit_pass_is_rebuilt_alone(
        self, name, params, unfused
    ):
        from repro.ap.compiler import BoardImageCache

        data, queries = _data(n=64)

        def scenario():
            cache = BoardImageCache(max_entries=4)
            engine = WorkloadSearch(data, name, params, board_capacity=16,
                                    cache=cache)
            engine.search(queries)  # 4 boards, all resident
            cache.put(("foreign",), object())  # evicts board 0 ...
            # ... and a second engine over boards 1-3 (same content, same
            # keys) refreshes them, so board 0 alone is missing.
            tail = WorkloadSearch(data[16:], name, params, board_capacity=16,
                                  cache=cache)
            assert tail.search(queries).counters.image_cache_hits == 3
            return run_snapshot(engine, queries, searches=1)

        with unfused():
            ref = scenario()
        got = scenario()
        assert got[0]["counters"]["image_cache_hits"] == 3
        assert got[-1]["cache"] == (6, 5, 2, 4)  # hits, misses, evictions, len
        assert_snapshots_equal(got, ref, name)

    @pytest.mark.parametrize("execution,n_q,fused", [
        ("simulate", 2, False), ("auto", 1, False), ("auto", 64, True),
    ])
    def test_simulate_tasks_stay_one_board(
        self, execution, n_q, fused, unfused, monkeypatch
    ):
        """A cycle-accurate image IS one board: only functional runs
        are handed to workers as multi-board passes."""
        import repro.host.parallel as hp

        data, _ = _data(n=24, d=8)
        queries = _data(n=24, d=8, n_queries=n_q, seed=5)[1]
        monkeypatch.setattr(wl_mod, "_AUTO_SIM_LIMIT", 400_000)

        def engine():
            return WorkloadSearch(
                data, "knn", {"k": 3, "execution": execution},
                board_capacity=6, cache=True,
            )

        with unfused():
            ref = run_snapshot(engine(), queries)
        seen = []
        real = hp.execute_partition

        def spy(task, queries_bits, cache=None):
            seen.append(len(task.board_list()))
            return real(task, queries_bits, cache)

        monkeypatch.setattr(hp, "execute_partition", spy)
        got = run_snapshot(engine(), queries, searches=1)
        assert seen == ([4] if fused else [1, 1, 1, 1])
        assert got[0]["execution"] == ("functional" if fused else "simulate")
        assert_snapshots_equal(got[:1], ref[:1], execution)

    def test_large_jaccard_batch_stays_within_the_pair_budget(self):
        """q x rows per pass is capped, so the widest per-pair transient
        (Jaccard's ~30 B) never scales with the batch: a 256-row batch
        over 2^14 rows (2^22 pairs, ~128 MiB unfettered) peaks under
        twice the budget's 8 MiB."""
        import tracemalloc

        data, queries = _data(n=1 << 14, d=64, n_queries=256)
        engine = WorkloadSearch(data, "jaccard", {"k": 10},
                                board_capacity=256, cache=True)
        assert engine._boards_per_pass(engine.params, 256) == 4
        engine.search(queries)  # compile outside the measured search
        tracemalloc.start()
        try:
            engine.search(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * wl_mod._PASS_PAIRS, f"{peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    @pytest.mark.skipif(not shm_available(), reason=SHM_UNAVAILABLE_REASON)
    def test_shm_transport_bit_identical(self, name, params, monkeypatch):
        monkeypatch.setattr(dataset_mod, "SHM_PROMOTE_MIN_BYTES", 1)
        data, queries = _data(n=256, d=64)
        serial = WorkloadSearch(data, name, params,
                                board_capacity=64).search(queries)
        engine = WorkloadSearch(
            data, name, params, board_capacity=64,
            parallel=ParallelConfig(n_workers=2, backend="process"),
        )
        assert engine.dataset.kind == "shm"  # promoted: slice-ref tasks
        res = engine.search(queries)
        assert res.transport == "pickle"
        _assert_value_equal(get_workload(name), res.value, serial.value)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_cache_warm_run_identical(self, name, params):
        data, queries = _data()
        engine = WorkloadSearch(data, name, params, board_capacity=32,
                                cache=True)
        cold = engine.search(queries)
        warm = engine.search(queries)
        assert warm.counters.image_cache_hits == len(engine.partitions)
        _assert_value_equal(get_workload(name), cold.value, warm.value)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_batched_callers_get_their_rows(self, name, params):
        from concurrent.futures import ThreadPoolExecutor

        data, queries = _data(n_queries=12)
        engine = WorkloadSearch(data, name, params, board_capacity=64)
        direct = engine.search(queries)
        workload = get_workload(name)
        with engine.batched(max_batch=12, max_wait_ms=20.0) as router:
            with ThreadPoolExecutor(max_workers=12) as pool:
                outs = list(pool.map(
                    lambda qi: router.search(queries[qi]), range(12)
                ))
        assert router.stats.calls == 12
        for qi, out in enumerate(outs):
            got = out.result.value
            exp = workload.split(direct.value, qi, qi + 1)
            # ragged rows may be narrower than the full-batch block:
            # compare the valid prefix, require the rest to be pads
            counts = getattr(exp, "counts", None)
            if counts is None:
                _assert_value_equal(workload, got, exp)
            else:
                c = int(counts[0])
                assert int(got.counts[0]) == c
                assert got.indices[0, :c].tolist() == \
                    exp.indices[0, :c].tolist()
                assert got.distances[0, :c].tolist() == \
                    exp.distances[0, :c].tolist()
                assert (exp.indices[0, c:] == -1).all()


class TestParamValidation:
    def test_k_clipped_to_n(self):
        data, queries = _data(n=20)
        for name in ("knn", "jaccard"):
            res = WorkloadSearch(data, name, {"k": 50}).search(queries)
            assert res.value.indices.shape == (queries.shape[0], 20)

    def test_bad_k_rejected(self):
        data, _ = _data(n=20)
        with pytest.raises(ValueError, match="k must be"):
            WorkloadSearch(data, "knn", {"k": 0})

    def test_range_requires_radius(self):
        data, _ = _data()
        with pytest.raises(ValueError, match="radius"):
            WorkloadSearch(data, "range")
        with pytest.raises(ValueError, match="radius must be"):
            WorkloadSearch(data, "range", {"radius": 99})

    def test_nonbinary_rejected(self):
        data, queries = _data()
        with pytest.raises(ValueError, match="binary"):
            WorkloadSearch(data + 1, "knn", {"k": 3})
        engine = WorkloadSearch(data, "knn", {"k": 3})
        with pytest.raises(ValueError, match="binary"):
            engine.search(queries + 2)

    def test_non_bit_values_rejected_before_narrowing(self, non_binary):
        data, queries = _data()
        with pytest.raises(ValueError, match="binary"):
            WorkloadSearch(non_binary(data), "knn", {"k": 3})
        with pytest.raises(ValueError, match="binary"):
            normalize_queries(non_binary(queries), queries.shape[1])
        # a wide dtype holding only bits is still a legal batch
        wide = normalize_queries(queries.astype(np.int64), queries.shape[1])
        assert wide.dtype == np.uint8 and (wide == queries).all()

    def test_query_d_mismatch_rejected(self):
        data, _ = _data(d=32)
        engine = WorkloadSearch(data, "knn", {"k": 3})
        with pytest.raises(ValueError, match="d=16"):
            engine.search(np.zeros((2, 16), dtype=np.uint8))


class TestSplitPackRoundtrip:
    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_pack_unpack_roundtrip(self, name, params):
        data, queries = _data()
        workload = get_workload(name)
        res = WorkloadSearch(data, name, params,
                             board_capacity=64).search(queries)
        back = workload.unpack(workload.pack(res.value))
        _assert_value_equal(workload, res.value, back)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_unpack_rejects_trailing_bytes(self, name, params):
        from repro.host.rpc import RpcProtocolError

        data, queries = _data()
        workload = get_workload(name)
        res = WorkloadSearch(data, name, params).search(queries)
        with pytest.raises(RpcProtocolError, match="trailing"):
            workload.unpack(workload.pack(res.value) + b"\x00")

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_split_rows_are_views_of_the_batch(self, name, params):
        data, queries = _data(n_queries=6)
        workload = get_workload(name)
        res = WorkloadSearch(data, name, params,
                             board_capacity=64).search(queries)
        sliced = workload.split(res.value, 2, 5)
        for f in workload.wire_fields:
            assert (np.asarray(getattr(sliced, f))
                    == np.asarray(getattr(res.value, f))[2:5]).all()


class TestMergeProperties:
    """Associativity + shard-order invariance, the property that lets
    servers pre-merge partitions and pools merge across shards."""

    def _partials(self, name, params, n, d, n_parts, seed):
        rng = np.random.default_rng(seed)
        data = (rng.random((n, d)) < 0.4).astype(np.uint8)
        queries = (rng.random((4, d)) < 0.4).astype(np.uint8)
        workload = get_workload(name)
        params = workload.validate_params(dict(params), n, d)
        bounds = np.linspace(0, n, n_parts + 1).astype(int)
        partials, offsets = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi == lo:
                continue
            part_params = workload.validate_params(
                dict(params), hi - lo, d
            )
            artifact = workload.compile(data[lo:hi], part_params)
            partial, _ = workload.execute(artifact, queries, part_params)
            partials.append(partial)
            offsets.append(int(lo))
        return workload, params, partials, offsets

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    @given(st.integers(2, 5), st.integers(0, 1000), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_merge_associative_and_order_invariant(
        self, name, params, n_parts, seed, rnd
    ):
        workload, params, partials, offsets = self._partials(
            name, params, n=60, d=16, n_parts=n_parts, seed=seed
        )
        flat = workload.merge(partials, offsets, params)

        # split point -> pre-merge each half, then merge the halves
        # (the merged halves carry global indices: offset 0)
        cut = max(1, len(partials) // 2)
        left = workload.merge(partials[:cut], offsets[:cut], params)
        right = workload.merge(partials[cut:], offsets[cut:], params)
        tree = workload.merge([left, right], [0, 0], params)
        for f in workload.wire_fields:
            assert (np.asarray(getattr(tree, f))
                    == np.asarray(getattr(flat, f))).all(), (name, f)

        # arbitrary shard-order permutation
        order = list(range(len(partials)))
        rnd.shuffle(order)
        shuffled = workload.merge(
            [partials[i] for i in order],
            [offsets[i] for i in order],
            params,
        )
        for f in workload.wire_fields:
            assert (np.asarray(getattr(shuffled, f))
                    == np.asarray(getattr(flat, f))).all(), (name, f)

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_merged_result_is_a_valid_partial(self, name, params):
        # merge([result], [0]) must be idempotent (width alignment aside)
        workload, params, partials, offsets = self._partials(
            name, params, n=60, d=16, n_parts=3, seed=5
        )
        merged = workload.merge(partials, offsets, params)
        again = workload.merge([merged], [0], params)
        for f in workload.wire_fields:
            assert (np.asarray(getattr(again, f))
                    == np.asarray(getattr(merged, f))).all()

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_empty_shape(self, name, params):
        workload = get_workload(name)
        params = workload.validate_params(dict(params), 100, 16)
        value = workload.empty(5, params)
        assert getattr(value, workload.wire_fields[0]).shape[0] == 5
        if name != "range":
            assert (value.indices == -1).all()
        else:
            assert value.indices.shape == (5, 0)
            assert (value.counts == 0).all()


@dataclass
class _CountResult:
    indices: np.ndarray  # (q, 1) popcount-nearest index
    distances: np.ndarray


class _PopcountNearest(Workload):
    """Toy: the single vector whose popcount is closest.  Module-level
    so its results pickle back from a process worker."""

    name = "test-popcount"
    description = "test-only workload"
    wire_fields = ("indices", "distances")
    result_type = _CountResult

    def compile(self, dataset_bits, params):
        return dataset_bits.sum(axis=1).astype(np.int64)

    def execute(self, artifact, queries_bits, params):
        from repro.ap.runtime import RuntimeCounters

        qc = queries_bits.sum(axis=1).astype(np.int64)
        dist = np.abs(artifact[None, :] - qc[:, None])
        ids = np.broadcast_to(
            np.arange(artifact.shape[0]), dist.shape
        )
        order = np.lexsort((ids, dist), axis=-1)[:, :1]
        return _CountResult(
            np.take_along_axis(ids, order, axis=1),
            np.take_along_axis(dist, order, axis=1),
        ), RuntimeCounters()

    def merge(self, partials, offsets, params):
        from repro.util.topk import merge_topk_blocks

        blocks = [(p.indices, p.distances) for p in partials]
        return _CountResult(*merge_topk_blocks(
            blocks, 1, offsets=offsets
        ))

    def empty(self, n_q, params):
        return _CountResult(
            np.full((n_q, 1), -1, dtype=np.int64),
            np.full((n_q, 1), -1, dtype=np.int64),
        )


class TestCustomWorkload:
    """The extension story: a subclass + register() gains the host stack."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_custom_workload_runs_parallel(self, backend):
        if backend == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("process workers see a test-time registration only by fork")
        register_workload(_PopcountNearest())
        try:
            data, queries = _data(n=90, d=16)
            serial = WorkloadSearch(data, "test-popcount",
                                    board_capacity=16).search(queries)
            pooled = WorkloadSearch(
                data, "test-popcount", board_capacity=16,
                parallel=ParallelConfig(n_workers=3, backend=backend),
            ).search(queries)
            assert pooled.n_workers == 3
            assert (serial.value.indices == pooled.value.indices).all()
            # oracle: global popcount scan with (distance, index) ties
            pc = data.sum(axis=1).astype(np.int64)
            qc = queries.sum(axis=1).astype(np.int64)
            dist = np.abs(pc[None, :] - qc[:, None])
            exp = np.lexsort(
                (np.broadcast_to(np.arange(90), dist.shape), dist),
                axis=-1,
            )[:, :1]
            assert (serial.value.indices == exp).all()
        finally:
            from repro.core.workload import _REGISTRY

            _REGISTRY.pop("test-popcount", None)

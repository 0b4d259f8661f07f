"""Tests for the generic workload protocol, registry, and engine.

The load-bearing claims:

* the registry resolves the built-ins and rejects duplicates/unknowns;
* ``APSimilaritySearch`` is a named constructor over the one pipeline;
* every execution path answers as the serial engine and a brute-force
  scan do — held by ``tests/integration/test_bit_identity.py``;
* multi-board passes keep caching per board; a workload must implement
  ``compile_packed``;
* every workload's task is a lane's run of windows, answering as its
  windows merged;
* every store's passes take one byte budget and one plan, split each
  device shard into near-equal runs, and the one-board-per-pass
  reference reaches them;
* merges are associative and permutation-invariant (hypothesis), so
  shard trees of any shape agree;
* pack/unpack/split roundtrip every workload's result.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ap.runtime import RuntimeCounters
from repro.core import workload as wl_mod
from repro.core.dataset import write_pds
from repro.core.engine import APSimilaritySearch
from repro.core.jaccard import jaccard_similarity_matrix
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
from repro.util.bitops import pack_bits
from tests.oracle import (
    PopcountNearest,
    _popcount_nearest,
    assert_snapshots_equal,
    one_board_per_pass,
    run_snapshot,
)


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


class _Hollow(Workload):
    """A workload that implements everything but ``compile_packed``."""

    name = "toy-hollow"
    execute = PopcountNearest.execute
    merge = PopcountNearest.merge
    empty = PopcountNearest.empty


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

    @pytest.mark.parametrize("execution,capacity", [
        ("functional", 16), ("functional", None),
    ])
    def test_engine_is_a_named_constructor(self, oracle, execution, capacity):
        """APSimilaritySearch is a named constructor over the one
        pipeline: same partitioning (default capacity included), same
        answers, same counters — its ``execution=`` adapter included."""
        data, queries = _data(n=60, d=16, n_queries=3)
        ref_engine = APSimilaritySearch(
            data, k=9, execution=execution, board_capacity=capacity
        )
        engine = WorkloadSearch(data, "knn", {"k": 9}, board_capacity=capacity)
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

    def test_board_words_are_shared_across_workloads(self):
        """A board's cache entry is its packed words, keyed by content
        alone: a second kNN engine and a Jaccard engine over the same
        rows find every board."""
        from repro.ap.compiler import BoardImageCache

        data, queries = _data(n=40, d=16, n_queries=2)
        cache = BoardImageCache()
        results = [
            APSimilaritySearch(
                data, k=3, board_capacity=16, cache=cache
            ).search(queries)
            for _ in range(2)
        ]
        assert len(cache) == results[0].n_partitions
        assert [r.counters.image_cache_hits for r in results] == [
            0, results[0].n_partitions
        ]
        misses = cache.stats.misses
        jaccard = WorkloadSearch(
            data, "jaccard", {"k": 3}, board_capacity=16, cache=cache
        ).search(queries)
        assert jaccard.counters.image_cache_hits == jaccard.n_partitions
        assert cache.stats.misses == misses

    def test_engine_merge_routes_through_workload(self):
        # multi-partition single engine still merges exactly
        data, queries = _data(n=150, seed=3)
        ref = APSimilaritySearch(data, k=150,
                                 board_capacity=32).search(queries)
        brute = np.lexsort(
            (np.arange(150)[None, :].repeat(queries.shape[0], 0),
             np.abs(data[None].astype(np.int64)
                    - queries[:, None].astype(np.int64)).sum(-1)),
            axis=-1,
        )
        assert (ref.indices == brute).all()


class TestWorkloadPasses:
    """Top-k selection inside a pass, and what fused and simulated
    passes owe the cache and the pass budget."""

    @given(
        st.integers(1, 40),  # n
        st.integers(1, 70),  # d (one and two words)
        st.integers(1, 45),  # k (often >= n)
        st.integers(0, 10_000),
        st.sampled_from(["random", "duplicates", "empty-sets", "full-sets"]),
    )
    @settings(max_examples=60, deadline=None)
    # uint64 keys: the numerator I·d² reaches d³ >= 2^32 at tiny n (full
    # sets), and (d² + 1)·n >= 2^32 with d³ still inside uint32 (empty
    # rows take the largest keys).
    @example(n=3, d=1626, k=2, seed=0, flavor="full-sets")
    @example(n=4097, d=1024, k=5, seed=3, flavor="empty-sets")
    def test_jaccard_selection_equals_full_sort(self, n, d, k, seed, flavor):
        """Top-k by selection keeps exactly the first k of the full
        (descending similarity, ascending index) order — with the k-th
        similarity inside a tie, for empty-vs-empty (similarity 1) and
        for full sets (the largest intersections)."""
        rng = np.random.default_rng(seed)
        data = (rng.random((n, d)) < 0.4).astype(np.uint8)
        if flavor == "duplicates":
            data = data[rng.integers(0, max(1, n // 4), n)]
        elif flavor == "empty-sets":
            data[rng.random(n) < 0.5] = 0
        elif flavor == "full-sets":
            data[rng.random(n) < 0.5] = 1
        queries = (rng.random((3, d)) < 0.4).astype(np.uint8)
        queries[0] = 0
        if flavor == "full-sets":
            queries[1] = 1
        workload = get_workload("jaccard")
        artifact = workload.compile_packed(pack_bits(data), d, {})
        got, _ = workload.execute(artifact, pack_bits(queries), {"k": k})
        sim = jaccard_similarity_matrix(queries, data)
        inter = (queries[:, None, :] & data[None, :, :]).sum(axis=-1)
        ids = np.broadcast_to(np.arange(n), sim.shape)
        order = np.lexsort((ids, -sim), axis=-1)[:, : min(k, n)]
        assert (got.indices == order).all()
        assert (got.similarities == np.take_along_axis(sim, order, axis=1)).all()
        assert (got.intersections == np.take_along_axis(inter, order, axis=1)).all()
        assert got.indices.dtype == got.intersections.dtype == np.int64

    @pytest.mark.parametrize("d", [1, 2, 33, 64, 255, 256])
    def test_jaccard_keys_order_pairs_as_exact_fractions(self, d):
        """Over every (I, U) with 0 <= I <= U <= d, and (0, 0) as
        similarity 1, the keys sort pairs as their exact fractions do
        and equal fractions share a key."""
        by_fraction = {}
        for u in range(d + 1):
            # One query of size u against rows of size I, each a subset
            # of it: row I meets the query in I and their union is u.
            inter = np.arange(u + 1)
            keys = wl_mod._jaccard_keys(
                inter[None, :].astype(np.uint16), np.array([u]), inter, d
            )
            for i, rank in enumerate((keys[0] // (u + 1)).tolist()):
                by_fraction.setdefault(
                    Fraction(i, u) if u else Fraction(1), set()
                ).add(rank)
        assert all(len(ranks) == 1 for ranks in by_fraction.values())
        ranks = [by_fraction[f].pop() for f in sorted(by_fraction, reverse=True)]
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("name,params", ALL_PARAMS)
    def test_evicted_board_inside_a_hit_pass_is_rebuilt_alone(
        self, name, params
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

        with one_board_per_pass():
            ref = scenario()
        got = scenario()
        assert got[0]["counters"]["image_cache_hits"] == 3
        assert got[-1]["cache"] == (6, 5, 2, 4)  # hits, misses, evictions, len
        assert_snapshots_equal(got, ref, name)

    def test_compile_packed_alone_runs_a_run_of_boards_as_one_pass(self):
        data, queries = _data(n=64)
        engine = WorkloadSearch(data, PopcountNearest(), {}, board_capacity=16,
                                cache=True)
        [task] = engine._partition_tasks(boards_per_pass=4)
        result = engine.workload.execute_task(task, queries, engine.cache)
        assert result.passes == 1
        assert result.counters.configurations == 4
        want, _ = _popcount_nearest(
            *(bits.sum(axis=1).astype(np.int64) for bits in (data, queries))
        )
        assert np.array_equal(result.payload.indices, want)

    def test_a_workload_without_compile_packed_cannot_be_instantiated(self):
        with pytest.raises(TypeError, match="compile_packed"):
            _Hollow()

    @staticmethod
    def _pass_sizes(monkeypatch):
        """Record the boards of every pass (a task's window) a worker
        runs, in order."""
        from repro.host.parallel import PartitionTask

        seen = []
        real = PartitionTask.window_list

        def spy(task):
            windows = real(task)
            seen.extend(len(boards) for _, _, boards in windows)
            return windows

        monkeypatch.setattr(PartitionTask, "window_list", spy)
        return seen

    @pytest.mark.parametrize("n_q", [1, 64])
    def test_a_run_of_boards_is_one_pass(self, n_q, monkeypatch):
        """Workers get a run of boards as one pass, which reports what
        one pass per board does."""
        data, _ = _data(n=24, d=8)
        queries = _data(n=24, d=8, n_queries=n_q, seed=5)[1]

        def engine():
            return WorkloadSearch(data, "knn", {"k": 3}, board_capacity=6,
                                  cache=True)

        with one_board_per_pass():
            ref = run_snapshot(engine(), queries)
        seen = self._pass_sizes(monkeypatch)
        got = run_snapshot(engine(), queries, searches=1)
        assert seen == [4]
        assert_snapshots_equal(got[:1], ref[:1], n_q)

    @staticmethod
    def _store(kind, data, tmp_path):
        """``data`` as an in-memory array (gathered passes) or a mapped
        ``.pds`` (view passes)."""
        if kind == "array":
            return data
        write_pds(tmp_path / "d.pds", data)
        return str(tmp_path / "d.pds")

    def test_one_board_per_pass_reaches_view_passes(self, tmp_path, monkeypatch):
        """The reference helper zeroes the one byte budget: a search over
        an array (whose passes gather words) or a mapped ``.pds`` (whose
        passes read the file in place) runs one pass per board under it,
        and one pass without it."""
        data, queries = _data(n=100, d=64)
        seen = self._pass_sizes(monkeypatch)
        for kind in ("array", "pds"):
            engine = WorkloadSearch(self._store(kind, data, tmp_path), "knn",
                                    {"k": 3},
                                    board_capacity=16)
            assert engine._view_passes() == (kind == "pds")
            seen.clear()
            with one_board_per_pass():
                engine.search(queries)
            assert seen == [1] * 7, kind
            seen.clear()
            engine.search(queries)
            assert seen == [7], kind

    @pytest.mark.parametrize("d", [64, 130])
    @pytest.mark.parametrize("n_q", [1, 8, 32, 256])
    def test_one_plan_for_every_store(self, n_q, d, tmp_path):
        """A pass is sized by its bytes and pairs alone: an array engine
        (gathered passes) and a ``.pds`` engine (view passes) over the
        same rows cut the same runs, whichever budget binds.  The runs
        are the tasks' windows: a kNN task spans a whole lane's shard."""
        data, _ = _data(n=(1 << 15) - 5, d=d)
        plans = []
        for kind in ("array", "pds"):
            engine = WorkloadSearch(self._store(kind, data, tmp_path), "knn",
                                    {"k": 3},
                                    board_capacity=512)
            per_pass = engine._boards_per_pass(n_q)
            tasks = engine._partition_tasks(per_pass)
            plans.append([(t.start + lo, t.start + hi)
                          for t in tasks for lo, hi, _ in t.window_list()])
        assert plans[0] == plans[1]

    @pytest.mark.parametrize("store", ["array", "pds"])
    @pytest.mark.parametrize("n_devices", [1, 3])
    def test_passes_split_each_shard_into_equal_runs(
        self, n_devices, store, tmp_path, monkeypatch
    ):
        """57 boards under a 14-board budget run as 5 near-equal passes,
        not four of 14 and a 1-board tail; a run never crosses a device
        shard, and every count the AP model reports (partitions,
        counters, image-cache hits, cache stats) equals the
        one-board-per-pass reference, over gathered and view passes."""
        data, queries = _data(n=57 * 16 - 5, d=64, n_queries=8)
        source = self._store(store, data, tmp_path)
        monkeypatch.setattr(wl_mod, "_PASS_BYTES", 14 * 16 * 8)

        def engine():
            return WorkloadSearch(source, "knn",
                                  {"k": 5},
                                  board_capacity=16, n_devices=n_devices,
                                  cache=True)

        eng = engine()
        assert eng._boards_per_pass(len(queries)) == 14
        tasks = eng._partition_tasks(14)
        bounds = eng.shard_bounds.tolist()
        for lo, hi, n_boards in zip(bounds, bounds[1:],
                                    eng.per_device_partitions):
            shard = [t for t in tasks if lo <= t.start < hi]
            assert len(shard) == 1  # kNN: one task per (lane, shard)
            runs = [len(b) for t in shard for _, _, b in t.window_list()]
            assert all(t.end <= hi for t in shard)
            assert sum(runs) == n_boards
            assert len(runs) == -(-n_boards // 14)
            assert max(runs) - min(runs) <= 1
        assert [t.start for t in tasks[1:]] == [t.end for t in tasks[:-1]]
        plan = [len(b) for t in tasks for _, _, b in t.window_list()]
        if n_devices == 1:
            assert len(plan) == 5

        with one_board_per_pass():
            ref = run_snapshot(engine(), queries)
        seen = self._pass_sizes(monkeypatch)
        got = run_snapshot(engine(), queries)
        assert seen == 2 * plan
        assert_snapshots_equal(got, ref, f"{store}, {n_devices} devices")

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("n_devices", [1, 3])
    def test_every_workload_runs_lane_tasks_of_windows(self, n_devices, lanes):
        """A task is one run of windows per (worker lane, device shard),
        the windows being the passes every workload cuts: kNN, Jaccard
        and range cut identical task lists."""
        data, queries = _data(n=57 * 16 - 5, d=64, n_queries=8)
        parallel = ParallelConfig(n_workers=lanes, backend="thread")

        def tasks(name, params):
            engine = WorkloadSearch(data, name, params, board_capacity=16,
                                    n_devices=n_devices, parallel=parallel)
            return engine, engine._partition_tasks(
                engine._boards_per_pass(len(queries))
            )

        knn, knn_tasks = tasks("knn", {"k": 5})
        windows = [(t.start + lo, t.start + hi)
                   for t in knn_tasks for lo, hi, _ in t.window_list()]
        bounds = knn.shard_bounds.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            shard = [t for t in knn_tasks if lo <= t.start < hi]
            n_windows = sum(1 for w in windows if lo <= w[0] < hi)
            assert len(shard) == min(lanes, n_windows)
            assert all(t.end <= hi for t in shard)

        def plan(tasks):
            return [(t.start, t.end, t.board_list(), t.windows) for t in tasks]

        for name, params in (("jaccard", {"k": 5}), ("range", {"radius": 20})):
            assert plan(tasks(name, params)[1]) == plan(knn_tasks), name

    @pytest.mark.parametrize("name,params", [
        ("knn", {"k": 5}), ("jaccard", {"k": 5}), ("range", {"radius": 24}),
        ("toy-popcount", {}),
    ], ids=["knn", "jaccard", "range", "toy-popcount"])
    def test_a_task_of_windows_answers_as_its_windows_merged(
        self, name, params, monkeypatch
    ):
        """An engine task of three windows gives the payload and every
        counter of its windows run as one-window tasks and merged with
        their offsets; a workload that does not carry merges once per
        task, never per window."""
        from dataclasses import replace

        data, queries = _data(n=96, d=64, n_queries=7)
        workload = PopcountNearest() if name == "toy-popcount" else get_workload(name)
        engine = WorkloadSearch(data, workload, params, board_capacity=16)
        (task,) = engine._partition_tasks(2)
        windows = task.window_list()
        assert len(windows) == 3
        partials, counters = [], RuntimeCounters()
        for lo, hi, boards in windows:
            one = replace(task, start=task.start + lo, end=task.start + hi,
                          dataset_bits=task.dataset_bits[lo:hi],
                          boards=boards, windows=())
            res = workload.execute_task(one, queries, None)
            partials.append(res.payload)
            counters.merge(res.counters)
        want = workload.merge(partials, [lo for lo, _, _ in windows],
                              engine.params)
        merges = []
        real_merge = workload.merge
        monkeypatch.setattr(workload, "merge",
                            lambda *a: merges.append(a) or real_merge(*a))
        got = workload.execute_task(task, queries, None)
        assert len(merges) == (0 if workload.carries else 1)
        assert got.passes == 3
        assert got.counters == counters
        _assert_value_equal(workload, got.payload, want)

    @pytest.mark.parametrize("name,params", [
        ("knn", {"k": 18}), ("jaccard", {"k": 18}), ("range", {"radius": 14}),
        ("toy-popcount", {}), ("overlap", {"k": 18}),
    ], ids=["knn", "jaccard", "range", "toy-popcount", "overlap"])
    def test_a_lone_partial_is_returned_unmerged(self, name, params, monkeypatch):
        """An engine whose plan is one task returns its partial without
        calling ``merge``, and that partial is what ``merge([p], [0])``
        gives, field for field and dtype for dtype — for the built-ins,
        the oracle's toy and ``examples/custom_workload.py``'s overlap,
        at k beyond n (13 rows, k = 18)."""
        import importlib.util
        from pathlib import Path

        if name == "overlap":
            path = Path(__file__).parents[2] / "examples" / "custom_workload.py"
            spec = importlib.util.spec_from_file_location("custom_workload", path)
            example = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(example)
            workload = example.OverlapTopkWorkload()
        elif name == "toy-popcount":
            workload = PopcountNearest()
        else:
            workload = get_workload(name)
        # Workers resolve a task's workload by name.
        monkeypatch.setitem(wl_mod._REGISTRY, workload.name, workload)
        data, queries = _data(n=13, d=33, n_queries=3)
        engine = WorkloadSearch(data, workload, params, board_capacity=5)
        (task,) = engine._partition_tasks(engine._boards_per_pass(len(queries)))
        assert len(task.window_list()) == 1 and (task.start, task.end) == (0, 13)
        lone = workload.execute_task(task, queries, None).payload
        merged = workload.merge([lone], [0], engine.params)
        merges = []
        monkeypatch.setattr(workload, "merge", lambda *a: merges.append(a))
        got = engine.search(queries).value
        assert merges == []
        for f in workload.wire_fields:
            g, m = getattr(got, f), getattr(merged, f)
            assert g.dtype == m.dtype and np.array_equal(g, m), (name, f)

    def test_a_non_bit_row_in_a_hand_built_task_raises(self):
        """Rows a store never validated are checked when a pass packs
        them, cached or not."""
        from repro.ap.compiler import BoardImageCache
        from repro.host.parallel import PartitionTask

        data, queries = _data(n=16, d=8)
        data[5, 3] = 2
        params = tuple(sorted(get_workload("knn").validate_params(
            {"k": 3}, 16, 8).items()))
        for cache, key in ((None, None), (BoardImageCache(), ("bad", "words"))):
            task = PartitionTask(p_idx=0, start=0, end=16, dataset_bits=data,
                                 cache_key=key, params=params)
            with pytest.raises(ValueError, match="only 0 and 1"):
                get_workload("knn").execute_task(task, queries, cache)
            assert cache is None or len(cache) == 0

    @pytest.mark.parametrize("n_q", [1, 8, 32])
    def test_gathered_passes_stay_within_their_memory(self, n_q):
        """A warm kNN search over an in-memory 2^16 x 64 array, whose
        passes concatenate up to ``_PASS_BYTES`` of cached words, peaks
        under 3 MiB at every batch size the byte budget governs."""
        import tracemalloc

        data, queries = _data(n=1 << 16, d=64, n_queries=n_q)
        engine = WorkloadSearch(data, "knn", {"k": 10}, cache=True)
        engine.search(queries)  # pack and cache every board's words
        tracemalloc.start()
        try:
            engine.search(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"{peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("name,params,bytes_per_pair", [
        ("jaccard", {"k": 10}, 24), ("range", {"radius": 12}, 32),
    ], ids=["jaccard", "range"])
    def test_large_jaccard_batch_stays_within_the_pair_budget(
        self, name, params, bytes_per_pair
    ):
        """q x rows per pass is capped, so an un-tiled ``execute``'s
        per-pair transients (Jaccard's ~13 B, range's ~9 B) never scale
        with the batch: a 256-row batch over 2^14 rows (2^22 pairs) runs
        4-board passes, not 32-board ones, and peaks under
        ``bytes_per_pair`` per budgeted pair (3.2 MiB for Jaccard
        against 18 MiB uncapped; 2.3 MiB for range against 18 MiB).
        Jaccard's bound also fails a return to ``(q, rows)`` float64
        similarities (~32 B per pair)."""
        import tracemalloc

        data, queries = _data(n=1 << 14, d=64, n_queries=256)
        engine = WorkloadSearch(data, name, params,
                                board_capacity=256, cache=True)
        assert engine._boards_per_pass(256) == 4
        engine.search(queries)  # compile outside the measured search
        tracemalloc.start()
        try:
            engine.search(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_pair * wl_mod._PASS_PAIRS, f"{peak / 2**20:.1f} MiB"


    @pytest.mark.parametrize("name", ["jaccard", "range"])
    def test_symbols_streamed_count_the_simulated_stream(self, name):
        """A served search prices exactly the stream its automata are
        simulated on: boards x queries x that stream's block length."""
        from repro.core.stream import encode_query_blocks

        data, queries = _data(n=40, d=16, n_queries=3)
        params = {"k": 4} if name == "jaccard" else {"radius": 5}
        _, block_length = get_workload(name).network(data, params)
        stream = encode_query_blocks(queries, block_length)
        for capacity, boards in ((40, 1), (16, 3)):
            result = WorkloadSearch(
                data, name, params, board_capacity=capacity
            ).search(queries)
            assert result.counters.symbols_streamed == boards * stream.size


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

    @pytest.mark.parametrize("name,params", [
        ("knn", {"k": 2}),
        ("jaccard", {"k": 2}),
        ("range", {"radius": 3}),
    ])
    def test_builtin_compile_and_execute_validate_before_narrowing(self, name, params):
        """Called directly with 0/1 arrays, as the stepwise replay of
        ``benchmarks/e2e`` calls them, a built-in's ``compile`` adapter
        and ``execute`` must reject 256 in the rows and 257 in a query,
        not wrap them to 0 and 1."""
        wl = get_workload(name)
        rows = np.zeros((4, 8), dtype=np.int64)
        rows[1, 2] = 256
        with pytest.raises(ValueError, match="only 0 and 1"):
            wl.compile(rows, params)
        artifact = wl.compile(np.zeros((4, 8), dtype=np.int64), params)
        query = np.zeros((1, 8), dtype=np.int64)
        query[0, 5] = 257
        with pytest.raises(ValueError, match="only 0 and 1"):
            wl.execute(artifact, query, params)

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
            artifact = workload.compile_packed(pack_bits(data[lo:hi]), d, part_params)
            partial, _ = workload.execute(artifact, pack_bits(queries), part_params)
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



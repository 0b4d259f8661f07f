"""Tests for top-k selection, the bounded priority queue, and merging."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util import topk as topk_mod
from repro.util.bitops import pack_bits
from repro.util.topk import (
    BoundedPriorityQueue,
    hamming_topk,
    merge_ragged_blocks,
    merge_topk,
    merge_topk_blocks,
    topk_from_distances,
)


def reference_topk(distances, k):
    order = sorted(range(len(distances)), key=lambda i: (distances[i], i))[:k]
    return order


class TestTopkFromDistances:
    def test_basic(self):
        idx, dist = topk_from_distances(np.array([5, 1, 3, 1]), 2)
        assert idx.tolist() == [1, 3]
        assert dist.tolist() == [1, 1]

    def test_boundary_ties_resolved_by_index(self):
        # Four entries tie at the k-th distance; the smallest indices win.
        d = np.array([2, 9, 2, 2, 2, 0])
        idx, _ = topk_from_distances(d, 3)
        assert idx.tolist() == [5, 0, 2]

    def test_k_clipped(self):
        idx, dist = topk_from_distances(np.array([3, 1]), 10)
        assert idx.tolist() == [1, 0]

    def test_k_zero(self):
        idx, dist = topk_from_distances(np.array([3, 1]), 0)
        assert idx.size == 0 and dist.size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            topk_from_distances(np.zeros((2, 2)), 1)

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=60),
        st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference(self, values, k):
        d = np.array(values)
        idx, dist = topk_from_distances(d, k)
        assert idx.tolist() == reference_topk(values, k)
        assert (dist == d[idx]).all()


class TestBoundedPriorityQueue:
    def test_keeps_k_smallest(self):
        pq = BoundedPriorityQueue(3)
        for i, d in enumerate([9, 2, 7, 1, 8, 3]):
            pq.push(d, i)
        assert pq.sorted_items() == [(3, 1.0), (1, 2.0), (5, 3.0)]

    def test_worst_distance_tracks_heap_top(self):
        pq = BoundedPriorityQueue(2)
        assert pq.worst_distance == float("inf")
        pq.push(5, 0)
        assert pq.worst_distance == float("inf")  # still under capacity
        pq.push(3, 1)
        assert pq.worst_distance == 5
        pq.push(1, 2)
        assert pq.worst_distance == 3

    def test_tie_break_prefers_smaller_index(self):
        pq = BoundedPriorityQueue(1)
        pq.push(4, 7)
        kept = pq.push(4, 2)  # same distance, smaller index: replaces
        assert kept
        assert pq.sorted_items() == [(2, 4.0)]
        assert not pq.push(4, 9)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(0)

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=60),
        st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_topk(self, values, k):
        pq = BoundedPriorityQueue(k)
        for i, d in enumerate(values):
            pq.push(d, i)
        got = [i for i, _ in pq.sorted_items()]
        assert got == reference_topk(values, k)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=80),
        st.integers(1, 10),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_with_topk_from_distances_under_ties(self, values, k, rnd):
        """Both selectors implement the same (distance, index) tie-break.

        Distances are drawn from {0..3} so duplicate distances dominate,
        and insertion order is shuffled so heap eviction order cannot
        accidentally mirror index order.
        """
        distances = np.array(values, dtype=np.int64)
        exp_idx, exp_dist = topk_from_distances(distances, k)

        order = list(range(len(values)))
        rnd.shuffle(order)
        pq = BoundedPriorityQueue(k)
        for i in order:
            pq.push(values[i], i)
        items = pq.sorted_items()
        assert [i for i, _ in items] == exp_idx.tolist()
        assert [d for _, d in items] == exp_dist.tolist()


class TestMergeTopk:
    def test_merges_partitions(self):
        p1 = (np.array([0, 3]), np.array([5, 2]))
        p2 = (np.array([7, 9]), np.array([1, 5]))
        idx, dist = merge_topk([p1, p2], 3)
        assert idx.tolist() == [7, 3, 0]
        assert dist.tolist() == [1, 2, 5]

    def test_tie_break_across_partitions(self):
        p1 = (np.array([8]), np.array([4]))
        p2 = (np.array([2]), np.array([4]))
        idx, _ = merge_topk([p1, p2], 1)
        assert idx.tolist() == [2]

    def test_empty(self):
        idx, dist = merge_topk([], 5)
        assert idx.size == 0

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 99), st.integers(0, 20)), max_size=10),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalent_to_global_sort(self, partition_data, k):
        partials, flat = [], []
        for part in partition_data:
            if not part:
                continue
            idx = np.array([i for i, _ in part], dtype=np.int64)
            dist = np.array([d for _, d in part])
            partials.append((idx, dist))
            flat.extend(part)
        got_idx, got_dist = merge_topk(partials, k)
        expected = sorted(flat, key=lambda t: (t[1], t[0]))[:k]
        assert got_idx.tolist() == [i for i, _ in expected]
        assert got_dist.tolist() == [d for _, d in expected]


class TestMergeTopkBatch:
    """The batched (q, m) merge of merge_topk_blocks ≡ per-query
    merge_topk, pads included."""

    @given(
        st.integers(1, 6),  # q
        st.integers(1, 12),  # m (candidate columns)
        st.integers(1, 15),  # k (can exceed m)
        st.integers(0, 500),
        st.floats(0.0, 0.9),  # pad density
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_per_query_merge(self, q, m, k, seed, pad_frac):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 200, (q, m)).astype(np.int64)
        dist = rng.integers(0, 5, (q, m)).astype(np.int64)  # heavy ties
        pads = rng.random((q, m)) < pad_frac
        idx[pads] = -1
        dist[pads] = -1
        got_idx, got_dist = merge_topk_blocks([(idx, dist)], k)
        assert got_idx.shape == got_dist.shape == (q, k)
        for qi in range(q):
            valid = idx[qi] != -1
            exp_i, exp_d = merge_topk([(idx[qi][valid], dist[qi][valid])], k)
            found = exp_i.shape[0]
            assert got_idx[qi, :found].tolist() == exp_i.tolist()
            assert got_dist[qi, :found].tolist() == exp_d.tolist()
            assert (got_idx[qi, found:] == -1).all()
            assert (got_dist[qi, found:] == -1).all()

    def test_duplicate_candidates_both_kept(self):
        # merge_topk keeps duplicates too; the batch path must agree
        idx = np.array([[4, 4, 1]])
        dist = np.array([[2, 2, 3]])
        got_idx, got_dist = merge_topk_blocks([(idx, dist)], 2)
        assert got_idx.tolist() == [[4, 4]]
        assert got_dist.tolist() == [[2, 2]]

    def test_all_pads_row(self):
        idx = np.array([[-1, -1], [3, -1]])
        dist = np.array([[-1, -1], [0, -1]])
        got_idx, got_dist = merge_topk_blocks([(idx, dist)], 2)
        assert got_idx.tolist() == [[-1, -1], [3, -1]]
        assert got_dist.tolist() == [[-1, -1], [0, -1]]

    def test_custom_pad_values(self):
        idx = np.array([[5]])
        dist = np.array([[1]])
        got_idx, got_dist = merge_topk_blocks(
            [(idx, dist)], 3, pad_index=-1, pad_distance=-7
        )
        assert got_idx.tolist() == [[5, -1, -1]]
        assert got_dist.tolist() == [[1, -7, -7]]

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-shape"):
            merge_topk_blocks([(np.zeros((2, 3)), np.zeros((2, 2)))], 1)
        with pytest.raises(ValueError, match="equal-shape"):
            merge_topk_blocks([(np.zeros((1, 3, 1)), np.zeros((1, 3, 1)))], 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            merge_topk_blocks([(np.zeros((1, 2)), np.zeros((1, 2)))], 0)


class TestMergeRaggedBlocks:
    """The ragged sibling of merge_topk_blocks: union of hit lists."""

    def test_rebases_and_sorts_ascending(self):
        b1 = (np.array([[2, 0]]), np.array([[5, 3]]))
        b2 = (np.array([[1]]), np.array([[7]]))
        idx, val, counts = merge_ragged_blocks([b1, b2], offsets=[0, 10])
        assert idx.tolist() == [[0, 2, 11]]
        assert val.tolist() == [[3, 5, 7]]
        assert counts.tolist() == [3]

    def test_pads_never_become_offsets(self):
        # a pad slot in an offset block must stay -1, not become off-1
        b1 = (np.array([[3, -1]]), np.array([[2, -1]]))
        idx, val, counts = merge_ragged_blocks([b1], offsets=[100])
        assert idx.tolist() == [[103]]
        assert val.tolist() == [[2]]
        assert counts.tolist() == [1]

    def test_ragged_rows_trim_to_widest(self):
        b1 = (np.array([[1, 2], [-1, -1]]), np.array([[0, 0], [-1, -1]]))
        b2 = (np.array([[5, -1], [7, -1]]), np.array([[1, -1], [1, -1]]))
        idx, val, counts = merge_ragged_blocks([b1, b2])
        assert idx.shape == (2, 3)
        assert idx.tolist() == [[1, 2, 5], [7, -1, -1]]
        assert counts.tolist() == [3, 1]

    def test_zero_width_everywhere(self):
        b = (np.empty((3, 0), dtype=np.int64), np.empty((3, 0), dtype=np.int64))
        idx, val, counts = merge_ragged_blocks([b, b], offsets=[0, 5])
        assert idx.shape == (3, 0)
        assert counts.tolist() == [0, 0, 0]

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_ragged_blocks([])
        b = (np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="offsets"):
            merge_ragged_blocks([b], offsets=[0, 1])
        with pytest.raises(ValueError, match="indices"):
            merge_ragged_blocks([(np.zeros((2, 2)), np.zeros((2, 1)))])
        with pytest.raises(ValueError, match="query rows"):
            merge_ragged_blocks([b, (np.zeros((3, 1)), np.zeros((3, 1)))])

    @staticmethod
    def _random_block(rng, q, n_block, pad_frac):
        width = int(rng.integers(0, 6))
        idx = rng.integers(0, n_block, (q, width)).astype(np.int64)
        val = rng.integers(0, 9, (q, width)).astype(np.int64)
        pads = rng.random((q, width)) < pad_frac
        idx[pads] = -1
        val[pads] = -1
        return idx, val

    @given(
        st.integers(1, 4),  # q
        st.integers(1, 5),  # blocks
        st.integers(0, 500),
        st.floats(0.0, 0.8),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_row_reference(self, q, n_blocks, seed, pad_frac):
        rng = np.random.default_rng(seed)
        blocks = [self._random_block(rng, q, 50, pad_frac)
                  for _ in range(n_blocks)]
        offsets = (rng.integers(0, 1000, n_blocks) * 1).tolist()
        idx, val, counts = merge_ragged_blocks(blocks, offsets=offsets)
        for qi in range(q):
            # stable sort on index only: duplicate indices keep the
            # block-concatenation order, matching the kernel's argsort
            expected = sorted(
                (
                    (int(bi[qi, c]) + off, int(bv[qi, c]))
                    for (bi, bv), off in zip(blocks, offsets)
                    for c in range(bi.shape[1])
                    if bi[qi, c] != -1
                ),
                key=lambda pair: pair[0],
            )
            got = list(zip(idx[qi, : counts[qi]].tolist(),
                           val[qi, : counts[qi]].tolist()))
            assert got == expected
            assert (idx[qi, counts[qi]:] == -1).all()
            assert (val[qi, counts[qi]:] == -1).all()

    @given(st.integers(2, 5), st.integers(0, 300),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_associative_and_order_invariant(self, n_blocks, seed, rnd):
        rng = np.random.default_rng(seed)
        q = 3
        blocks = [self._random_block(rng, q, 40, 0.3)
                  for _ in range(n_blocks)]
        # distinct offsets so the union has no cross-block duplicates
        # and the merged order is unambiguous
        offsets = [100 * bi for bi in range(n_blocks)]
        flat = merge_ragged_blocks(blocks, offsets=offsets)

        cut = max(1, n_blocks // 2)
        left = merge_ragged_blocks(blocks[:cut], offsets=offsets[:cut])
        right = merge_ragged_blocks(blocks[cut:], offsets=offsets[cut:])
        tree = merge_ragged_blocks(
            [left[:2], right[:2]], offsets=[0, 0]
        )
        for a, b in zip(tree, flat):
            assert (a == b).all()

        order = list(range(n_blocks))
        rnd.shuffle(order)
        shuffled = merge_ragged_blocks(
            [blocks[i] for i in order], offsets=[offsets[i] for i in order]
        )
        for a, b in zip(shuffled, flat):
            assert (a == b).all()


def _carried(query_words, words, k, d, cuts, pad=0):
    """``hamming_topk`` over the row windows between ``cuts``, each call
    carrying the block of the windows before it, padded ``pad`` slots
    wider with ``(-1, -1)``."""
    prior = None
    for lo, hi in zip(cuts, cuts[1:]):
        if prior is not None and pad:
            prior = tuple(
                np.pad(a, ((0, 0), (0, pad)), constant_values=-1) for a in prior
            )
        prior = hamming_topk(query_words, words[lo:hi], k, d, prior=prior, base=lo)
    return prior


class TestCarriedHammingTopk:
    """A scan's later windows answer as a threshold filter: carrying the
    running block through ``prior=`` equals one unbounded call over the
    concatenated rows, bit for bit."""

    @given(
        d=st.sampled_from([33, 64, 70, 130]),
        n=st.integers(2, 40),
        q=st.integers(1, 4),
        k=st.integers(1, 48),  # often past the rows seen
        pool=st.integers(1, 4),  # distinct rows: later rows sit at dist == b
        pad=st.integers(0, 3),
        seed=st.integers(0, 2**16),
        inner=st.sets(st.integers(1, 39), max_size=4),  # window cuts
    )
    # a short block (k past the rows seen) bounds nothing
    @example(d=33, n=13, q=2, k=18, pool=4, pad=0, seed=0, inner={5, 10})
    # nor does a block whose k-th slot is a pad
    @example(d=70, n=12, q=1, k=4, pool=1, pad=3, seed=0, inner={2})
    @settings(max_examples=150, deadline=None)
    def test_equals_one_call_over_all_rows(self, d, n, q, k, pool, pad, seed, inner):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, (pool, d), dtype=np.uint8)
        rows = patterns[rng.integers(0, pool, n)]
        query_words = pack_bits(rng.integers(0, 2, (q, d), dtype=np.uint8))
        words = pack_bits(rows)
        cuts = [0, *sorted(c for c in inner if c < n), n]
        want = hamming_topk(query_words, words, k, d)
        got = _carried(query_words, words, k, d, cuts, pad)
        assert np.array_equal(got[0], want[0]), cuts
        assert np.array_equal(got[1], want[1]), cuts

    def test_rows_at_the_bound_lose_the_tie(self):
        """Every later row repeats an earlier one: each sits exactly at
        its query's carried k-th distance, and none may displace it."""
        rng = np.random.default_rng(3)
        rows = np.tile(rng.integers(0, 2, (6, 70), dtype=np.uint8), (4, 1))
        query_words = pack_bits(rng.integers(0, 2, (3, 70), dtype=np.uint8))
        words = pack_bits(rows)
        for k in (1, 4, 6, 7, 24, 30):
            got = _carried(query_words, words, k, 70, [0, 6, 12, 18, 24])
            want = hamming_topk(query_words, words, k, 70)
            assert np.array_equal(got[0], want[0]), k
            assert np.array_equal(got[1], want[1]), k
            # a copy is kept only behind its original
            for kept in got[0].tolist():
                assert all(i < 6 or i - 6 in kept for i in kept), k

    def test_key_width_follows_the_rows_seen(self, monkeypatch):
        """Keys index every row seen so far, not just the window's:
        with the uint32 limit patched between the two, a uint32 key
        block past the limit fails the spy."""
        d, n, m = 64, 400, 100
        rng = np.random.default_rng(5)
        words = pack_bits(rng.integers(0, 2, (n, d), dtype=np.uint8))
        query_words = pack_bits(rng.integers(0, 2, (4, d), dtype=np.uint8))
        want = hamming_topk(query_words, words, 200, d)
        limit = (d + 1) * m + 1  # a window's keys fit, the scan's do not
        real = topk_mod._select_smallest

        def narrow(keys, k, stride, out=(None, None)):
            assert keys.dtype != np.uint32 or int(keys.max()) < limit
            return real(keys, k, stride, out)

        monkeypatch.setattr(topk_mod, "_KEY32_LIMIT", limit)
        monkeypatch.setattr(topk_mod, "_select_smallest", narrow)
        got = _carried(query_words, words, 200, d, list(range(0, n + 1, m)))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def _jaccard_carried(rows, queries, k, cuts, pad=0):
    """Jaccard's ``execute`` over the row windows between ``cuts``, each
    call carrying the partial of the windows before it, padded ``pad``
    slots wider with ``(-1, -1.0, -1)``; and one unbounded call over all
    the rows."""
    from repro.core.workload import get_workload

    workload, d = get_workload("jaccard"), rows.shape[1]
    query_words = pack_bits(queries)

    def run(lo, hi, prior=None):
        artifact = workload.compile_packed(pack_bits(rows[lo:hi]), d, {})
        return workload.execute(
            artifact, query_words, {"k": k}, prior=prior, base=lo
        )[0]

    prior = None
    for lo, hi in zip(cuts, cuts[1:]):
        if prior is not None and pad:
            prior = type(prior)(*(
                np.pad(getattr(prior, f), ((0, 0), (0, pad)), constant_values=-1)
                for f in workload.wire_fields
            ))
        prior = run(lo, hi, prior)
    return prior, run(0, len(rows)), workload.wire_fields


class TestCarriedJaccard:
    """Jaccard's later windows answer as a threshold filter under each
    query's carried k-th fraction: carrying the running partial through
    ``prior=`` equals one unbounded call over the concatenated rows,
    field for field and dtype for dtype."""

    @staticmethod
    def _assert_equal(got, want, fields, note):
        for f in fields:
            a, b = getattr(got, f), getattr(want, f)
            assert a.dtype == b.dtype and np.array_equal(a, b), (f, note)

    @given(
        # the int16 / int32 filter tiers meet at 127 | 128, the float32 /
        # integer key tiers at 255 | 256
        d=st.sampled_from([1, 33, 64, 104, 105, 127, 128, 255, 256, 300]),
        n=st.integers(2, 40),
        q=st.integers(1, 4),
        k=st.integers(1, 48),  # often past the rows seen
        pool=st.integers(1, 4),  # distinct rows: later rows tie the bound
        density=st.sampled_from([0.1, 0.5, 0.9]),
        empty_row=st.booleans(),
        empty_query=st.booleans(),
        pad=st.integers(0, 2),
        seed=st.integers(0, 2**16),
        inner=st.sets(st.integers(1, 39), max_size=4),  # window cuts
    )
    # an empty query's k-th row is at similarity 0: a later empty row
    # (U = 0, similarity 1) still enters
    @example(d=64, n=8, q=2, k=2, pool=3, density=0.5, empty_row=True,
             empty_query=True, pad=0, seed=4, inner={5})
    # a short block (k past the rows seen) bounds nothing, nor does a
    # block whose k-th slot is a pad
    @example(d=33, n=13, q=2, k=18, pool=4, density=0.5, empty_row=False,
             empty_query=False, pad=0, seed=0, inner={5, 10})
    @example(d=105, n=12, q=1, k=4, pool=1, density=0.5, empty_row=False,
             empty_query=False, pad=2, seed=0, inner={2})
    @settings(max_examples=300, deadline=None)
    def test_equals_one_call_over_all_rows(
        self, d, n, q, k, pool, density, empty_row, empty_query, pad, seed,
        inner,
    ):
        rng = np.random.default_rng(seed)
        patterns = (rng.random((pool, d)) < density).astype(np.uint8)
        if empty_row:
            patterns[-1] = 0
        rows = patterns[rng.integers(0, pool, n)]
        if empty_row:
            rows[-1] = 0
        queries = (rng.random((q, d)) < density).astype(np.uint8)
        if empty_query:
            queries[0] = 0
        cuts = [0, *sorted(c for c in inner if c < n), n]
        got, want, fields = _jaccard_carried(rows, queries, k, cuts, pad)
        self._assert_equal(got, want, fields, cuts)

    def test_matches_exact_fractions_over_random_windows(self):
        """Against a ``Fraction`` brute force: (descending I/U, ascending
        row), an empty query meeting an empty row at similarity 1."""
        from fractions import Fraction

        rng = np.random.default_rng(11)
        for d in (1, 33, 64, 128, 256):
            rows = (rng.random((30, d)) < rng.random((30, 1))).astype(np.uint8)
            rows[[4, 17, 29]] = 0
            rows[20:26] = rows[0]
            queries = (rng.random((4, d)) < 0.5).astype(np.uint8)
            queries[0] = 0
            inter = queries.astype(int) @ rows.T.astype(int)
            union = queries.sum(1)[:, None] + rows.sum(1) - inter
            for k in (1, 3, 8, 30):
                got, _, _ = _jaccard_carried(rows, queries, k, [0, 7, 15, 21, 30])
                for i in range(len(queries)):
                    sims = [Fraction(int(a), int(b)) if b else Fraction(1)
                            for a, b in zip(inter[i], union[i])]
                    order = sorted(range(30), key=lambda r: (-sims[r], r))[:k]
                    assert got.indices[i].tolist() == order, (d, k, i)
                    assert got.intersections[i].tolist() == inter[i, order].tolist()
                    assert got.similarities[i].tolist() == [float(sims[r]) for r in order]

    @pytest.mark.parametrize("d,inter,union", [(105, 11, 15), (300, 7, 10)])
    def test_carried_fractions_are_exact_where_floats_round_down(
        self, d, inter, union
    ):
        """``d²·I/U`` is an integer but ``d²`` times the float ``I/U``
        lands just below it: the carried row must keep its exact key and
        stay ahead of its later copy."""
        query = np.zeros((1, d), dtype=np.uint8)
        query[0, :union] = 1
        rows = np.zeros((3, d), dtype=np.uint8)
        rows[0, :inter] = 1  # I/U, carried
        rows[1, :1] = 1  # 1/U, the carried k-th
        rows[2] = rows[0]  # I/U again, later
        got, want, fields = _jaccard_carried(rows, query, 2, [0, 2, 3])
        self._assert_equal(got, want, fields, d)
        assert got.indices.tolist() == [[0, 2]]

    def test_rows_at_the_bound_lose_the_tie(self):
        """Every later row repeats an earlier one: each sits exactly at
        its query's carried k-th fraction, and none may displace it."""
        rng = np.random.default_rng(3)
        rows = np.tile((rng.random((6, 70)) < 0.5).astype(np.uint8), (4, 1))
        queries = (rng.random((3, 70)) < 0.5).astype(np.uint8)
        for k in (1, 4, 6, 7, 24, 30):
            got, want, fields = _jaccard_carried(rows, queries, k, [0, 6, 12, 18, 24])
            self._assert_equal(got, want, fields, k)
            # a copy is kept only behind its original
            for kept in got.indices.tolist():
                assert all(i < 6 or i - 6 in kept for i in kept), k

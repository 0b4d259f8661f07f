"""Unit + property tests for bit packing and Hamming distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitops import (
    _CDIST_QUERY_TILE,
    default_cdist_tile,
    hamming_cdist_packed,
    is_binary,
    pack_bits,
    popcount_cdist,
    popcount_u64,
    unpack_bits,
)
from repro.util.topk import hamming_topk


def random_binary_vectors(n: int, d: int, seed=None) -> np.ndarray:
    """Uniform random unpacked binary vectors of shape ``(n, d)``."""
    return np.random.default_rng(seed).integers(0, 2, size=(n, d), dtype=np.uint8)


class TestPackUnpack:
    def test_roundtrip_basic(self):
        bits = np.array([[1, 0, 1, 1, 0]], dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (1, 1)
        assert (unpack_bits(packed, 5) == bits).all()

    def test_bit_positions_little_endian(self):
        bits = np.zeros((1, 64), dtype=np.uint8)
        bits[0, 0] = 1
        assert pack_bits(bits)[0, 0] == 1
        bits = np.zeros((1, 64), dtype=np.uint8)
        bits[0, 63] = 1
        assert pack_bits(bits)[0, 0] == np.uint64(1) << np.uint64(63)

    def test_multi_word(self):
        bits = np.ones((2, 130), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (2, 3)
        assert (unpack_bits(packed, 130) == bits).all()

    def test_1d_input_promoted(self):
        packed = pack_bits(np.array([1, 1, 0], dtype=np.uint8))
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 3

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            pack_bits(np.array([[0, 2]], dtype=np.uint8))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_unpack_d_too_large(self):
        with pytest.raises(ValueError, match="exceeds capacity"):
            unpack_bits(np.zeros((1, 1), dtype=np.uint64), 65)

    @given(st.integers(1, 8), st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n, d, seed):
        bits = random_binary_vectors(n, d, seed)
        assert (unpack_bits(pack_bits(bits), d) == bits).all()


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 0xFF, 2**64 - 1], dtype=np.uint64)
        assert popcount_u64(words).tolist() == [0, 1, 2, 8, 64]

    def test_shape_preserved(self):
        words = np.zeros((3, 4), dtype=np.uint64)
        assert popcount_u64(words).shape == (3, 4)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_matches_python_bitcount(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = [int(v).bit_count() for v in values]
        assert popcount_u64(words).tolist() == expected

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_count_matches_python_bitcount(self, values):
        """The kernels' popcount, ``np.bitwise_count``, against a
        pure-Python ``int.bit_count`` reference, in its narrow dtype."""
        words = np.array(values, dtype=np.uint64)
        counts = np.bitwise_count(words)
        assert counts.dtype == np.uint8
        assert counts.tolist() == [int(v).bit_count() for v in values]


class TestHammingDistance:
    def test_zero_distance(self):
        pa = pack_bits(random_binary_vectors(4, 40, 0))
        assert (np.diag(hamming_cdist_packed(pa, pa)) == 0).all()

    def test_max_distance(self):
        a = np.zeros((1, 70), dtype=np.uint8)
        b = np.ones((1, 70), dtype=np.uint8)
        assert hamming_cdist_packed(pack_bits(a), pack_bits(b))[0, 0] == 70

    def test_packed_matches_unpacked(self):
        a = random_binary_vectors(10, 100, 1)
        b = random_binary_vectors(10, 100, 2)
        assert (
            np.diag(hamming_cdist_packed(pack_bits(a), pack_bits(b)))
            == np.count_nonzero(a != b, axis=-1)
        ).all()

    def test_cdist_matches_rowwise(self):
        a = random_binary_vectors(5, 33, 3)
        b = random_binary_vectors(7, 33, 4)
        cd = hamming_cdist_packed(pack_bits(a), pack_bits(b))
        assert cd.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert cd[i, j] == np.count_nonzero(a[i] != b[j], axis=-1)

    def test_cdist_word_mismatch(self):
        with pytest.raises(ValueError, match="word-count mismatch"):
            hamming_cdist_packed(
                np.zeros((1, 1), dtype=np.uint64), np.zeros((2, 2), dtype=np.uint64)
            )

    @pytest.mark.parametrize("dq,dn", [(64, 128), (128, 64)])
    def test_popcount_cdist_word_mismatch(self, dq, dn):
        """Fewer query words than dataset words used to answer from the
        shared words alone; more used to fail with an IndexError."""
        queries = pack_bits(np.ones((2, dq), dtype=np.uint8))
        dataset = pack_bits(np.zeros((3, dn), dtype=np.uint8))
        shapes = rf"\(2, {dq // 64}\) vs \(3, {dn // 64}\)"
        with pytest.raises(ValueError, match=f"word-count mismatch: {shapes}"):
            popcount_cdist(queries, dataset)
        with pytest.raises(ValueError, match=f"word-count mismatch: {shapes}"):
            hamming_cdist_packed(queries, dataset)

    def test_distances_past_uint16(self):
        """64 * 1025 = 65 600 bits, every one different: the accumulator
        must widen to uint32 rather than wrap to 64."""
        d = 64 * 1025
        queries = pack_bits(np.ones((2, d), dtype=np.uint8))
        dataset = pack_bits(np.zeros((3, d), dtype=np.uint8))
        narrow = popcount_cdist(queries, dataset)
        assert narrow.dtype == np.uint32 and (narrow == d).all()
        assert (hamming_cdist_packed(queries, dataset, tile_q=1) == d).all()
        # the auto tile budgets 9 B of transients + a 4-byte accumulator
        n = 2**20
        assert default_cdist_tile(n, 1025) == (32 * 2**20) // (13 * n)
        assert default_cdist_tile(n, 1024) == (32 * 2**20) // (11 * n)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 150), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_cdist_symmetry_and_triangle(self, na, nb, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, (na, d), dtype=np.uint8)
        b = rng.integers(0, 2, (nb, d), dtype=np.uint8)
        ab = hamming_cdist_packed(pack_bits(a), pack_bits(b))
        ba = hamming_cdist_packed(pack_bits(b), pack_bits(a))
        assert (ab == ba.T).all()
        assert (ab >= 0).all() and (ab <= d).all()


class TestTiledCdist:
    """tile_q / out must never change results, only peak memory."""

    @given(
        st.integers(1, 24),  # q
        st.integers(1, 40),  # n
        st.integers(1, 150),  # d
        st.integers(1, 30),  # tile_q
        st.integers(0, 500),
        st.booleans(),  # heavy distance ties: constant dataset rows
    )
    @settings(max_examples=40, deadline=None)
    def test_tiled_matches_untiled(self, q, n, d, tile_q, seed, tie_heavy):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, (q, d), dtype=np.uint8)
        b = rng.integers(0, 2, (n, d), dtype=np.uint8)
        if tie_heavy:
            b[:] = b[0]  # every dataset vector at the same distance
        qp, bp = pack_bits(a), pack_bits(b)
        full = hamming_cdist_packed(qp, bp, tile_q=q)
        tiled = hamming_cdist_packed(qp, bp, tile_q=tile_q)
        assert tiled.dtype == np.int64
        assert (tiled == full).all()

    def test_out_buffer_reused(self):
        a = pack_bits(random_binary_vectors(4, 70, 0))
        b = pack_bits(random_binary_vectors(9, 70, 1))
        out = np.empty((4, 9), dtype=np.int64)
        got = hamming_cdist_packed(a, b, out=out)
        assert got is out
        assert (got == hamming_cdist_packed(a, b)).all()

    def test_out_shape_and_dtype_validated(self):
        a = pack_bits(random_binary_vectors(2, 8, 0))
        b = pack_bits(random_binary_vectors(3, 8, 1))
        with pytest.raises(ValueError, match="shape"):
            hamming_cdist_packed(a, b, out=np.empty((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="int64"):
            hamming_cdist_packed(a, b, out=np.empty((2, 3), dtype=np.int32))

    def test_rejects_bad_tile(self):
        a = pack_bits(random_binary_vectors(2, 8, 0))
        with pytest.raises(ValueError, match="tile_q"):
            hamming_cdist_packed(a, a, tile_q=0)

    def test_default_tile_bounded_and_positive(self):
        # tiny dataset: whole batch in one tile
        assert default_cdist_tile(4, 1) >= 4
        # paper-scale dataset: tile bounded well below the query count
        tile = default_cdist_tile(2**20, 4)
        assert 1 <= tile < 1024
        # even absurd n never drops below one row
        assert default_cdist_tile(2**40, 64) == 1


# Word-count and accumulator boundaries: d = 191..193 straddles w = 3 -> 4,
# where the narrow kernel's accumulator goes uint8 -> uint16.
_BOUNDARY_DIMS = [1, 63, 64, 65, 191, 192, 193, 255, 256, 257, 1000]


class TestIsBinary:
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_, np.int8, np.int64, np.float64])
    def test_accepts_zero_one_of_any_dtype(self, dtype):
        assert is_binary(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert pack_bits(np.array([[1, 0, 1]], dtype=dtype))[0, 0] == 5

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0, 2]], dtype=np.uint8),
            np.array([[0, 255]], dtype=np.uint8),
            np.array([[0, -1]], dtype=np.int64),
            np.array([[1, 2]], dtype=np.int64),
            np.array([[0, 256]], dtype=np.int64),  # would wrap to 0 as uint8
            np.array([[0.5, 1.0]]),
            np.array([[np.nan, 1.0]]),
        ],
    )
    def test_rejects_everything_else(self, bad):
        assert not is_binary(bad)
        with pytest.raises(ValueError, match="only 0 and 1"):
            pack_bits(bad)

    def test_empty_is_binary(self):
        assert is_binary(np.empty((0, 8), dtype=np.uint8))
        assert is_binary(np.empty((0,), dtype=np.float64))
        assert pack_bits(np.empty((0, 70), dtype=np.uint8)).shape == (0, 2)

    @given(
        st.sampled_from([np.uint8, np.int16, np.int64, np.float32]),
        st.lists(st.integers(-2, 3), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_accept_set_as_isin(self, dtype, values):
        arr = np.array(values).astype(dtype)  # uint8 wraps negatives, as callers do
        assert is_binary(arr) == bool(np.isin(arr, (0, 1)).all())


class TestPackBitsLayout:
    @given(st.integers(1, 6), st.sampled_from(_BOUNDARY_DIMS + [7, 9, 100]),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_zero_tail(self, n, d, seed, as_bool):
        bits = random_binary_vectors(n, d, seed)
        packed = pack_bits(bits.astype(bool) if as_bool else bits)
        assert packed.dtype == np.uint64 and packed.shape == (n, (d + 63) // 64)
        assert (unpack_bits(packed, d) == bits).all()
        # pad bits beyond d are zero: a row's popcount is its bit count
        assert (popcount_u64(packed).sum(axis=1) == bits.sum(axis=1)).all()

    def test_readonly_and_strided_inputs(self):
        bits = random_binary_vectors(12, 100, 5)
        frozen = bits.copy()
        frozen.setflags(write=False)
        assert (pack_bits(frozen) == pack_bits(bits)).all()
        wide = random_binary_vectors(12, 200, 6)
        assert (pack_bits(wide[::2, ::2]) == pack_bits(wide[::2, ::2].copy())).all()


# (n, d): the word-count boundaries at small n, plus 2-5-word rows over
# pass-sized partitions (n >= 4096), where the kernel reads word columns.
_KERNEL_SHAPES = st.one_of(
    st.tuples(st.integers(1, 33), st.sampled_from(_BOUNDARY_DIMS)),
    st.tuples(st.integers(4096, 4200), st.integers(65, 320)),
)


class TestNarrowKernel:
    @given(
        st.integers(1, 9),  # q
        _KERNEL_SHAPES,
        st.integers(1, 10),  # tile_q
        st.integers(0, 10_000),
        st.sampled_from(["contiguous", "strided", "readonly"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_unpacked_distances(self, q, shape, tile_q, seed, layout):
        n, d = shape
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, (q, d), dtype=np.uint8)
        b = rng.integers(0, 2, (n, d), dtype=np.uint8)
        b[0] = 1 - a[0]  # distance d: the accumulator's maximum
        expected = np.count_nonzero(a[:, None, :] != b[None, :, :], axis=-1)
        qp, bp = pack_bits(a), pack_bits(b)
        if layout == "strided":  # every other row and word of a larger array
            big = np.zeros((2 * n, 2 * bp.shape[1]), dtype=np.uint64)
            big[::2, ::2] = bp
            bp = big[::2, ::2]
            assert n == 1 or not bp.flags.c_contiguous
        elif layout == "readonly":
            bp.setflags(write=False)
        narrow = popcount_cdist(qp, bp)
        assert narrow.dtype == (np.uint8 if bp.shape[1] <= 3 else np.uint16)
        assert (narrow == expected).all()
        wide = hamming_cdist_packed(qp, bp, tile_q=tile_q)
        assert wide.dtype == np.int64 and (wide == expected).all()

    def test_mmap_backed_dataset(self, tmp_path):
        bits = random_binary_vectors(50, 193, 7)
        path = tmp_path / "packed.bin"
        pack_bits(bits).tofile(path)
        mapped = np.memmap(path, dtype=np.uint64, mode="r", shape=(50, 4))
        queries = random_binary_vectors(3, 193, 8)
        expected = np.count_nonzero(queries[:, None, :] != bits[None, :, :], axis=-1)
        assert (popcount_cdist(pack_bits(queries), mapped) == expected).all()
        assert (hamming_cdist_packed(pack_bits(queries), mapped) == expected).all()

    def test_and_op_counts_intersections(self):
        a = random_binary_vectors(4, 130, 1)
        b = random_binary_vectors(9, 130, 2)
        inter = popcount_cdist(pack_bits(a), pack_bits(b), np.bitwise_and)
        assert (inter == (a[:, None, :] & b[None, :, :]).sum(axis=-1)).all()


TILE = _CDIST_QUERY_TILE


class TestQueryTiledKernel:
    """The one-word kernel runs in query tiles; no tile may change a
    value or a dtype, for any op, accumulator tier or input layout."""

    @given(
        st.sampled_from((1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1)),  # q
        st.sampled_from((0, 1, 7, 33)),  # m
        st.sampled_from((1, 4, 5, 1025)),  # words: uint8, uint16, uint32 tiers
        st.sampled_from((np.bitwise_xor, np.bitwise_and, np.bitwise_or)),
        st.sampled_from(("contiguous", "readonly", "mmap", "strided")),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_broadcast_reference(
        self, tmp_path_factory, q, m, w, op, layout, seed
    ):
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 2**64, (q, w), dtype=np.uint64)
        rows = rng.integers(0, 2**64, (m, w), dtype=np.uint64)
        if m:
            rows[0] = ~queries[-1]  # XOR/OR at the accumulator's maximum
        if layout == "readonly":
            queries.setflags(write=False)
            rows.setflags(write=False)
        elif layout == "mmap":  # one spare row: a file is never empty
            path = tmp_path_factory.mktemp("kernel") / "rows.bin"
            np.concatenate((rows, queries[:1])).tofile(path)
            rows = np.memmap(path, dtype=np.uint64, mode="r", shape=(m + 1, w))[:m]
        elif layout == "strided":  # every other row and word of larger arrays
            big_q = np.zeros((2 * q, 2 * w), dtype=np.uint64)
            big_r = np.zeros((2 * m, 2 * w), dtype=np.uint64)
            big_q[::2, ::2], big_r[::2, ::2] = queries, rows
            queries, rows = big_q[::2, ::2], big_r[::2, ::2]
        got = popcount_cdist(queries, rows, op)
        # The reference comes second: its freed (q, m, w) popcounts must
        # not be the memory a kernel's unwritten tile happens to reuse.
        want = np.bitwise_count(op(queries[:, None], rows[None])).sum(
            -1, dtype=np.min_scalar_type(64 * w)
        )
        assert got.dtype == want.dtype and got.shape == (q, m)
        assert (got == want).all()

    @given(
        st.integers(TILE + 1, 3 * TILE + 1),  # q
        st.sampled_from((5, 33, 64)),  # d: one word, few distinct distances
        st.integers(1, 12),  # k
        st.lists(st.integers(1, 40), min_size=1, max_size=4),  # window sizes
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_carried_topk_equals_one_scan(self, q, d, k, sizes, seed):
        """``hamming_topk`` over windows, each carrying the last's block,
        equals one call over every row, at batches wider than a tile."""
        rng = np.random.default_rng(seed)
        words = pack_bits(rng.integers(0, 2, (sum(sizes), d), dtype=np.uint8))
        query_words = pack_bits(rng.integers(0, 2, (q, d), dtype=np.uint8))
        prior, base = None, 0
        for size in sizes:
            prior = hamming_topk(
                query_words, words[base : base + size], k, d, prior=prior, base=base
            )
            base += size
        whole = hamming_topk(query_words, words, k, d)
        for got, want in zip(prior, whole):
            assert got.dtype == want.dtype and np.array_equal(got, want)


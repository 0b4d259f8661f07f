"""Bit-level utilities for binary (Hamming-space) feature vectors.

The paper's kNN design operates on binary codes: real-valued feature
vectors are quantized offline (e.g. with ITQ, :mod:`repro.index.itq`)
into ``d``-dimensional 0/1 vectors, and all distance computation is
Hamming distance.  Two memory layouts are used throughout the library:

* **unpacked**: ``uint8`` arrays of shape ``(n, d)`` holding one bit per
  byte.  This is the layout the automata simulator consumes (each bit
  becomes one input symbol).
* **packed**: ``uint64`` arrays of shape ``(n, ceil(d / 64))`` holding 64
  bits per word, row-major.  This is the layout the CPU/FPGA baselines
  and the functional board model consume; a Hamming distance is then
  XOR + POPCOUNT over words, exactly like the FLANN and CUDA baselines
  in the paper (Section IV-C).

Each byte moves once, in the narrowest exact dtype: :func:`pack_bits`
goes bits -> bytes -> words with no widened staging copy, and the
all-pairs kernel :func:`popcount_cdist` accumulates one word column at
a time into a ``uint8``/``uint16``/``uint32`` ``(q, n)`` array —
``O(q n w)`` word ops.  Rows wider than one word are read through one
private ``(w, n)`` column-order copy of the dataset per call, so every
column streams contiguously instead of at a stride of ``8 w`` bytes;
one-word rows are read in place.  Row-major ``(n, w)`` stays the only
layout anything stores.  Popcounts are the hardware
``np.bitwise_count`` ufunc (NumPy >= 2.0, the declared floor).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_binary",
    "pack_bits",
    "unpack_bits",
    "popcount_u64",
    "popcount_cdist",
    "hamming_distance_unpacked",
    "hamming_cdist_packed",
    "default_cdist_tile",
    "random_binary_vectors",
]

# Peak-memory budget for the auto-tiled cdist kernel: one tile's
# (tile_q, n) intermediates stay within roughly this many bytes.
_CDIST_TILE_BYTES = 32 * 2**20


def is_binary(arr) -> bool:
    """True iff every element of ``arr`` is exactly 0 or 1 (vacuously
    for an empty array) — the library's one binary-input check.

    ``uint8``/``bool``, what every hot path holds, is one ``max()``
    reduction with no temporary; any other dtype goes through
    ``np.isin``, so ``-1``, ``2``, ``0.5`` and NaN are rejected.
    """
    arr = np.asarray(arr)
    if arr.dtype == np.uint8 or arr.dtype == np.bool_:
        return bool(arr.max(initial=0) <= 1)
    return bool(np.isin(arr, (0, 1)).all())


def as_bits(arr, name: str = "bits") -> np.ndarray:
    """``arr`` as a uint8 0/1 array: checked by :func:`is_binary` in
    the dtype it arrived in (``ValueError`` naming ``name`` otherwise),
    and only then narrowed — casting first would turn 256 into 0."""
    arr = np.asarray(arr)
    if not is_binary(arr):
        raise ValueError(f"{name} must be binary (0/1)")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an unpacked ``(n, d)`` 0/1 array into ``(n, ceil(d/64))`` uint64.

    Bit ``j`` of a row is stored in word ``j // 64`` at bit position
    ``j % 64`` (little-endian within the word).  Trailing pad bits are
    zero, so Hamming distances computed on packed words equal distances
    on the unpacked rows.

    Memory contract: the input is read once by :func:`is_binary`
    (``ValueError`` on anything but 0/1) and once by ``np.packbits``;
    the only allocations are the ``(n, ceil(d/8))`` packed bytes and,
    when ``d % 64 != 0``, the ``(n, 8w)`` zero-tailed buffer they are
    copied into.  Read-only and non-contiguous inputs are fine.
    """
    bits = np.asarray(bits)
    if bits.ndim == 1:
        bits = bits[None, :]
    if bits.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D bit array, got ndim={bits.ndim}")
    if not is_binary(bits):
        raise ValueError("bit array must contain only 0 and 1")
    if bits.dtype != np.uint8 and bits.dtype != np.bool_:
        bits = bits.astype(np.uint8)  # validated 0/1, so the cast is exact
    n, d = bits.shape
    n_words = (d + 63) // 64
    # np.packbits packs most-significant-bit first per byte; request
    # little-endian bit order so bit j lands at position j % 8.
    as_bytes = np.packbits(bits, axis=1, bitorder="little")
    if as_bytes.shape[1] != n_words * 8:
        padded = np.empty((n, n_words * 8), dtype=np.uint8)
        padded[:, : as_bytes.shape[1]] = as_bytes
        padded[:, as_bytes.shape[1] :] = 0
        as_bytes = padded
    return as_bytes.view(np.uint64)


def unpack_bits(words: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns a ``(n, d)`` uint8 array."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    n, n_words = words.shape
    if d > n_words * 64:
        raise ValueError(f"d={d} exceeds capacity of {n_words} words")
    as_bytes = words.view(np.uint8).reshape(n, n_words * 8)
    return np.unpackbits(as_bytes, axis=1, count=d, bitorder="little")


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Element-wise population count of a uint64 array (any shape), as
    int64: ``np.bitwise_count`` (hardware POPCNT)."""
    words = np.asarray(words, dtype=np.uint64)
    return np.bitwise_count(words).astype(np.int64)


def hamming_distance_unpacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance between unpacked 0/1 arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return np.count_nonzero(a != b, axis=-1)


def _acc_dtype(n_words: int) -> type:
    """Narrowest unsigned dtype that holds a popcount over ``n_words``
    words: ``uint8`` to 255 bits, ``uint16`` to 65 535, else ``uint32``."""
    if 64 * n_words <= 0xFF:
        return np.uint8
    if 64 * n_words <= 0xFFFF:
        return np.uint16
    return np.uint32


def _word_columns(queries: np.ndarray, dataset: np.ndarray) -> np.ndarray:
    """The kernel's dataset operand: ``(w, n)`` word columns of the
    ``(n, w)`` row words, after checking ``queries`` has the same word
    count.  One-word rows are a view (no copy); wider rows are one
    contiguous column-order copy of ``n * w * 8`` bytes."""
    if queries.shape[-1] != dataset.shape[-1]:
        raise ValueError(
            f"word-count mismatch: {queries.shape} vs {dataset.shape}"
        )
    if dataset.shape[1] <= 1:
        return dataset.T
    return np.ascontiguousarray(dataset.T)


def _cdist_columns(
    queries: np.ndarray, columns: np.ndarray, op
) -> np.ndarray:
    """:func:`popcount_cdist` over :func:`_word_columns`' ``(w, n)``
    columns.  Columns after the first reuse one ``(q, n)`` word buffer
    and one popcount buffer."""
    q, (w, n) = queries.shape[0], columns.shape
    dtype = _acc_dtype(w)
    if w == 0:
        return np.zeros((q, n), dtype=dtype)
    words = op(queries[:, 0, None], columns[0])
    acc = np.bitwise_count(words).astype(dtype, copy=False)
    if w > 1:
        counts = np.empty((q, n), dtype=np.uint8)
        for j in range(1, w):
            op(queries[:, j, None], columns[j], out=words)
            acc += np.bitwise_count(words, out=counts)
    return acc


def popcount_cdist(
    queries: np.ndarray, dataset: np.ndarray, op=np.bitwise_xor
) -> np.ndarray:
    """All-pairs ``popcount(q op x)``: ``(q, w) x (n, w) -> (q, n)``.

    The one inner loop of every functional workload — ``op`` is XOR for
    Hamming/range distances, AND for Jaccard intersections.  One word
    column at a time: ``op``, popcount, in-place add, so the
    ``(q, n, w)`` broadcast never exists and no length-``w`` axis is
    reduced.  The result is the narrowest exact accumulator —
    ``uint8`` while ``64 * w <= 255``, ``uint16`` to 65 535, else
    ``uint32`` — 1–4 bytes per pair instead of 8.  ``ValueError`` when
    the word counts differ.  Read-only, non-contiguous and memory-mapped
    inputs are fine.

    Memory contract: one-word rows are read in place; wider rows cost
    one ``(w, n)`` column-order copy of ``dataset`` (``n * w * 8``
    bytes) per call, so each column is read contiguously.  Not tiled:
    beside the result it holds a ``(q, n)`` word buffer and its
    popcount; callers bound ``q`` (:func:`default_cdist_tile`).
    """
    return _cdist_columns(queries, _word_columns(queries, dataset), op)


def default_cdist_tile(n: int, n_words: int) -> int:
    """Auto tile height (query rows per pass) for :func:`hamming_cdist_packed`.

    Sized so one tile's ``(tile_q, n)`` intermediates — the uint64 word
    buffer (8 bytes/entry), its uint8 popcount (1) and the accumulator
    (1, 2 or 4) — fit in :data:`_CDIST_TILE_BYTES`.
    """
    per_row = max(1, n * (9 + np.dtype(_acc_dtype(n_words)).itemsize))
    return max(1, _CDIST_TILE_BYTES // per_row)


def hamming_cdist_packed(
    queries: np.ndarray,
    dataset: np.ndarray,
    *,
    tile_q: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs Hamming distances, ``(q, w) x (n, w) -> (q, n)`` int64.

    The full distance matrix, for callers that need every distance
    rather than a top-k (:func:`~repro.util.topk.hamming_topk`):
    :func:`popcount_cdist` per query tile, widened to int64 only on
    the way into ``out``.

    Memory contract: queries are processed in tiles of ``tile_q`` rows,
    so peak transient memory is at most ``tile_q * n * 13`` bytes
    (8-byte word, 1-byte popcount, 1–4-byte accumulator per pair)
    whatever ``q`` — ~11 MiB per tile row at the paper's ``n = 2**20``
    and ``d <= 65 535`` — plus, for rows wider than one word, one
    ``(w, n)`` column-order copy of ``dataset`` (``n * w * 8`` bytes),
    taken once per call before the tile loop.  ``tile_q=None`` picks
    the largest tile within a fixed 32 MiB budget
    (:func:`default_cdist_tile`); results are bit-identical for every
    tile size.  ``out`` (shape ``(q, n)``, dtype int64) lets callers
    reuse a distance buffer across batches.
    """
    queries = np.asarray(queries, dtype=np.uint64)
    dataset = np.asarray(dataset, dtype=np.uint64)
    if queries.ndim == 1:
        queries = queries[None, :]
    columns = _word_columns(queries, dataset)
    q = queries.shape[0]
    n, w = dataset.shape
    if out is None:
        out = np.empty((q, n), dtype=np.int64)
    else:
        if out.shape != (q, n):
            raise ValueError(f"out has shape {out.shape}, expected {(q, n)}")
        if out.dtype != np.int64:
            raise ValueError(f"out must be int64, got {out.dtype}")
    if tile_q is None:
        tile_q = default_cdist_tile(n, w)
    if tile_q < 1:
        raise ValueError(f"tile_q must be >= 1, got {tile_q}")
    for lo in range(0, q, tile_q):
        out[lo : lo + tile_q] = _cdist_columns(
            queries[lo : lo + tile_q], columns, np.bitwise_xor
        )
    return out


def random_binary_vectors(
    n: int, d: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Uniform random unpacked binary vectors of shape ``(n, d)``."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.integers(0, 2, size=(n, d), dtype=np.uint8)

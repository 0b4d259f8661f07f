"""Top-k selection utilities shared by all kNN back-ends.

kNN result ordering convention used across the library: neighbors are
sorted by ascending distance, ties broken by ascending dataset index.
This matches the deterministic tie-break the AP's temporal sort needs a
convention for (simultaneous reporting-state activations are resolved by
state ID, which we assign in dataset order).

:func:`hamming_topk` is the one exact Hamming top-k: the engine's
boards, the CPU and FPGA baselines and every index bucket scan answer
through it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .bitops import _acc_dtype, _cdist_columns, _word_columns, default_cdist_tile

__all__ = [
    "hamming_topk",
    "topk_from_distances",
    "BoundedPriorityQueue",
    "merge_topk",
    "merge_topk_blocks",
    "merge_ragged_blocks",
]

_KEY32_LIMIT = 2**32


def _key_dtype(bound: int) -> type:
    """Selection keys ``rank * n + index`` are uint32 while ``bound`` — no
    less than any value a key takes on the way — fits, uint64 beyond."""
    return np.uint32 if bound < _KEY32_LIMIT else np.uint64


def _select_smallest(keys: np.ndarray, k: int, n: int, out=(None, None)):
    """Each row's ``k`` smallest of ``(q, n)`` unique ``rank * n + index``
    keys, ascending, as ``(ranks, indices)``: an ``O(n)`` partition, a
    sort of the ``k`` kept, one divmod into ``out``.  Reorders ``keys``."""
    if k < keys.shape[1]:
        keys.partition(k - 1, axis=1)
        keys = keys[:, :k]
    keys.sort(axis=1)
    return np.divmod(keys, n, *out)


def _select_carried(keys, k, n, prior_ranks, prior_idx, out=(None, None)):
    """:func:`_select_smallest` over ``keys`` and a carried block re-keyed
    ``rank * n + index``; a pad (index -1) wraps past every real key."""
    keys = np.concatenate(
        (np.where(prior_idx < 0, -1, prior_ranks * n + prior_idx), keys),
        axis=1, dtype=keys.dtype, casting="unsafe",
    )
    return _select_smallest(keys, k, n, out)


def hamming_topk(
    query_words: np.ndarray,
    words: np.ndarray,
    k: int,
    d: int,
    prior: tuple[np.ndarray, np.ndarray] | None = None,
    base: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hamming top-k of packed ``(q, w)`` queries over packed
    ``(m, w)`` rows of ``d`` bits: ``(indices, distances)``, ``(q,
    k_eff)`` int64, ``k_eff = min(k, n)``, each row ordered by
    (distance, row) — the library-wide tie-break.

    ``words`` are rows ``[base, base + m)`` of a scan whose ``n = base +
    m`` rows seen so far index the result.  ``prior`` carries the
    scan's running block over rows ``[0, base)``: what this function
    returned for them, ``(q, min(k, base))`` — or the same block padded
    wider with ``(-1, -1)`` slots.  The call is then a threshold filter:
    a query whose block holds ``k`` real rows can gain only rows at
    ``distance < b``, ``b`` the block's ``k``-th distance (a later row
    at ``b`` loses the tie to all ``k``, since rows arrive in ascending
    order), and a short or padded block bounds nothing.  The columns
    under a query tile's loosest bound — a superset of each query's
    candidates, which selects the same — and the block's rows meet in
    one select; a tile with no such column returns its block
    unselected.  The result equals one call over all ``n`` rows, bit
    for bit.

    Selection packs each ``(distance, row)`` pair into one unique key
    ``distance * n + row`` (uint32 while ``(d + 1) * n`` fits, else
    uint64), partitions the ``k_eff`` smallest to the front of each row
    in ``O(m)``, sorts only those and divmods them back — never a full
    ``O(m log m)`` sort, and the tie-break at the ``k``-th distance is
    exact rather than partition's arbitrary boundary subset.  Queries
    run in tiles (:func:`~repro.util.bitops.default_cdist_tile`), so
    peak memory is one tile's ``(tile_q, m)`` kernel transients plus
    its keys; rows wider than one word add the kernel's ``(w, m)``
    column-order copy of ``words``, taken once per call.

    A scan over a subset of a dataset passes the subset's rows in
    ascending id order and maps the result back with ``ids[indices]``:
    local row order is then global id order, so ties break the same.
    """
    n_q, m = query_words.shape[0], words.shape[0]
    base, k = int(base), int(k)
    n = base + m
    k_eff = min(k, n)
    key_dtype = _key_dtype((d + 1) * n)
    indices = np.empty((n_q, k_eff), dtype=np.int64)
    distances = np.empty((n_q, k_eff), dtype=np.int64)
    tile = default_cdist_tile(m, words.shape[1])
    columns = _word_columns(query_words, words)  # once, not per tile
    if prior is None:
        idx = np.arange(base, n, dtype=key_dtype)
    else:
        prior_idx, prior_dist = prior
        # Each query's bound, in the kernel's dtype: its block's k-th
        # distance.  A pad's distance, -1, wraps to the dtype's maximum,
        # past every row, as does a block narrower than k: neither bounds.
        acc = _acc_dtype(words.shape[1])
        if prior_idx.shape[1] >= k:
            bound = prior_dist[:, k - 1 : k].astype(acc)
        else:
            bound = np.full((n_q, 1), np.iinfo(acc).max, dtype=acc)
    for lo in range(0, n_q, tile):
        hi = min(lo + tile, n_q)
        dist = _cdist_columns(query_words[lo:hi], columns, np.bitwise_xor)
        out = (distances[lo:hi], indices[lo:hi])
        if prior is None:
            keys = np.multiply(dist, n, dtype=key_dtype)
            keys += idx
            _select_smallest(keys, k_eff, n, out)
        else:
            # Every column nearer some query of the tile than the
            # tile's loosest bound.
            cand = np.flatnonzero(dist.min(axis=0) < bound[lo:hi].max())
            if not cand.size:
                out[0][:] = prior_dist[lo:hi, :k_eff]
                out[1][:] = prior_idx[lo:hi, :k_eff]
                continue
            cand_keys = np.multiply(dist[:, cand], n, dtype=key_dtype)
            cand += base
            np.add(cand_keys, cand, out=cand_keys, casting="unsafe")
            _select_carried(
                cand_keys, k_eff, n, prior_dist[lo:hi], prior_idx[lo:hi], out
            )
    return indices, distances


def topk_from_distances(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(indices, distances)`` of the ``k`` smallest entries.

    Deterministic: ties broken by ascending index (lexicographic argsort
    on (distance, index)).  ``k`` is clipped to ``len(distances)``.
    """
    distances = np.asarray(distances)
    if distances.ndim != 1:
        raise ValueError("distances must be 1-D; use a loop or vectorized caller")
    k = min(int(k), distances.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=distances.dtype)
    # argpartition finds the k-th distance, then ties at that boundary are
    # resolved by ascending index over *all* candidates at or below it --
    # a bare argpartition would keep an arbitrary subset of boundary ties.
    part = np.argpartition(distances, k - 1)[:k]
    kth = distances[part].max()
    cand = np.nonzero(distances <= kth)[0]
    order = np.lexsort((cand, distances[cand]))[:k]
    idx = cand[order].astype(np.int64)
    return idx, distances[idx]


@dataclass(order=True)
class _HeapEntry:
    # Max-heap via negated sort key: largest (distance, index) at the top
    # so it is evicted first.
    neg_distance: float
    neg_index: int


class BoundedPriorityQueue:
    """Fixed-capacity max-heap keeping the ``k`` smallest (distance, id) pairs.

    This mirrors the *hardware priority queue* in the paper's FPGA
    accelerator (Section IV-C) and the priority-queue insertion sort the
    paper attributes to von-Neumann kNN (Section III-B).  Insertion is
    O(log k); the final :meth:`sorted_items` is ascending by
    (distance, id).
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._heap: list[tuple[float, int]] = []  # (-distance, -id)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def worst_distance(self) -> float:
        """Largest distance currently kept (inf while under capacity)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def push(self, distance: float, index: int) -> bool:
        """Offer an item; returns True if it was kept."""
        entry = (-float(distance), -int(index))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry > self._heap[0]:  # smaller (distance, id) than current worst
            heapq.heapreplace(self._heap, entry)
            return True
        return False

    def sorted_items(self) -> list[tuple[int, float]]:
        """Return ``[(index, distance), ...]`` ascending by (distance, id)."""
        items = [(-nd, -ni) for nd, ni in self._heap]
        items.sort(key=lambda t: (t[0], t[1]))
        return [(int(i), float(d)) for d, i in items]


def merge_topk(
    partials: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-partition top-k results into a global top-k.

    This is the host-side merge the AP engine performs across board
    reconfigurations (Section III-C): each partition contributes its own
    ``(indices, distances)``; the global result is the k smallest overall
    with the standard tie-break.
    """
    if not partials:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    all_idx = np.concatenate([np.asarray(i, dtype=np.int64) for i, _ in partials])
    all_dist = np.concatenate([np.asarray(d) for _, d in partials])
    order = np.lexsort((all_idx, all_dist))
    order = order[: min(k, order.shape[0])]
    return all_idx[order], all_dist[order]


def merge_topk_blocks(
    blocks: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    offsets: list[int] | np.ndarray | None = None,
    pad_index: int = -1,
    pad_distance: int = -1,
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-aware batched merge of per-shard candidate blocks.

    ``blocks`` is a list of ``(indices, distances)`` pairs — each a
    ``(q, k_i)`` candidate block (widths may differ; a shard smaller
    than ``k`` legally contributes a narrower or padded block).
    ``offsets``, when given, holds one index offset per block: a
    block's *valid* indices are re-based into the global ID space
    (``index + offset``) while pad slots stay pads — the cross-shard
    merge of :class:`~repro.core.multiboard.MultiBoardSearch`, where a
    naively offset pad would become the bogus valid global index
    ``offset + pad_index`` with a distance that outranks every real
    candidate.

    The merge itself is one concatenate plus one batched select: no
    per-row (or per-block, beyond the concatenate) Python.  Each
    (distance, index) pair is packed into one unique int64 key
    ``distance * (max_index + 1) + index`` (pads map to the maximum key,
    sorting last; distances and indices are non-negative), the ``k``
    smallest keys per row are selected with ``np.argpartition`` plus a
    bounded sort, and the result is ``(q, k)`` int64 arrays sorted by
    ascending (distance, index) per row — what :func:`merge_topk`
    returns per query, duplicates included — padded with ``(pad_index,
    pad_distance)`` where fewer than ``k`` real candidates exist.
    """
    if not blocks:
        raise ValueError("need at least one candidate block")
    if offsets is None:
        idx_parts = [np.asarray(b[0], dtype=np.int64) for b in blocks]
    else:
        if len(offsets) != len(blocks):
            raise ValueError(
                f"got {len(offsets)} offsets for {len(blocks)} blocks"
            )
        idx_parts = []
        for (block_idx, _), off in zip(blocks, offsets):
            block_idx = np.asarray(block_idx, dtype=np.int64)
            idx_parts.append(
                np.where(block_idx != pad_index, block_idx + int(off), pad_index)
            )
    indices = np.concatenate(idx_parts, axis=1)
    distances = np.concatenate(
        [np.asarray(b[1], dtype=np.int64) for b in blocks], axis=1
    )
    if indices.shape != distances.shape or indices.ndim != 2:
        raise ValueError(
            f"indices/distances must be equal-shape (q, m) arrays, got "
            f"{indices.shape} vs {distances.shape}"
        )
    n_q, m = indices.shape
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    valid = indices != pad_index
    stride = np.int64(max(int(indices.max(initial=0)) + 1, 1))
    pad_key = np.iinfo(np.int64).max
    keys = np.where(valid, distances * stride + indices, pad_key)
    if k < m:
        part = np.argpartition(keys, k - 1, axis=1)[:, :k]
        keys = np.take_along_axis(keys, part, axis=1)
    elif k > m:
        keys = np.concatenate(
            [keys, np.full((n_q, k - m), pad_key, dtype=np.int64)], axis=1
        )
    keys = np.sort(keys, axis=1)
    found = keys != pad_key
    out_idx = np.full((n_q, k), pad_index, dtype=np.int64)
    out_dist = np.full((n_q, k), pad_distance, dtype=np.int64)
    out_idx[found] = keys[found] % stride
    out_dist[found] = keys[found] // stride
    return out_idx, out_dist


def merge_ragged_blocks(
    blocks: list[tuple[np.ndarray, np.ndarray]],
    offsets: list[int] | np.ndarray | None = None,
    pad_index: int = -1,
    pad_value: int = -1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offset-aware merge of *variable-cardinality* candidate blocks.

    The ragged sibling of :func:`merge_topk_blocks`: range search (and
    any other filter-style workload) returns a per-query hit **list**
    whose length varies by query, carried as padded ``(q, m_i)``
    ``(indices, values)`` blocks — slots equal to ``pad_index`` are
    empty.  This merges one such block per shard into a single
    left-packed block:

    * valid indices re-base into the global ID space (``index +
      offset``) while pad slots **stay pads** — the same guarantee as
      :func:`merge_topk_blocks`: a pad must never become the bogus
      valid global index ``offset + pad_index``;
    * each output row holds the union of its input rows' valid hits,
      sorted by ascending global index (the library-wide report-code
      order), left-packed, and padded with ``(pad_index, pad_value)``
      to the width of the row with the most hits;
    * ``values`` (exact distances, similarities, ...) travel with
      their indices through the same permutation.

    Returns ``(indices, values, counts)``: two ``(q, M)`` int64 arrays
    (``M`` = max hits over rows, 0 rows allowed) plus the ``(q,)``
    per-row valid-hit counts.  Merging is associative: merged output
    blocks are valid inputs for a further merge (with offset 0), so
    shard trees of any shape produce identical results.
    """
    if not blocks:
        raise ValueError("need at least one candidate block")
    idx_parts, val_parts = [], []
    if offsets is not None and len(offsets) != len(blocks):
        raise ValueError(f"got {len(offsets)} offsets for {len(blocks)} blocks")
    for bi, (block_idx, block_val) in enumerate(blocks):
        block_idx = np.atleast_2d(np.asarray(block_idx, dtype=np.int64))
        block_val = np.atleast_2d(np.asarray(block_val, dtype=np.int64))
        if block_idx.shape != block_val.shape:
            raise ValueError(
                f"block {bi}: indices {block_idx.shape} vs values "
                f"{block_val.shape}"
            )
        if offsets is not None:
            off = int(offsets[bi])
            block_idx = np.where(
                block_idx != pad_index, block_idx + off, pad_index
            )
        idx_parts.append(block_idx)
        val_parts.append(block_val)
    n_rows = idx_parts[0].shape[0]
    if any(p.shape[0] != n_rows for p in idx_parts):
        raise ValueError("blocks disagree on the number of query rows")
    indices = np.concatenate(idx_parts, axis=1)
    values = np.concatenate(val_parts, axis=1)
    valid = indices != pad_index
    counts = valid.sum(axis=1).astype(np.int64)
    width = int(counts.max(initial=0))
    # Row-wise left-pack + ascending-index sort in one argsort pass:
    # pads key to int64 max so they sink to the right of every valid
    # index, then the columns beyond the widest row are dropped.
    keys = np.where(valid, indices, np.iinfo(np.int64).max)
    order = np.argsort(keys, axis=1, kind="stable")[:, :width]
    out_idx = np.take_along_axis(indices, order, axis=1)
    out_val = np.take_along_axis(values, order, axis=1)
    packed = np.arange(width, dtype=np.int64)[None, :] < counts[:, None]
    out_idx[~packed] = pad_index
    out_val[~packed] = pad_value
    return out_idx, out_val, counts

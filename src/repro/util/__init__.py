"""Shared low-level utilities: bit packing, popcount, and top-k selection."""

from .bitops import (
    hamming_cdist_packed,
    is_binary,
    pack_bits,
    popcount_u64,
    unpack_bits,
)
from .topk import BoundedPriorityQueue, merge_topk, topk_from_distances

__all__ = [
    "hamming_cdist_packed",
    "is_binary",
    "pack_bits",
    "popcount_u64",
    "unpack_bits",
    "BoundedPriorityQueue",
    "merge_topk",
    "topk_from_distances",
]

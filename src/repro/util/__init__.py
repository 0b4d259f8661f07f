"""Shared low-level utilities: bit packing, popcount, and top-k selection."""

from .bitops import (
    hamming_cdist_packed,
    hamming_distance_unpacked,
    is_binary,
    pack_bits,
    popcount_u64,
    random_binary_vectors,
    unpack_bits,
)
from .topk import BoundedPriorityQueue, merge_topk, topk_from_distances

__all__ = [
    "hamming_cdist_packed",
    "hamming_distance_unpacked",
    "is_binary",
    "pack_bits",
    "popcount_u64",
    "random_binary_vectors",
    "unpack_bits",
    "BoundedPriorityQueue",
    "merge_topk",
    "topk_from_distances",
]

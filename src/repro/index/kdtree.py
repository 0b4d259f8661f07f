"""Randomized kd-trees over binary codes (Section II-A).

FLANN-style: multiple parallel trees, each splitting on a dimension
drawn randomly from the current node's highest-variance dimensions
(for 0/1 data, variance is ``p (1 - p)`` of the bit's empirical mean).
A node sends points with bit 0 left and bit 1 right; recursion stops at
``bucket_size`` and the leaf stores its point indices.  The paper
constrains tree height because "the index structure size scales
exponentially with depth"; ``max_depth`` models that.  A query descends
each tree by its own bit values and linearly scans the union of the
reached leaves ("each tree traversal checks one bucket of vectors",
Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.bitops import as_bits
from .base import SpatialIndex

__all__ = ["RandomizedKDTrees"]


@dataclass
class _Node:
    split_dim: int = -1
    left: int = -1  # child node index, or -1
    right: int = -1
    bucket: int = -1  # leaf bucket id, or -1


class RandomizedKDTrees(SpatialIndex):
    """Forest of randomized kd-trees with leaf buckets."""

    def __init__(
        self,
        dataset_bits: np.ndarray,
        n_trees: int = 4,
        bucket_size: int = 512,
        top_variance: int = 8,
        max_depth: int = 24,
        seed: int | None = 0,
    ):
        super().__init__(dataset_bits)
        if n_trees < 1:
            raise ValueError("need at least one tree")
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.n_trees = int(n_trees)
        self.bucket_size = int(bucket_size)
        self.top_variance = int(top_variance)
        self.max_depth = int(max_depth)
        rng = np.random.default_rng(seed)
        self._trees: list[list[_Node]] = []
        self._roots: list[int] = []
        for _ in range(self.n_trees):
            nodes: list[_Node] = []
            root = self._build(
                np.arange(self.n, dtype=np.int64), nodes, rng, depth=0
            )
            self._trees.append(nodes)
            self._roots.append(root)

    # -- construction ------------------------------------------------------

    def _choose_split(self, idx: np.ndarray, rng: np.random.Generator) -> int:
        means = self.dataset[idx].mean(axis=0)
        variance = means * (1.0 - means)
        top = np.argsort(variance)[::-1][: self.top_variance]
        top = top[variance[top] > 0]
        if top.size == 0:
            return -1  # all candidate dims constant: cannot split
        return int(rng.choice(top))

    def _build(
        self,
        idx: np.ndarray,
        nodes: list[_Node],
        rng: np.random.Generator,
        depth: int,
    ) -> int:
        node_id = len(nodes)
        nodes.append(_Node())
        if idx.size <= self.bucket_size or depth >= self.max_depth:
            nodes[node_id].bucket = self._add_bucket(idx)
            return node_id
        dim = self._choose_split(idx, rng)
        if dim < 0:
            nodes[node_id].bucket = self._add_bucket(idx)
            return node_id
        mask = self.dataset[idx, dim] == 1
        left_idx, right_idx = idx[~mask], idx[mask]
        if left_idx.size == 0 or right_idx.size == 0:
            nodes[node_id].bucket = self._add_bucket(idx)
            return node_id
        nodes[node_id].split_dim = dim
        nodes[node_id].left = self._build(left_idx, nodes, rng, depth + 1)
        nodes[node_id].right = self._build(right_idx, nodes, rng, depth + 1)
        return node_id

    def _add_bucket(self, idx: np.ndarray) -> int:
        self.buckets.append(np.sort(idx))
        return len(self.buckets) - 1

    # -- queries -------------------------------------------------------------

    def query_buckets(self, query_bits: np.ndarray) -> list[int]:
        query_bits = as_bits(query_bits, "query").ravel()
        if query_bits.shape[0] != self.d:
            raise ValueError(f"query has d={query_bits.shape[0]}, index d={self.d}")
        out = []
        for nodes, root in zip(self._trees, self._roots):
            node = nodes[root]
            while node.bucket < 0:
                node = nodes[node.right if query_bits[node.split_dim] else node.left]
            out.append(node.bucket)
        return out

    @property
    def n_leaves(self) -> int:
        return len(self.buckets)

"""Locality-sensitive hashing for Hamming space, with multi-probe.

The classic bit-sampling family (Indyk-Motwani): a hash function is a
random subset of ``hash_bits`` bit positions; vectors agreeing on those
positions collide.  The paper uses "four hash tables for LSH"
(Section IV-C) and evaluates *MPLSH* (multi-probe LSH) in Table V:
besides each query's home bucket, the ``n_probes`` nearest perturbed
buckets (hash keys at Hamming distance 1, 2, ... from the query's key)
are probed, trading extra bucket scans for recall.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..util.bitops import as_bits
from .base import SpatialIndex

__all__ = ["HammingLSH"]


class HammingLSH(SpatialIndex):
    """Bit-sampling LSH with ``n_tables`` tables and multi-probe support."""

    def __init__(
        self,
        dataset_bits: np.ndarray,
        n_tables: int = 4,
        hash_bits: int = 12,
        n_probes: int = 0,
        seed: int | None = 0,
    ):
        super().__init__(dataset_bits)
        if n_tables < 1:
            raise ValueError("need at least one table")
        if not 1 <= hash_bits <= self.d:
            raise ValueError("hash_bits must be in [1, d]")
        if n_probes < 0:
            raise ValueError("n_probes must be >= 0")
        self.n_tables = int(n_tables)
        self.hash_bits = int(hash_bits)
        self.n_probes = int(n_probes)
        rng = np.random.default_rng(seed)
        self._positions = [
            rng.choice(self.d, size=self.hash_bits, replace=False)
            for _ in range(self.n_tables)
        ]
        self._weights = 1 << np.arange(self.hash_bits, dtype=np.int64)
        # bucket key -> bucket id, per table; buckets shared in self.buckets
        self._tables: list[dict[int, int]] = []
        for t in range(self.n_tables):
            keys = self._hash_all(t)
            table: dict[int, int] = {}
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            boundaries = np.nonzero(np.diff(sorted_keys))[0] + 1
            for chunk in np.split(order, boundaries):
                key = int(keys[chunk[0]])
                self.buckets.append(np.sort(chunk.astype(np.int64)))
                table[key] = len(self.buckets) - 1
            self._tables.append(table)
        self._probe_deltas = self._make_probe_deltas()

    def _hash_all(self, t: int) -> np.ndarray:
        bits = self.dataset[:, self._positions[t]].astype(np.int64)
        return bits @ self._weights

    def _hash_query(self, query_bits: np.ndarray, t: int) -> int:
        bits = query_bits[self._positions[t]].astype(np.int64)
        return int(bits @ self._weights)

    def _make_probe_deltas(self) -> list[int]:
        """XOR masks for multi-probe, ordered by perturbation weight."""
        deltas: list[int] = []
        for weight in (1, 2):
            for combo in combinations(range(self.hash_bits), weight):
                deltas.append(sum(1 << b for b in combo))
                if len(deltas) >= max(self.n_probes, 0):
                    return deltas[: self.n_probes]
        return deltas[: self.n_probes]

    def query_buckets(self, query_bits: np.ndarray) -> list[int]:
        query_bits = as_bits(query_bits, "query").ravel()
        if query_bits.shape[0] != self.d:
            raise ValueError(f"query has d={query_bits.shape[0]}, index d={self.d}")
        out: list[int] = []
        for t in range(self.n_tables):
            key = self._hash_query(query_bits, t)
            table = self._tables[t]
            if key in table:
                out.append(table[key])
            for delta in self._probe_deltas:
                probed = key ^ delta
                if probed in table:
                    out.append(table[probed])
        return out

    @property
    def n_buckets(self) -> int:
        return len(self.buckets)

"""Hamming range (r-neighbor) search on the AP.

kNN's sibling primitive: report every vector within Hamming distance
``r`` of the query.  It is *more* automata-native than kNN — no sort
phase is needed at all: each vector is a
:func:`~repro.core.macros.build_vector_macro` with ``threshold=d − r``
and ``sort=False``, so it reports iff at least ``d − r`` dimensions
match, i.e. iff distance ≤ r.  The stream shrinks to
``SOF + d bits + flush + EOF`` and the report offset encodes *when* the
(d−r)-th match arrived rather than the distance, so hosts that need
exact distances re-rank the (typically tiny) candidate set.

This is the exact-search core of LSH theory's (r, cR)-near-neighbor
problem and the natural AP realization of a similarity *filter* (cf.
the Jaccard threshold filter, :mod:`repro.core.jaccard`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, PAD, SOF
from ..util.bitops import as_bits, is_binary, pack_bits
from .macros import MacroConfig, build_vector_macro
from .workload import HammingRangeWorkload, _range_block_length

__all__ = ["RangeSearchResult", "HammingRangeSearch"]

_RANGE = HammingRangeWorkload()


@dataclass
class RangeSearchResult:
    """Candidates within radius r, per query."""

    candidates: list[np.ndarray]  # per query: sorted dataset indices
    distances: list[np.ndarray]  # exact distances of those candidates

    @property
    def mean_candidates(self) -> float:
        if not self.candidates:
            return 0.0
        return float(np.mean([c.size for c in self.candidates]))


class HammingRangeSearch:
    """Report all vectors with Hamming distance <= r (threshold macros)."""

    def __init__(
        self,
        dataset_bits: np.ndarray,
        radius: int,
        config: MacroConfig = MacroConfig(),
    ):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        if not 0 <= radius < self.d:
            raise ValueError(f"radius must be in [0, {self.d})")
        self.radius = int(radius)
        self.threshold = self.d - self.radius  # matches needed to report
        self.config = config
        self._board = _RANGE.compile_packed(pack_bits(dataset_bits), self.d, {})

    # -- stream --------------------------------------------------------

    @property
    def block_length(self) -> int:
        """SOF + d bits + (L + 2) flush pads + EOF."""
        return _range_block_length(self.d, self.config)

    def _batch(self, queries_bits: np.ndarray) -> np.ndarray:
        """A ``(q, d)`` query batch (a single row is promoted)."""
        queries_bits = np.asarray(queries_bits)
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(f"queries have d={queries_bits.shape[1]}, want {self.d}")
        return queries_bits

    def encode_queries(self, queries_bits: np.ndarray) -> np.ndarray:
        queries_bits = self._batch(queries_bits)
        if not is_binary(queries_bits):
            raise ValueError("queries must be binary")
        out = np.full((queries_bits.shape[0], self.block_length), PAD, dtype=np.uint8)
        out[:, 0], out[:, -1] = SOF, EOF
        out[:, 1 : 1 + self.d] = queries_bits
        return out.ravel()

    # -- automata -------------------------------------------------------

    def build_network(self) -> AutomataNetwork:
        net = AutomataNetwork(f"range-r{self.radius}")
        for v in range(self.n):
            build_vector_macro(
                net, self.dataset[v], v, f"v{v}_", self.config,
                threshold=self.threshold, sort=False,
            )
        return net

    # -- functional -------------------------------------------------------

    def search(self, queries_bits: np.ndarray) -> RangeSearchResult:
        """Exact functional model of the threshold automata: the
        ``range`` workload's pass over this board, as per-query lists."""
        hits, _ = _RANGE.execute(  # pack_bits validates the bits
            self._board, self._batch(queries_bits), {"radius": self.radius}
        )
        return RangeSearchResult(*hits.to_lists())

    def report_reduction(self, queries_bits: np.ndarray) -> float:
        """Report-traffic saving vs the all-report kNN design."""
        res = self.search(queries_bits)
        mean = res.mean_candidates
        return float("inf") if mean == 0 else self.n / mean

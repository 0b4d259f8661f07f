"""Hamming range (r-neighbor) search on the AP.

kNN's sibling primitive: report every vector within Hamming distance
``r`` of the query.  It is *more* automata-native than kNN — no sort
phase is needed at all: set the inverted-Hamming counter's threshold to
``d − r`` and a macro reports iff at least ``d − r`` dimensions match,
i.e. iff distance ≤ r.  The stream shrinks to
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

from ..automata.elements import STE, Counter, CounterMode, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, PAD, SOF, SymbolSet
from ..util.bitops import as_bits, hamming_cdist_packed, is_binary, pack_bits
from .macros import MacroConfig, collector_tree_depth

__all__ = ["RangeSearchResult", "HammingRangeSearch"]

_WILD = SymbolSet.wildcard()
_SOF_SET = SymbolSet.single(SOF)
_EOF_SET = SymbolSet.single(EOF)
_NOT_EOF = SymbolSet.negated_single(EOF)


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
        self._packed = pack_bits(dataset_bits)
        self.collector_depth = collector_tree_depth(self.d, config.max_fan_in)

    # -- stream --------------------------------------------------------

    @property
    def block_length(self) -> int:
        """SOF + d bits + (L + 2) flush pads + EOF."""
        return self.d + self.collector_depth + 4

    def encode_queries(self, queries_bits: np.ndarray) -> np.ndarray:
        queries_bits = np.asarray(queries_bits)
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(f"queries have d={queries_bits.shape[1]}, want {self.d}")
        if not is_binary(queries_bits):
            raise ValueError("queries must be binary")
        q = queries_bits.shape[0]
        out = np.empty(q * self.block_length, dtype=np.uint8)
        for i in range(q):
            b = out[i * self.block_length : (i + 1) * self.block_length]
            b[0] = SOF
            b[1 : 1 + self.d] = queries_bits[i]
            b[1 + self.d : -1] = PAD
            b[-1] = EOF
        return out

    # -- automata -------------------------------------------------------

    def build_network(self) -> AutomataNetwork:
        net = AutomataNetwork(f"range-r{self.radius}")
        for v in range(self.n):
            self._build_macro(net, v)
        return net

    def _build_macro(self, net: AutomataNetwork, v: int) -> None:
        prefix = f"v{v}_"
        guard = net.add_ste(STE(f"{prefix}guard", _SOF_SET, start=StartMode.ALL_INPUT))
        counter = net.add_counter(
            Counter(f"{prefix}ctr", threshold=self.threshold, mode=CounterMode.PULSE)
        )
        upstream = guard
        matches = []
        for i in range(self.d):
            star = net.add_ste(STE(f"{prefix}star{i}", _WILD))
            match = net.add_ste(
                STE(f"{prefix}m{i}", SymbolSet.single(int(self.dataset[v, i])))
            )
            net.connect(upstream, star)
            net.connect(upstream, match)
            matches.append(match)
            upstream = star
        frontier = matches
        for level in range(self.collector_depth):
            width = (len(frontier) + self.config.max_fan_in - 1) // self.config.max_fan_in
            nodes = []
            for j in range(width):
                node = net.add_ste(STE(f"{prefix}c{level}_{j}", _WILD))
                for src in frontier[j * self.config.max_fan_in : (j + 1) * self.config.max_fan_in]:
                    net.connect(src, node)
                nodes.append(node)
            frontier = nodes
        for node in frontier:
            net.connect(node, counter, "count")
        # flush/hold chain so the EOF reset has a driver
        hold = net.add_ste(STE(f"{prefix}hold", _NOT_EOF))
        net.connect(upstream, hold)
        net.connect(hold, hold)
        eof = net.add_ste(STE(f"{prefix}eof", _EOF_SET))
        net.connect(hold, eof)
        net.connect(eof, counter, "reset")
        report = net.add_ste(
            STE(f"{prefix}rep", _WILD, reporting=True, report_code=v)
        )
        net.connect(counter, report)

    # -- functional -------------------------------------------------------

    def search(self, queries_bits: np.ndarray) -> RangeSearchResult:
        """Exact functional model of the threshold automata."""
        queries_bits = np.asarray(queries_bits)  # pack_bits validates it
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(f"queries have d={queries_bits.shape[1]}, want {self.d}")
        dist = hamming_cdist_packed(pack_bits(queries_bits), self._packed)
        candidates, distances = [], []
        for qi in range(dist.shape[0]):
            keep = np.nonzero(dist[qi] <= self.radius)[0]
            candidates.append(keep)
            distances.append(dist[qi][keep])
        return RangeSearchResult(candidates, distances)

    def report_reduction(self, queries_bits: np.ndarray) -> float:
        """Report-traffic saving vs the all-report kNN design."""
        res = self.search(queries_bits)
        mean = res.mean_candidates
        return float("inf") if mean == 0 else self.n / mean

"""Jaccard similarity on the AP (Section II-C).

The paper notes that, alongside Hamming distance, "Jaccard similarity
on the AP is well-documented and can be efficiently implemented",
citing Micron's cookbook.  This module provides the two standard
automata formulations for sets encoded as d-bit indicator vectors:

* **Temporal-sort top-k** (:class:`JaccardAPSearch`): a variant of the
  Hamming macro whose match states fire only on dimensions where the
  *encoded vector* has a 1 and the streamed query bit is 1 — the counter
  therefore accumulates the intersection size ``|A ∩ B|``.  The same
  uniform-threshold temporal sort as the kNN design then encodes each
  vector's intersection in its report offset
  (``offset = 2d + L + 2 − |A ∩ B|``).  The host knows ``|A|`` (offline)
  and ``|B|`` (the query), so it recovers exact Jaccard
  ``J = I / (|A| + |B| − I)`` for every vector and selects the top-k.
  Unlike Hamming kNN, report order is by intersection, not by J, so the
  host re-ranks — still O(n) work on 2×32-bit records rather than an
  O(nd) scan.
* **Threshold filter** (:class:`JaccardThresholdFilter`): counters with
  threshold ``tau`` and *no* sort phase — a vector reports iff its
  intersection with the query reaches ``tau``.  Silent vectors send
  nothing, so this is the AP-as-pre-filter pattern: a huge near-data
  reduction in candidates (and report bandwidth) before an exact host
  pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.elements import STE, Counter, CounterMode, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, SOF, SymbolSet
from ..util.bitops import as_bits, pack_bits, popcount_cdist
from .macros import MacroConfig, collector_tree_depth
from .stream import StreamLayout, encode_query_batch

__all__ = ["JaccardResult", "JaccardAPSearch", "JaccardThresholdFilter",
           "build_jaccard_macro", "jaccard_similarity_matrix"]

_WILD = SymbolSet.wildcard()
_SOF_SET = SymbolSet.single(SOF)
_EOF_SET = SymbolSet.single(EOF)
_NOT_EOF = SymbolSet.negated_single(EOF)
_ONE = SymbolSet.single(1)


def jaccard_similarity_matrix(queries: np.ndarray, dataset: np.ndarray) -> np.ndarray:
    """Exact Jaccard similarities, ``(q, d) x (n, d) -> (q, n)`` float64.

    Empty-vs-empty pairs are defined as similarity 1.0.
    """
    qp, dp = pack_bits(queries), pack_bits(dataset)  # pack_bits validates
    inter = popcount_cdist(qp, dp, op=np.bitwise_and)
    union = popcount_cdist(qp, dp, op=np.bitwise_or)
    out = np.ones(inter.shape, dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def build_jaccard_macro(
    network: AutomataNetwork,
    vector: np.ndarray,
    report_code: int,
    prefix: str,
    threshold: int,
    temporal_sort: bool,
    config: MacroConfig = MacroConfig(),
) -> dict:
    """One intersection-counting macro.

    Match state at dimension ``i`` exists only where ``vector[i] == 1``
    and matches the symbol value 1 — exactly the ``|A ∩ B|`` count.
    With ``temporal_sort`` the sorting skeleton of the kNN design is
    appended (uniform threshold = ``d`` expected by the stream layout);
    without it, the counter's own ``threshold`` gates reporting and the
    EOF reset is driven off the star chain.
    """
    vector = np.asarray(vector).ravel()
    d = vector.shape[0]
    guard = network.add_ste(STE(f"{prefix}guard", _SOF_SET, start=StartMode.ALL_INPUT))
    counter = network.add_counter(
        Counter(f"{prefix}ctr", threshold=threshold, mode=CounterMode.PULSE)
    )

    stars, matches = [], []
    upstream = guard
    for i in range(d):
        star = network.add_ste(STE(f"{prefix}star{i}", _WILD))
        network.connect(upstream, star)
        if vector[i]:
            match = network.add_ste(STE(f"{prefix}match{i}", _ONE))
            network.connect(upstream, match)
            matches.append(match)
        stars.append(star)
        upstream = star

    if not matches and not temporal_sort:
        raise ValueError(
            f"vector {prefix!r} encodes the empty set: it can never reach a "
            "threshold and its counter would have no drivers"
        )
    depth = collector_tree_depth(d, config.max_fan_in)
    frontier = matches
    for level in range(depth):
        if not frontier:
            break  # empty set: nothing to collect (sort state still drives)
        width = (len(frontier) + config.max_fan_in - 1) // config.max_fan_in
        nodes = []
        for j in range(width):
            node = network.add_ste(STE(f"{prefix}c{level}_{j}", _WILD))
            for src in frontier[j * config.max_fan_in : (j + 1) * config.max_fan_in]:
                network.connect(src, node)
            nodes.append(node)
        frontier = nodes
    for node in frontier:
        network.connect(node, counter, "count")

    tail = upstream
    for j in range(depth):
        t = network.add_ste(STE(f"{prefix}tail{j}", _WILD))
        network.connect(tail, t)
        tail = t

    if temporal_sort:
        sort_state = network.add_ste(STE(f"{prefix}sort", _NOT_EOF))
        network.connect(tail, sort_state)
        network.connect(sort_state, sort_state)
        network.connect(sort_state, counter, "count")
        eof_state = network.add_ste(STE(f"{prefix}eof", _EOF_SET))
        network.connect(sort_state, eof_state)
    else:
        hold = network.add_ste(STE(f"{prefix}hold", _NOT_EOF))
        network.connect(tail, hold)
        network.connect(hold, hold)
        eof_state = network.add_ste(STE(f"{prefix}eof", _EOF_SET))
        network.connect(hold, eof_state)
    network.connect(eof_state, counter, "reset")

    report = network.add_ste(
        STE(f"{prefix}rep", _WILD, reporting=True, report_code=report_code)
    )
    network.connect(counter, report)
    return {"counter": counter, "report": report, "collector_depth": depth}


@dataclass
class JaccardResult:
    indices: np.ndarray  # (q, k)
    similarities: np.ndarray  # (q, k) float64
    intersections: np.ndarray  # (q, k) int64


class JaccardAPSearch:
    """Top-k Jaccard search via intersection temporal sort + host re-rank."""

    def __init__(self, dataset_bits: np.ndarray, k: int,
                 config: MacroConfig = MacroConfig()):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        self.k = min(int(k), self.n)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self.config = config
        self._sizes = dataset_bits.sum(axis=1).astype(np.int64)  # |A|, offline
        self._packed = pack_bits(dataset_bits)
        self.layout = StreamLayout(
            self.d, collector_tree_depth(self.d, config.max_fan_in)
        )

    def build_network(self) -> AutomataNetwork:
        """The board network (cycle-accurate path; used by tests)."""
        net = AutomataNetwork("jaccard-topk")
        for v in range(self.n):
            build_jaccard_macro(
                net, self.dataset[v], v, f"v{v}_",
                threshold=self.d, temporal_sort=True, config=self.config,
            )
        return net

    def _intersections(self, queries: np.ndarray) -> np.ndarray:
        qp = pack_bits(queries)
        return popcount_cdist(qp, self._packed, op=np.bitwise_and)

    def search(self, queries_bits: np.ndarray) -> JaccardResult:
        """Functional search: exactly the reports the automata produce."""
        queries_bits = np.asarray(queries_bits)  # pack_bits validates it
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(f"queries have d={queries_bits.shape[1]}, want {self.d}")
        inter = self._intersections(queries_bits)  # (q, n)
        q_sizes = queries_bits.sum(axis=1).astype(np.int64)
        union = self._sizes[None, :] + q_sizes[:, None] - inter
        sim = np.ones(inter.shape, dtype=np.float64)
        nz = union > 0
        sim[nz] = inter[nz] / union[nz]

        n_q = queries_bits.shape[0]
        indices = np.empty((n_q, self.k), dtype=np.int64)
        sims = np.empty((n_q, self.k), dtype=np.float64)
        inters = np.empty((n_q, self.k), dtype=np.int64)
        ids = np.arange(self.n, dtype=np.int64)
        for qi in range(n_q):
            order = np.lexsort((ids, -sim[qi]))[: self.k]
            indices[qi] = order
            sims[qi] = sim[qi][order]
            inters[qi] = inter[qi][order]
        return JaccardResult(indices, sims, inters)

    def expected_report_offset(self, intersection: int) -> int:
        """Block-local report cycle for a given intersection count."""
        return self.layout.report_offset(int(intersection))


class JaccardThresholdFilter:
    """AP-as-pre-filter: report vectors whose intersection reaches tau."""

    def __init__(self, dataset_bits: np.ndarray, tau: int,
                 config: MacroConfig = MacroConfig()):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        if tau < 1:
            raise ValueError("tau must be >= 1")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        self.tau = int(tau)
        self.config = config
        self._packed = pack_bits(dataset_bits)

    def build_network(self) -> AutomataNetwork:
        net = AutomataNetwork("jaccard-filter")
        for v in range(self.n):
            build_jaccard_macro(
                net, self.dataset[v], v, f"v{v}_",
                threshold=self.tau, temporal_sort=False, config=self.config,
            )
        return net

    def stream_for(self, queries_bits: np.ndarray) -> np.ndarray:
        """Queries encoded with the standard block layout (pads unused)."""
        layout = StreamLayout(
            self.d, collector_tree_depth(self.d, self.config.max_fan_in)
        )
        return encode_query_batch(queries_bits, layout)  # validates each row

    def candidates(self, queries_bits: np.ndarray) -> list[np.ndarray]:
        """Functional filter: per query, indices with intersection >= tau."""
        qp = pack_bits(queries_bits)  # validates; promotes a single row
        inter = popcount_cdist(qp, self._packed, op=np.bitwise_and)
        return [np.nonzero(inter[qi] >= self.tau)[0] for qi in range(inter.shape[0])]

    def reduction_factor(self, queries_bits: np.ndarray) -> float:
        """Mean candidate-set reduction vs reporting everything."""
        cands = self.candidates(queries_bits)
        mean = np.mean([c.size for c in cands])
        return float("inf") if mean == 0 else self.n / mean

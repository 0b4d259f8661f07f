"""Jaccard similarity on the AP (Section II-C).

The paper notes that, alongside Hamming distance, "Jaccard similarity
on the AP is well-documented and can be efficiently implemented",
citing Micron's cookbook.  Both formulations here, for sets encoded as
d-bit indicator vectors, are :func:`~repro.core.macros.build_vector_macro`
with match states only on the vector's 1-bits (``symbols``), so the
counter accumulates the intersection size ``|A ∩ B|``:

* **Temporal-sort top-k** (:class:`JaccardAPSearch`): the kNN temporal
  sort encodes each vector's intersection in its report offset
  (``offset = 2d + L + 2 − |A ∩ B|``).  The host knows ``|A|`` (offline)
  and ``|B|`` (the query), so it recovers exact Jaccard
  ``J = I / (|A| + |B| − I)`` for every vector and selects the top-k.
  Unlike Hamming kNN, report order is by intersection, not by J, so the
  host re-ranks — O(n) selection on one exact integer key per record
  (the ``jaccard`` workload's, as narrow as kNN's), not an O(nd) scan.
* **Threshold filter** (:class:`JaccardThresholdFilter`):
  ``threshold=tau`` and ``sort=False`` — a vector reports iff its
  intersection with the query reaches ``tau``.  Silent vectors send
  nothing, so this is the AP-as-pre-filter pattern: a huge near-data
  reduction in candidates (and report bandwidth) before an exact host
  pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.network import AutomataNetwork
from ..automata.symbols import SymbolSet
from ..util.bitops import as_bits, pack_bits, popcount_cdist
from .macros import MacroConfig, build_vector_macro
from .stream import encode_query_batch
from .workload import JaccardTopkWorkload, _knn_layout

__all__ = ["JaccardResult", "JaccardAPSearch", "JaccardThresholdFilter",
           "jaccard_similarity_matrix"]

_ONE = SymbolSet.single(1)
_TOPK = JaccardTopkWorkload()


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


def _intersection_network(
    name: str, dataset: np.ndarray, threshold: int, sort: bool, config: MacroConfig
) -> AutomataNetwork:
    """One vector macro per row whose match states sit only on the row's
    1-bits and match 1: its counter counts ``|A ∩ B|``."""
    net = AutomataNetwork(name)
    for v, row in enumerate(dataset):
        build_vector_macro(
            net, row, v, f"v{v}_", config,
            symbols=[_ONE if bit else None for bit in row],
            threshold=threshold, sort=sort,
        )
    return net


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
        # |A| is known offline: the board keeps it beside the packed bits.
        self._board = _TOPK.compile_packed(pack_bits(dataset_bits), self.d, {})
        self.layout = _knn_layout(self.d, config)

    def build_network(self) -> AutomataNetwork:
        """The board network (cycle-accurate path; used by tests)."""
        return _intersection_network(
            "jaccard-topk", self.dataset, self.d, True, self.config
        )

    def search(self, queries_bits: np.ndarray) -> JaccardResult:
        """Functional search: exactly the reports the automata produce,
        re-ranked by the ``jaccard`` workload's one-pass selection."""
        queries_bits = np.asarray(queries_bits)  # pack_bits validates it
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(f"queries have d={queries_bits.shape[1]}, want {self.d}")
        top, _ = _TOPK.execute(self._board, queries_bits, {"k": self.k})
        return JaccardResult(top.indices, top.similarities, top.intersections)

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
        return _intersection_network(
            "jaccard-filter", self.dataset, self.tau, False, self.config
        )

    def stream_for(self, queries_bits: np.ndarray) -> np.ndarray:
        """Queries encoded with the standard block layout (pads unused)."""
        # validates each row
        return encode_query_batch(queries_bits, _knn_layout(self.d, self.config))

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

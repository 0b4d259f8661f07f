"""Jaccard similarity on the AP (Section II-C).

The paper notes that, alongside Hamming distance, "Jaccard similarity
on the AP is well-documented and can be efficiently implemented",
citing Micron's cookbook.  Both formulations here, for sets encoded as
d-bit indicator vectors, are :func:`~repro.core.macros.build_vector_macro`
with match states only on the vector's 1-bits (``symbols``), so the
counter accumulates the intersection size ``|A ∩ B|``:

* **Temporal-sort top-k** (the ``jaccard`` workload,
  :class:`~repro.core.workload.JaccardTopkWorkload`): the kNN temporal
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

import numpy as np

from ..automata.network import AutomataNetwork
from ..util.bitops import as_bits, pack_bits, popcount_cdist
from .macros import MacroConfig
from .workload import _intersection_network

__all__ = ["JaccardThresholdFilter", "jaccard_similarity_matrix"]


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

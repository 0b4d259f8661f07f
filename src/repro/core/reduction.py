"""Statistical activation reduction (Section VI-C, Fig. 7, Table VI).

All ``n`` vectors report every query, which costs
``32 (n + d)`` bits of PCIe report traffic per query (Section VI-C).
Since only the top ``k`` matter, the paper partitions the vector NFAs
into groups of ``p`` and adds a *Local Neighbor Counter* (LNC) per
group: it counts the group's inverted-Hamming-distance counter pulses
and, at threshold ``k'``, resets all of the group's counters —
suppressing every later (more distant) report.

Suppression semantics (validated against Table VI): the LNC's
threshold-crossing output races with the ``k'``-th pulse's report state
and kills it, so a group effectively reports the vectors whose distance
falls among its ``k' − 1`` smallest *distinct* distance values (ties
pulse on the same cycle and share one LNC increment, so a whole tie
cohort reports together).  With ``k' = 1`` nothing ever reports —
exactly the paper's 100 %-incorrect row.

The module provides:

* :func:`build_reduced_group` — the Fig. 7 automata (built on the
  simulator's counter/boolean semantics; the report element is a
  boolean gate ``pulse AND NOT lnc``);
* :class:`ReductionModel` — the fast statistical model used for the
  Table VI Monte-Carlo ("we randomly generate dataset and query
  vectors, partition ..., execute local kNN, and perform global top-k
  sort ... repeat the process 100 times");
* :func:`bandwidth_reduction` — the ``p / k'`` report-traffic saving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.elements import (
    BooleanElement,
    BooleanOp,
    Counter,
    CounterMode,
)
from ..automata.network import AutomataNetwork
from ..util.bitops import hamming_cdist_packed, pack_bits
from ..util.topk import merge_topk, topk_from_distances
from .macros import MacroConfig, build_vector_macro, gate_report

__all__ = [
    "build_reduced_group",
    "build_reduced_network",
    "ReductionModel",
    "ReductionTrialResult",
    "bandwidth_reduction",
]


def bandwidth_reduction(p: int, k_prime: int) -> float:
    """Report-bandwidth saving factor of local suppression (Section VI-C)."""
    if p < 1 or k_prime < 1:
        raise ValueError("p and k' must be >= 1")
    if k_prime > p:
        raise ValueError("k' cannot exceed the group size p")
    return p / k_prime


def build_reduced_group(
    network: AutomataNetwork,
    vectors: np.ndarray,
    report_codes: list[int],
    k_prime: int,
    prefix: str,
    config: MacroConfig = MacroConfig(),
) -> dict:
    """Build ``p`` vector macros sharing one Local Neighbor Counter.

    Per Fig. 7: every vector's inverted-Hamming counter pulse (a) feeds
    the LNC's count port and (b) — through an AND-with-NOT-LNC boolean
    — produces the (reporting) output, so the ``k'``-th pulse and all
    later ones are suppressed while the LNC reset clears the group's
    counters.
    """
    vectors = np.asarray(vectors)
    p, d = vectors.shape
    if len(report_codes) != p:
        raise ValueError("need one report code per vector")
    if not 1 <= k_prime <= p:
        raise ValueError("require 1 <= k' <= p")

    lnc = network.add_counter(
        Counter(f"{prefix}lnc", threshold=k_prime, mode=CounterMode.LATCH)
    )
    lnc_not = network.add_boolean(
        BooleanElement(f"{prefix}lnc_not", BooleanOp.NOT)
    )
    network.connect(lnc, lnc_not, "in")

    handles = []
    for v in range(p):
        # Plain macro, but the *boolean* gate reports so suppression can
        # veto it combinationally.
        h = build_vector_macro(
            network, vectors[v], report_codes[v], f"{prefix}v{v}_", config
        )
        gate_report(network, h.report_state, lnc_not, f"{prefix}v{v}_gate")
        network.connect(h.counter, lnc, "count")
        network.connect(lnc, h.counter, "reset")
        handles.append(h)

    # EOF resets the LNC for the next query block (any macro's EOF state
    # serves; they all activate on the same cycle).
    network.connect(handles[0].eof_state, lnc, "reset")
    return {"lnc": lnc, "gate_prefix": prefix, "macros": handles}


def build_reduced_network(
    dataset: np.ndarray,
    k_prime: int,
    group_size: int = 16,
    config: MacroConfig = MacroConfig(),
    name: str = "knn-reduced",
) -> tuple[AutomataNetwork, list[dict]]:
    """Partition the dataset into LNC groups of ``group_size`` (Fig. 7)."""
    dataset = np.asarray(dataset)
    network = AutomataNetwork(name)
    groups = []
    for g, start in enumerate(range(0, dataset.shape[0], group_size)):
        chunk = dataset[start : start + group_size]
        codes = list(range(start, start + chunk.shape[0]))
        groups.append(
            build_reduced_group(
                network, chunk, codes, k_prime, prefix=f"g{g}_", config=config
            )
        )
    return network, groups


@dataclass
class ReductionTrialResult:
    """Outcome of one randomized reduction trial."""

    correct: bool
    reports_sent: int
    reports_full: int

    @property
    def measured_reduction(self) -> float:
        return self.reports_full / max(1, self.reports_sent)


class ReductionModel:
    """Monte-Carlo accuracy/bandwidth model for activation reduction.

    Reproduces Table VI: for each randomized trial, generate a uniform
    dataset and query, apply per-group suppression, merge the surviving
    reports into a global top-k, and compare against exact kNN.  A trial
    is *incorrect* when the returned distance multiset differs from the
    exact one (with ties, any same-distance vector is an equally correct
    neighbor).
    """

    def __init__(self, d: int, k: int, k_prime: int, p: int = 16, n: int = 1024):
        if not 1 <= k_prime <= p:
            raise ValueError("require 1 <= k' <= p")
        if n % p:
            raise ValueError("n must be a multiple of the group size p")
        self.d, self.k, self.k_prime, self.p, self.n = d, k, k_prime, p, n

    def surviving_reports(
        self, distances: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-group surviving (indices, distances) under LNC suppression."""
        partials = []
        for start in range(0, self.n, self.p):
            gd = distances[start : start + self.p]
            distinct = np.unique(gd)[: self.k_prime - 1]
            keep = np.nonzero(np.isin(gd, distinct))[0]
            if keep.size:
                partials.append((keep + start, gd[keep]))
        return partials

    def trial(self, rng: np.random.Generator) -> ReductionTrialResult:
        data = rng.integers(0, 2, (self.n, self.d), dtype=np.uint8)
        query = rng.integers(0, 2, (1, self.d), dtype=np.uint8)
        dist = hamming_cdist_packed(pack_bits(query), pack_bits(data))[0]
        _, true_d = topk_from_distances(dist, self.k)
        partials = self.surviving_reports(dist)
        sent = sum(idx.size for idx, _ in partials)
        _, got_d = merge_topk(partials, self.k)
        correct = (
            got_d.size == self.k
            and sorted(got_d.tolist()) == sorted(true_d.tolist())
        )
        return ReductionTrialResult(
            correct=correct, reports_sent=sent, reports_full=self.n
        )

    def incorrect_fraction(self, runs: int = 100, seed: int = 0) -> float:
        """Percentage-style failure fraction over ``runs`` trials."""
        rng = np.random.default_rng(seed)
        fails = sum(1 for _ in range(runs) if not self.trial(rng).correct)
        return fails / runs

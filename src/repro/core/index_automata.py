"""Index traversal *inside* the automata — the road the paper didn't take.

Section III-D: "While some index traversals are possible to express as
automata, it is more efficient to factor the index traversal out to the
host processor ... every encoded vector NFA needs to evaluate whether
it is part of the pruned search space by traversing an index NFA.  In
practice, only a few index traversals per query will be relevant making
a vast majority of the traversals unnecessary."

This module *implements* the dismissed design so the argument can be
quantified.  The index is a bit-prefix trie: bucket = the set of
vectors sharing the query's first ``p`` bits (traversal order equals
stream order, so the path is checkable online).  Construction per
bucket:

* a **path automaton** — a chain of ``p`` match states over the bucket's
  prefix bits, ending in a *gate* state that self-loops (``^EOF``) for
  the rest of the block;
* the bucket's ordinary Hamming + sorting macros, with their report
  states replaced by ``AND(report, gate)`` boolean elements.

Every vector's distance is still computed (no compute pruning — the
paper's waste argument), but only vectors in the query's own prefix
bucket *report*, pruning report bandwidth by roughly the bucket count.
The functional model and the cycle-accurate automata agree exactly, and
the benchmark quantifies both sides of the paper's trade: report
reduction achieved vs STE overhead and zero compute saved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..automata.elements import STE, BooleanElement, BooleanOp, StartMode
from ..automata.network import AutomataNetwork
from ..automata.symbols import EOF, SOF, SymbolSet
from ..util.bitops import as_bits, pack_bits
from ..util.topk import hamming_topk
from .macros import MacroConfig, build_vector_macro, collector_tree_depth
from .stream import StreamLayout

__all__ = ["PrefixBucket", "IndexGatedSearch"]

_WILD = SymbolSet.wildcard()
_NOT_EOF = SymbolSet.negated_single(EOF)


@dataclass
class PrefixBucket:
    prefix: tuple[int, ...]
    indices: np.ndarray


class IndexGatedSearch:
    """Bit-prefix-trie index evaluated by the automata themselves."""

    def __init__(
        self,
        dataset_bits: np.ndarray,
        prefix_bits: int,
        config: MacroConfig = MacroConfig(),
    ):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.dataset = dataset_bits
        self.n, self.d = dataset_bits.shape
        if not 1 <= prefix_bits < self.d:
            raise ValueError(f"prefix_bits must be in [1, {self.d})")
        self.prefix_bits = int(prefix_bits)
        self.config = config
        self._packed = pack_bits(dataset_bits)
        self.layout = StreamLayout(
            self.d, collector_tree_depth(self.d, config.max_fan_in)
        )

        self.buckets: list[PrefixBucket] = []
        keys = {}
        for v in range(self.n):
            key = tuple(int(b) for b in dataset_bits[v, : self.prefix_bits])
            keys.setdefault(key, []).append(v)
        for key in sorted(keys):
            self.buckets.append(
                PrefixBucket(key, np.array(keys[key], dtype=np.int64))
            )

    # -- automata ----------------------------------------------------------

    def build_network(self) -> AutomataNetwork:
        net = AutomataNetwork(f"trie-gated-p{self.prefix_bits}")
        for bi, bucket in enumerate(self.buckets):
            gate = self._build_path_automaton(net, bi, bucket.prefix)
            for v in bucket.indices:
                h = build_vector_macro(
                    net,
                    self.dataset[v],
                    report_code=-1,
                    prefix=f"b{bi}v{v}_",
                    config=self.config,
                )
                # silence the STE reporter; the gated boolean reports
                ste = net.elements[h.report_state]
                ste.reporting = False
                ste.report_code = None
                gated = net.add_boolean(
                    BooleanElement(
                        f"b{bi}v{v}_out", BooleanOp.AND,
                        reporting=True, report_code=int(v),
                    )
                )
                net.connect(h.report_state, gated, "in")
                net.connect(gate, gated, "in")
        return net

    def _build_path_automaton(
        self, net: AutomataNetwork, bi: int, prefix: tuple[int, ...]
    ) -> str:
        """Chain matching the bucket's prefix bits; returns the gate state."""
        guard = net.add_ste(
            STE(f"t{bi}_guard", SymbolSet.single(SOF), start=StartMode.ALL_INPUT)
        )
        upstream = guard
        for i, bit in enumerate(prefix):
            state = net.add_ste(STE(f"t{bi}_p{i}", SymbolSet.single(int(bit))))
            net.connect(upstream, state)
            upstream = state
        gate = net.add_ste(STE(f"t{bi}_gate", _NOT_EOF))
        net.connect(upstream, gate)
        net.connect(gate, gate)  # hold through the sort phase
        return gate

    # -- functional -----------------------------------------------------------

    def query_bucket(self, query_bits: np.ndarray) -> int:
        """Bucket id whose prefix the query matches, or -1."""
        query_bits = as_bits(query_bits, "query").ravel()
        key = tuple(int(b) for b in query_bits[: self.prefix_bits])
        for bi, bucket in enumerate(self.buckets):
            if bucket.prefix == key:
                return bi
        return -1

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Functional model: per query, top-k among its bucket's reports
        (one :func:`~repro.util.topk.hamming_topk` call per bucket)."""
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        n_q = queries_bits.shape[0]
        indices = np.full((n_q, k), -1, dtype=np.int64)
        distances = np.full((n_q, k), self.d + 1, dtype=np.int64)
        groups: dict[int, list[int]] = {}
        for qi in range(n_q):
            groups.setdefault(self.query_bucket(queries_bits[qi]), []).append(qi)
        groups.pop(-1, None)
        qp = pack_bits(queries_bits)
        reports = 0
        for bi, rows in groups.items():
            members = self.buckets[bi].indices
            reports += members.size * len(rows)
            idx, dist = hamming_topk(qp[rows], self._packed[members], k, self.d)
            kk = idx.shape[1]
            indices[rows, :kk] = members[idx]
            distances[rows, :kk] = dist
        stats = {
            "reports": reports,
            "reports_unpruned": n_q * self.n,
            "report_reduction": (n_q * self.n) / max(1, reports),
            "distance_computations": n_q * self.n,  # nothing pruned on-fabric
            "n_buckets": len(self.buckets),
        }
        return indices, distances, stats

    def ste_overhead(self) -> int:
        """Extra states the in-fabric index costs vs the plain design."""
        per_bucket = 1 + self.prefix_bits + 1  # guard + path + gate
        return len(self.buckets) * per_bucket

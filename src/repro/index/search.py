"""Index-accelerated search on the AP (Section III-D, Table V).

The paper's key design decision: index traversal stays on the *host*
("it is more efficient to factor the index traversal out to the host
processor in software"), and the AP scans one bucket per board
configuration — bucket size is naturally capped by board capacity
(512-1024 vectors), and queries hitting the same bucket are batched so
each distinct bucket is loaded (one reconfiguration) at most once per
query batch.

:class:`IndexedAPSearch` runs that flow functionally and produces the
event counts (distinct buckets loaded, bucket visits, traversal
distance ops) that the Table V analytical run-time model consumes:

``T_AP = T_traverse(host) + loads × t_reconfig + visits × d × t_cycle``

compared against the CPU doing the identical traversal plus its own
linear bucket scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ap.device import APDeviceSpec, GEN1
from ..ap.runtime import RuntimeCounters
from ..perf.models import CPUModel, ap_time
from ..util.bitops import as_bits
from .base import SpatialIndex

__all__ = ["IndexedSearchStats", "IndexedAPSearch", "indexed_runtime_model"]


@dataclass
class IndexedSearchStats:
    """Event counts from one indexed query batch."""

    n_queries: int
    distinct_buckets_loaded: int  # board reconfigurations
    bucket_visits: int  # (query, bucket) scan events, batched per bucket
    candidates_scanned: int  # total vectors streamed against
    traversal_distance_ops: int  # host-side index distance calculations


class IndexedAPSearch:
    """Host-traversed index + AP bucket scans (Section III-D)."""

    def __init__(self, index: SpatialIndex, device: APDeviceSpec = GEN1):
        self.index = index
        self.device = device

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, IndexedSearchStats]:
        """Traverse on the host once, then scan the selected buckets.

        The per-bucket scan is functionally an exact kNN over the
        bucket (that is precisely what one AP board configuration
        computes — see :class:`repro.core.engine.APSimilaritySearch`),
        and buckets from different trees/tables overlap, so the answer
        is the exact top-k over each query's bucket union:
        :meth:`SpatialIndex.scan`.  The stats count what the AP does —
        each distinct bucket loaded once per batch ("we batch searches
        to the same bucket where possible", Section V-B), one visit per
        (query, bucket) pair; the cycle-level equivalence is covered by
        the engine's own tests.
        """
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        index = self.index

        ops_before = getattr(index, "traversal_distance_ops", 0)
        bucket_ids = [index.query_buckets(q) for q in queries_bits]
        ops_after = getattr(index, "traversal_distance_ops", 0)

        indices, distances, _ = index.scan(queries_bits, bucket_ids, k)
        visited = [set(ids) for ids in bucket_ids]
        stats = IndexedSearchStats(
            n_queries=queries_bits.shape[0],
            distinct_buckets_loaded=len(set().union(*visited)),
            bucket_visits=sum(map(len, visited)),
            candidates_scanned=sum(
                index.buckets[b].size for ids in visited for b in ids
            ),
            traversal_distance_ops=ops_after - ops_before,
        )
        return indices, distances, stats


def indexed_runtime_model(
    stats: IndexedSearchStats,
    d: int,
    device: APDeviceSpec,
    host_model: CPUModel,
    single_thread_host: bool = True,
) -> dict[str, float]:
    """Table V analytical model: AP-side and CPU-side indexed run times.

    * traversal: host distance ops priced at the host's per-candidate
      scan cost (a + b·d per distance);
    * AP: one reconfiguration per distinct bucket + ``d`` cycles per
      (query, bucket) visit (the batched bucket scan);
    * CPU: the same traversal plus a linear scan of every candidate.
    """
    per_pair = host_model.a_s + host_model.b_s * d
    if single_thread_host:
        per_pair *= host_model.platform.cores or 1
    t_traverse = stats.traversal_distance_ops * per_pair
    reconfig_s, fabric_s = ap_time(
        RuntimeCounters(
            configurations=stats.distinct_buckets_loaded,
            symbols_streamed=stats.bucket_visits * d,
        ),
        device,
    )
    t_ap = t_traverse + reconfig_s + fabric_s
    t_cpu = t_traverse + stats.candidates_scanned * per_pair
    return {
        "traversal_s": t_traverse,
        "ap_s": t_ap,
        "cpu_s": t_cpu,
        "speedup": t_cpu / t_ap if t_ap > 0 else float("inf"),
    }

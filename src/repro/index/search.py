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

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ..ap.device import APDeviceSpec, GEN1
from ..perf.models import CPUModel
from ..util.bitops import as_bits, hamming_cdist_packed, pack_bits
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
        """Traverse on the host, batch per bucket, scan buckets on the AP.

        The per-bucket scan is functionally an exact kNN over the
        bucket (that is precisely what one AP board configuration
        computes — see :class:`repro.core.engine.APSimilaritySearch`),
        so it is evaluated with the vectorized exact model here; the
        cycle-level equivalence is covered by the engine's own tests.
        """
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        n_q = queries_bits.shape[0]
        k = int(k)

        ops_before = getattr(self.index, "traversal_distance_ops", 0)
        # Host traversal: bucket ids per query, then invert to batch
        # queries per bucket ("we batch searches to the same bucket
        # where possible", Section V-B).
        per_bucket: dict[int, list[int]] = defaultdict(list)
        visits = 0
        for qi in range(n_q):
            for b in set(self.index.query_buckets(queries_bits[qi])):
                per_bucket[b].append(qi)
                visits += 1
        ops_after = getattr(self.index, "traversal_distance_ops", 0)

        qp = pack_bits(queries_bits)
        partials: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(n_q)
        ]
        candidates = 0
        data_packed = pack_bits(self.index.dataset)
        for b, q_ids in per_bucket.items():
            bucket_idx = self.index.buckets[b]
            candidates += bucket_idx.size * len(q_ids)
            dist = hamming_cdist_packed(qp[q_ids], data_packed[bucket_idx])
            for row, qi in enumerate(q_ids):
                kk = min(k, bucket_idx.size)
                order = np.lexsort((bucket_idx, dist[row]))[:kk]
                partials[qi].append((bucket_idx[order], dist[row][order]))

        indices = np.full((n_q, k), -1, dtype=np.int64)
        distances = np.full((n_q, k), self.index.d + 1, dtype=np.int64)
        for qi in range(n_q):
            if not partials[qi]:
                continue
            # Buckets from different trees/tables overlap, so the same
            # vector can report from several board loads: deduplicate by
            # ID before the global top-k (duplicates carry equal
            # distances, so keeping any copy is correct).
            all_idx = np.concatenate([i for i, _ in partials[qi]])
            all_d = np.concatenate([d for _, d in partials[qi]])
            uniq, first = np.unique(all_idx, return_index=True)
            ud = all_d[first]
            order = np.lexsort((uniq, ud))[:k]
            indices[qi, : order.size] = uniq[order]
            distances[qi, : order.size] = ud[order]

        stats = IndexedSearchStats(
            n_queries=n_q,
            distinct_buckets_loaded=len(per_bucket),
            bucket_visits=visits,
            candidates_scanned=candidates,
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
    t_ap = (
        t_traverse
        + stats.distinct_buckets_loaded * device.reconfiguration_latency_s
        + stats.bucket_visits * d / device.clock_hz
    )
    t_cpu = t_traverse + stats.candidates_scanned * per_pair
    return {
        "traversal_s": t_traverse,
        "ap_s": t_ap,
        "cpu_s": t_cpu,
        "speedup": t_cpu / t_ap if t_ap > 0 else float("inf"),
    }

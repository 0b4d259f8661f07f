"""AP compiler model: placement, routing pressure, and resource reports.

The real AP toolchain (``apadmin``) compiles ANML into a board image and
reports the *rectangular block area* consumed — the figure the paper's
Section V-A utilization numbers come from.  We model compilation in two
stages:

1. **Structural placement** — every weakly-connected component of the
   network (one NFA) is assigned to a half core; an NFA larger than
   24,576 states is rejected (Section II-B).  Within a half core,
   element counts are converted to *block* demand: a block supplies 256
   STEs, 4 counters, 12 booleans, and 32 reporting STEs, and the demand
   of a component is the max over those four resource ratios.
2. **Routing model** — real placements do not pack STEs densely: high
   fan-out nets (the vector ladder, collector trees) spread logic out.
   The paper observes this directly (vector packing "is ineffective in
   practice ... due to the increased routing pressure", Section VI-A).
   We model it as a *placement efficiency* — the fraction of a block's
   STEs that end up usable — calibrated against the paper's published
   apadmin reports (0.417/0.909/0.786 board utilization for the three
   workloads give efficiencies of 0.19-0.22; we default to their mean,
   0.21).  A fan-out-dependent penalty degrades the efficiency further
   for designs with high-fan-out nets such as packed vector ladders,
   which reproduces the paper's observation that packing compiles
   poorly on Gen 1 tooling.

The compiler also reports per-design routability so the vector-packing
experiment can show "placed but only partially routed" outcomes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from ..automata.elements import STE, BooleanElement, Counter
from ..automata.network import AutomataNetwork
from ..perf import metrics as _metrics
from .device import APDeviceSpec, GEN1

__all__ = [
    "RoutingModel",
    "CompileError",
    "ComponentPlacement",
    "CompilationReport",
    "APCompiler",
    "BoardImageCache",
    "CacheStats",
    "dataset_digest",
    "partition_cache_key",
]


class CompileError(ValueError):
    """Raised when a network cannot be placed on the device."""


@dataclass(frozen=True)
class RoutingModel:
    """Placement-efficiency + routability model calibrated to the paper.

    ``base_efficiency`` is the usable fraction of each block's STEs for
    well-behaved designs, back-solved from the paper's apadmin
    utilization reports (Section V-A).  Fan-out above
    ``fanout_threshold`` erodes it mildly (congested nets spread logic).

    Routability is a separate, hard verdict modelling the Gen 1 routing
    matrix: a component is *fully routable* only if no state drives more
    than ``routing_limit`` nets AND its edge density (edges per state)
    stays under ``max_edge_density``.  Packed vector ladders violate
    both — each rung feeds two next-rung states plus one collector tap
    per packed vector sharing the bit, and the shared sort state fans
    out to every packed counter — reproducing the paper's "placed but
    only partially routed" Gen 1 outcome (Section VI-A).
    """

    base_efficiency: float = 0.21
    fanout_threshold: int = 4
    fanout_penalty: float = 0.004
    min_efficiency: float = 0.02
    routing_limit: int = 8
    max_edge_density: float = 3.0

    def efficiency(self, max_fan_out: int) -> float:
        excess = max(0, max_fan_out - self.fanout_threshold)
        eff = self.base_efficiency - self.fanout_penalty * excess
        return max(self.min_efficiency, eff)

    def fully_routable(self, max_fan_out: int, edge_density: float = 0.0) -> bool:
        return (
            max_fan_out <= self.routing_limit
            and edge_density <= self.max_edge_density
        )


IDEAL_ROUTING = RoutingModel(
    base_efficiency=1.0, fanout_penalty=0.0, routing_limit=10**9,
    max_edge_density=float("inf"),
)


@dataclass
class ComponentPlacement:
    """Placement record for one NFA (weakly-connected component)."""

    n_stes: int
    n_counters: int
    n_booleans: int
    n_reporting: int
    max_fan_out: int
    edge_density: float  # edges per element, a routing-pressure proxy
    blocks: float  # fractional rectangular block area
    half_core: int


@dataclass
class CompilationReport:
    """Result of compiling one network for one device."""

    device: APDeviceSpec
    placements: list[ComponentPlacement]
    blocks_used: float
    utilization: float  # fraction of the device's rectangular block area
    fully_routable: bool
    n_components: int
    n_stes: int
    n_counters: int
    n_booleans: int
    n_reporting: int
    half_cores_used: int
    notes: list[str] = field(default_factory=list)

    @property
    def fits(self) -> bool:
        return self.utilization <= 1.0 + 1e-9


class APCompiler:
    """Places automata networks onto an AP device model."""

    def __init__(
        self,
        device: APDeviceSpec = GEN1,
        routing: RoutingModel = RoutingModel(),
    ):
        self.device = device
        self.routing = routing

    # -- per-component accounting ---------------------------------------

    def _component_demand(
        self, network: AutomataNetwork, component: set[str]
    ) -> ComponentPlacement:
        n_stes = n_counters = n_booleans = n_reporting = 0
        max_fan_out = 0
        n_edges = 0
        for name in component:
            el = network.elements[name]
            if isinstance(el, STE):
                n_stes += 1
            elif isinstance(el, Counter):
                n_counters += 1
            elif isinstance(el, BooleanElement):
                n_booleans += 1
            if getattr(el, "reporting", False):
                n_reporting += 1
            out_edges = network.out_edges(name)
            n_edges += len(out_edges)
            max_fan_out = max(max_fan_out, len(out_edges))
        n_elements = max(1, n_stes + n_counters + n_booleans)
        if n_stes > self.device.max_nfa_states:
            raise CompileError(
                f"NFA with {n_stes} states exceeds the per-half-core limit "
                f"of {self.device.max_nfa_states} (NFAs cannot span AP cores)"
            )
        for name in component:
            el = network.elements[name]
            if isinstance(el, Counter) and el.threshold > self.device.max_counter_threshold:
                raise CompileError(
                    f"counter {name!r} threshold {el.threshold} exceeds the "
                    f"{self.device.counter_bits}-bit counter register "
                    f"({self.device.max_counter_threshold} max); re-partition "
                    "the computation"
                )
        eff = self.routing.efficiency(max_fan_out)
        d = self.device
        blocks = max(
            n_stes / (d.stes_per_block * eff),
            n_counters / d.counters_per_block,
            n_booleans / d.booleans_per_block,
            n_reporting / d.reporting_stes_per_block,
        )
        return ComponentPlacement(
            n_stes=n_stes,
            n_counters=n_counters,
            n_booleans=n_booleans,
            n_reporting=n_reporting,
            max_fan_out=max_fan_out,
            edge_density=n_edges / n_elements,
            blocks=blocks,
            half_core=-1,
        )

    # -- compilation -----------------------------------------------------

    def compile(self, network: AutomataNetwork) -> CompilationReport:
        """Place every NFA of ``network``; raise :class:`CompileError` only
        when a single NFA violates a hard constraint.  Over-capacity
        networks compile with ``utilization > 1`` so callers can size
        partitions (the engine uses :meth:`max_instances` instead)."""
        network.validate()
        components = network.connected_components()
        placements = [self._component_demand(network, c) for c in components]

        # First-fit-decreasing packing of components into half cores at
        # block granularity; an NFA must live entirely inside one half core.
        order = sorted(range(len(placements)), key=lambda i: -placements[i].blocks)
        capacity = float(self.device.blocks_per_half_core)
        free: list[float] = []
        for i in order:
            p = placements[i]
            need = p.blocks
            if need > capacity + 1e-9:
                raise CompileError(
                    f"NFA needs {need:.1f} blocks > {capacity:.0f} per half core"
                )
            for hc, avail in enumerate(free):
                if need <= avail + 1e-9:
                    free[hc] -= need
                    p.half_core = hc
                    break
            else:
                free.append(capacity - need)
                p.half_core = len(free) - 1

        blocks_used = sum(p.blocks for p in placements)
        utilization = blocks_used / self.device.total_blocks
        routable = all(
            self.routing.fully_routable(p.max_fan_out, p.edge_density)
            for p in placements
        )
        notes = []
        if not routable:
            notes.append(
                "placed but only partially routed: fan-out pressure exceeds "
                "the Gen 1 routing matrix capability (cf. Section VI-A)"
            )
        if len(free) > self.device.half_cores:
            notes.append(
                f"requires {len(free)} half cores but the device has "
                f"{self.device.half_cores}; network exceeds one board image"
            )
        return CompilationReport(
            device=self.device,
            placements=placements,
            blocks_used=blocks_used,
            utilization=utilization,
            fully_routable=routable,
            n_components=len(placements),
            n_stes=sum(p.n_stes for p in placements),
            n_counters=sum(p.n_counters for p in placements),
            n_booleans=sum(p.n_booleans for p in placements),
            n_reporting=sum(p.n_reporting for p in placements),
            half_cores_used=len(free),
            notes=notes,
        )

    def max_instances(self, template: AutomataNetwork) -> int:
        """How many copies of ``template`` (one macro/NFA) fit on the board.

        Accounts for both block-area and half-core-granularity packing;
        used by the engine to size dataset partitions (Section III-C).
        """
        report = self.compile(template)
        per_instance = sum(p.blocks for p in report.placements)
        if per_instance <= 0:
            raise CompileError("template consumes no resources")
        per_half_core = int(self.device.blocks_per_half_core / per_instance)
        if per_half_core < 1:
            raise CompileError("template does not fit in one half core")
        return per_half_core * self.device.half_cores


# -- compiled board-image cache ------------------------------------------


# Hash the payload in bounded row chunks so digesting an mmap-backed
# partition (repro.core.dataset.MmapStore) faults in at most this many
# bytes at once instead of materializing the whole payload.
_DIGEST_CHUNK_BYTES = 1 << 22


def dataset_digest(dataset_bits: np.ndarray) -> str:
    """Content hash of a binary partition (shape-disambiguated).

    Streams the rows through sha1 in bounded chunks, so the digest of
    a file-backed (mmap) partition never materializes the payload in
    RAM.  The value is byte-identical to hashing ``shape + raw bytes``
    in one shot — mmap and in-memory copies of the same data share
    compile-cache entries.
    """
    dataset_bits = np.asarray(dataset_bits, dtype=np.uint8)
    n, d = dataset_bits.shape
    h = hashlib.sha1()
    h.update(np.int64(n).tobytes())
    h.update(np.int64(d).tobytes())
    rows_per_chunk = max(1, _DIGEST_CHUNK_BYTES // max(1, d))
    for lo in range(0, n, rows_per_chunk):
        chunk = np.ascontiguousarray(dataset_bits[lo : lo + rows_per_chunk])
        h.update(chunk.data)
    return h.hexdigest()


def partition_cache_key(
    dataset_bits: np.ndarray | None,
    macro_config: Hashable,
    device: APDeviceSpec,
    extra: tuple = (),
    *,
    digest: str | None = None,
) -> tuple:
    """Content-addressed key for one board partition's cache entry.

    The key is ``(sha1(partition bytes + shape), macro_config, device,
    *extra)``: identical partition *content* hashes to the same key —
    regardless of where the partition sits in its dataset — so
    overlapping shards and repeated searches share entries, which must
    therefore be position-independent (partition-local indices,
    re-based at merge time).  ``extra`` tells apart entries the same
    content can produce; ``digest`` lets callers reuse a precomputed
    :func:`dataset_digest` instead of re-hashing the bytes.  Only the
    request-path benchmark's stepwise replay keys with it: a board's
    entry is its packed words whatever the workload, so
    :class:`~repro.core.workload.WorkloadSearch` keys it ``(digest,
    "words")``.
    """
    if digest is None:
        if dataset_bits is None:
            raise ValueError("need dataset_bits or a precomputed digest")
        digest = dataset_digest(dataset_bits)
    return (digest, macro_config, device, *extra)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for a :class:`BoardImageCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _cache_metrics():
    """Process-wide cache series (all cache instances feed one family)."""
    reg = _metrics.get_registry()
    return (
        reg.counter(
            "repro_cache_hits_total",
            "Board-image cache hits by serving tier.",
            labelnames=("tier",),
        ),
        reg.counter(
            "repro_cache_misses_total",
            "Board-image cache misses (artifact had to be compiled).",
        ),
        reg.counter(
            "repro_cache_evictions_total",
            "Board-image cache evictions by tier.",
            labelnames=("tier",),
        ),
    )


class BoardImageCache:
    """LRU-bounded cache of each board's packed row words (Section III-C).

    The paper assumes partition images are "precompiled into a set of
    board images"; this cache is the in-memory version of that
    assumption for a long-lived service.  An entry is one board's
    :func:`~repro.util.bitops.pack_bits` row words, keyed ``(digest,
    "words")`` by :class:`~repro.core.workload.WorkloadSearch`: the
    first search over a board packs it, every later search — by any
    workload's engine over any shard holding the same rows — reuses
    the words.  Eviction is least-recently-used.  A worker settles a
    pass's boards in one transaction, :meth:`lookup` then :meth:`store`
    (the misses packed in between, outside the lock), which leaves what
    a ``get`` (then ``put`` on a miss) per board in row order would.

    Thread-safe: the engine's ``backend="thread"`` workers consult one
    shared instance concurrently, so every operation holds an internal
    lock (entry construction happens outside it, so it is only ever
    held for dict bookkeeping).
    """

    DEFAULT_MAX_ENTRIES = 64

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        hits, misses, evictions = _cache_metrics()
        self._m_hit = hits.labels(tier="memory")
        self._m_miss = misses
        self._m_evict = evictions.labels(tier="memory")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, keys) -> list:
        """Each key's entry or None, counting and refreshing nothing:
        :meth:`store` settles the transaction."""
        with self._lock:
            return [self._entries.get(key) for key in keys]

    def store(self, keys, entries) -> int:
        """Settle a :meth:`lookup` key by key: a present key is a hit
        and refreshed, an absent one a miss whose entry (looked up or
        built) is inserted.  Returns the hits."""
        hits = evictions = 0
        with self._lock:
            for key, entry in zip(keys, entries):
                if key in self._entries:
                    self._entries.move_to_end(key)
                    hits += 1
                else:
                    evictions += self._insert(key, entry)
            self._count(hits, len(keys) - hits, evictions)
        return hits

    def record_hits(self, n_boards: int) -> None:
        """Count ``n_boards`` boards an engine served without a compile
        and without a lookup: a functional pass over a packed store
        runs on a view of the stored row words, so there is no entry
        to hold — but the boards were not recompiled, which is what
        ``hits`` (and ``repro_cache_hits_total``) report."""
        with self._lock:
            self._count(n_boards, 0, 0)

    def _insert(self, key: tuple, value: Any) -> int:
        """Insert (or refresh) under the lock; returns the evictions."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) <= self.max_entries:
            return 0
        self._entries.popitem(last=False)
        return 1

    def _count(self, hits: int, misses: int, evictions: int) -> None:
        """Under the lock: the stats, and one bump per metric."""
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        for metric, n in ((self._m_hit, hits), (self._m_miss, misses),
                          (self._m_evict, evictions)):
            if n:
                metric.inc(n)

    # -- compatibility adapters --------------------------------------------
    # benchmarks/e2e's stepwise replay (e2elib/stepwise.py) looks boards
    # up one at a time through these two; they go with that replay
    # (ROADMAP item 1(b)).

    def get(self, key: tuple) -> Any | None:
        """Return the cached entry or None; a hit refreshes recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            self._count(int(value is not None), int(value is None), 0)
        return value

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry if full."""
        with self._lock:
            self._count(0, 0, self._insert(key, value))

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

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
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
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
    """Content-addressed cache key for one compiled board partition.

    The key is ``(sha1(partition bytes + shape), macro_config, device,
    *extra)``: identical partition *content* compiled under the same
    macro parameters for the same device generation hashes to the same
    key — regardless of where the partition sits in its engine's
    dataset — so overlapping shards and repeated ``search`` calls
    share compiled artifacts.  Cached artifacts must therefore be
    position-independent: the engine compiles partitions with
    partition-local report codes and re-bases them at decode time.
    ``extra`` disambiguates artifact flavors the same content can
    produce (``"image"`` vs ``"functional"`` back-ends); ``digest``
    lets callers reuse a precomputed :func:`dataset_digest` instead of
    re-hashing the bytes on every lookup.
    """
    if digest is None:
        if dataset_bits is None:
            raise ValueError("need dataset_bits or a precomputed digest")
        digest = dataset_digest(dataset_bits)
    return (digest, macro_config, device, *extra)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for a :class:`BoardImageCache`.

    ``disk_hits`` counts the subset of ``hits`` served from the
    on-disk store (``cache_dir=``) rather than memory — the warm-start
    figure: a freshly restarted service whose every partition loads
    from disk recompiles nothing.  ``disk_evictions`` counts artifacts
    garbage-collected from the on-disk store to honor
    ``max_disk_entries=``/``max_disk_bytes=`` budgets (``evictions``
    remains memory-tier only).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_evictions: int = 0

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
    """LRU-bounded cache of compiled board artifacts (Section III-C).

    The paper assumes partition images are "precompiled into a set of
    board images"; this cache is the in-memory version of that
    assumption for a long-lived service: the first ``search`` over a
    partition pays compilation (network build, placement, simulator
    construction), every later search — including searches by *other*
    engines sharing the cache over overlapping shards — reuses the
    artifact.  Keys come from :func:`partition_cache_key`; values are
    opaque (the engine stores :class:`~repro.ap.runtime.BoardImage`
    objects for the cycle-accurate back-end and functional boards for
    the fast one).  Eviction is least-recently-used.

    Thread-safe: the engine's ``backend="thread"`` workers consult one
    shared instance concurrently, so every operation holds an internal
    lock (entry construction and ``cache_dir`` disk I/O both happen
    outside the lock, so it is only ever held for dict bookkeeping).

    ``cache_dir`` marries the in-memory LRU with an on-disk artifact
    store (the persistent sibling of :mod:`repro.core.images`' ANML
    libraries): every :meth:`put` also pickles the artifact under a
    key-derived file name, and a memory miss falls through to disk
    before being declared a miss.  Memory eviction never deletes disk
    entries, so the working set can exceed ``max_entries`` across
    restarts — a restarted service pointed at the same directory
    starts warm and recompiles nothing.  The directory is trusted
    (artifacts are pickles); share it only between hosts you control.

    By default disk entries persist indefinitely; ``max_disk_entries=``
    and/or ``max_disk_bytes=`` bound the store with least-recently-used
    garbage collection (disk hits refresh recency via mtime): after
    every disk write the oldest artifacts are deleted until both
    budgets hold, so a bounded directory never exceeds them —
    ``CacheStats.disk_evictions`` counts the deletions.  Budgets are
    enforced strictly: a single artifact larger than ``max_disk_bytes``
    is itself collected (the memory tier keeps serving it).
    """

    DEFAULT_MAX_ENTRIES = 64

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        cache_dir: str | Path | None = None,
        max_disk_entries: int | None = None,
        max_disk_bytes: int | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_disk_entries is not None and max_disk_entries < 1:
            raise ValueError("max_disk_entries must be >= 1")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be >= 1")
        if cache_dir is None and (
            max_disk_entries is not None or max_disk_bytes is not None
        ):
            raise ValueError("disk budgets require cache_dir")
        self.max_entries = int(max_entries)
        self.max_disk_entries = (
            int(max_disk_entries) if max_disk_entries is not None else None
        )
        self.max_disk_bytes = (
            int(max_disk_bytes) if max_disk_bytes is not None else None
        )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.RLock()
        # Serializes this process's disk GC scans; deletions still
        # tolerate races with other processes sharing the directory.
        self._disk_lock = threading.Lock()
        self.stats = CacheStats()
        hits, misses, evictions = _cache_metrics()
        self._m_hit_mem = hits.labels(tier="memory")
        self._m_hit_disk = hits.labels(tier="disk")
        self._m_miss = misses
        self._m_evict_mem = evictions.labels(tier="memory")
        self._m_evict_disk = evictions.labels(tier="disk")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        """Membership in the in-memory tier (disk is consulted by get)."""
        with self._lock:
            return key in self._entries

    def _disk_path(self, key: tuple) -> Path:
        # Key components (digest string, frozen dataclasses, enums) all
        # repr deterministically, so the file name is stable across
        # processes and restarts.
        return self.cache_dir / (
            hashlib.sha1(repr(key).encode()).hexdigest() + ".boardimage.pkl"
        )

    def _disk_load(self, key: tuple) -> Any | None:
        path = self._disk_path(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Missing file or an artifact written by an incompatible
            # library version: treat as a miss and recompile.
            return None
        try:
            # A disk hit refreshes LRU recency for the disk GC: mtime
            # is the store's recency clock.
            os.utime(path)
        except OSError:
            pass
        return value

    def _disk_store(self, key: tuple, value: Any) -> None:
        path = self._disk_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            with open(tmp, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: readers never see half a file
        except (OSError, pickle.PicklingError, TypeError, AttributeError,
                RecursionError):
            # Persistence is best-effort: neither a full disk nor an
            # artifact pickle refuses to serialize (in-process backends
            # never otherwise require picklability) may fail the search
            # that produced it.  The memory tier keeps serving it.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self._disk_gc()

    def _disk_gc(self) -> None:
        """Delete least-recently-used disk artifacts until the
        ``max_disk_entries``/``max_disk_bytes`` budgets both hold.

        Runs after every successful disk write, so a bounded directory
        never exceeds its budget between puts.  Races with other
        processes GC'ing the same directory are benign: a file another
        process already deleted just stops counting.
        """
        if self.max_disk_entries is None and self.max_disk_bytes is None:
            return
        with self._disk_lock:
            entries = []
            try:
                candidates = list(self.cache_dir.glob("*.boardimage.pkl"))
            except OSError:
                return
            for path in candidates:
                try:
                    st = path.stat()
                except OSError:
                    continue  # deleted underneath us
                entries.append((st.st_mtime_ns, st.st_size, path))
            entries.sort()  # oldest first; path disambiguates mtime ties
            count = len(entries)
            total = sum(size for _, size, _ in entries)
            for _, size, path in entries:
                over_entries = (
                    self.max_disk_entries is not None
                    and count > self.max_disk_entries
                )
                over_bytes = (
                    self.max_disk_bytes is not None and total > self.max_disk_bytes
                )
                if not over_entries and not over_bytes:
                    break
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    continue  # undeletable: skip, try the next-oldest
                count -= 1
                total -= size
                with self._lock:
                    self.stats.disk_evictions += 1
                self._m_evict_disk.inc()

    def get(self, key: tuple) -> Any | None:
        """Return the cached artifact or None; a hit refreshes recency.

        Memory first, then (with ``cache_dir``) the on-disk store; a
        disk hit is promoted into memory.  Disk I/O happens *outside*
        the lock — the lock is only ever held for dict bookkeeping, so
        thread workers never serialize on each other's pickle loads.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._m_hit_mem.inc()
                return value
        if self.cache_dir is not None:
            value = self._disk_load(key)
            if value is not None:
                # Two threads may race the same disk entry; both loads
                # return equivalent artifacts and _insert is idempotent.
                with self._lock:
                    self._insert(key, value)
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                self._m_hit_disk.inc()
                return value
        with self._lock:
            self.stats.misses += 1
        self._m_miss.inc()
        return None

    def record_hits(self, n_boards: int) -> None:
        """Count ``n_boards`` boards an engine served without a compile
        and without a lookup: a functional pass over a packed store
        runs on a view of the stored row words, so there is no artifact
        to hold — but the boards were not recompiled, which is what
        ``hits`` (and ``repro_cache_hits_total``) report."""
        with self._lock:
            self.stats.hits += n_boards
        self._m_hit_mem.inc(n_boards)

    def _insert(self, key: tuple, value: Any) -> None:
        """Memory-tier insert + LRU eviction (callers hold the lock)."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_evict_mem.inc()

    def put(self, key: tuple, value: Any) -> None:
        """Insert (or refresh) an artifact, evicting the LRU entry if full.

        The disk write happens outside the lock (concurrent writers of
        the same key both produce a complete file; the atomic rename
        makes the last one win).
        """
        with self._lock:
            self._insert(key, value)
        if self.cache_dir is not None:
            self._disk_store(key, value)

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries persist by design)."""
        with self._lock:
            self._entries.clear()

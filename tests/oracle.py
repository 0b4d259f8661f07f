"""The bit-identity oracle: the one statement of this repo's invariant.

The paper's kNN answer is exact by construction (§III, §III-C): the
earliest k reports of the counter temporal sort *are* the top-k, ties
resolve in report-code order, and the host merges partial results
across board reconfigurations.  The cycle-accurate simulator
(``repro.core.engine.simulate_workload``) must equal the functional
engine bit for bit for every workload that declares its hooks —
``tests/integration/test_bit_identity.py`` checks it on simulator-sized
shapes — and every way this repo runs a search —
whatever holds the rows, runs the boards, or sits in front of the
engine, with or without a compile cache — must answer bit for bit what
one serial pass over an in-memory array answers, count the same events
and cache the same boards, save where its workers see no cache (a
``process`` pool's, which never reads or fills the engine's cache).

A :class:`Cell` names one such way, one value per axis::

    workload  knn | jaccard | range | toy
    store     array | mmap | shm
    backend   serial | thread | process
    topology  local | multi | batched | remote | replicated
    cache     none | cold | warm

:func:`check` runs a cell on one :class:`Shape` and holds it, through
:func:`assert_same`, to two references: the cell's array/serial twin
running one board per host pass (everything it reports), and a
brute-force scan (the values).  What a cell is *meant* to report
differently is a named delta in :func:`expected`, asserted, never
skipped.

Extending the matrix is adding one axis value: a workload to
``WORKLOADS``, a store to :meth:`Env.store`, a backend to
:meth:`Env.parallel`, or a topology to :func:`run_cell` with its
reference partitioning in :func:`_devices`.  Only a path that
legitimately reports something else adds a named delta, and only cells
that cannot run add a prune to :func:`pruned`, with its reason.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.ap.compiler import BoardImageCache, CacheStats
from repro.ap.runtime import RuntimeCounters
from repro.core import workload as workload_mod
from repro.core.dataset import PackedDataset, ShmStore, write_pds
from repro.core.jaccard import jaccard_similarity_matrix
from repro.core.workload import SERVER_OWNED_PARAMS, Workload, WorkloadSearch
from repro.host.parallel import ParallelConfig
from repro.host.replication import HedgePolicy
from repro.host.rpc import RemoteWorkloadSearch, serve_shard
from repro.util.bitops import _CDIST_QUERY_TILE, popcount_u64
from repro.util.topk import merge_topk_blocks
from tests.conftest import brute_force_knn

STORES = ("array", "mmap", "shm")
BACKENDS = ("serial", "thread", "process")
TOPOLOGIES = ("local", "multi", "batched", "remote", "replicated")
CACHES = ("none", "cold", "warm")
RACKS = ("remote", "replicated")  # topologies served by a shard rack
PACKED = ("mmap", "shm")  # stores that hold packed row words


# -- the toy workload: the extension story as one axis value ----------------


@dataclass
class PopcountResult:
    indices: np.ndarray  # (q, 1) popcount-nearest index
    distances: np.ndarray


class PopcountNearest(Workload):
    """Toy third-party workload: the row whose popcount is closest to
    the query's, (distance, index) ties.  Its artifact is the pass's
    row popcounts, so over a packed store a pass is a view like any
    built-in's.
    Module-level so its results pickle back from a process worker."""

    name = "toy-popcount"
    description = "test-only popcount-nearest workload"
    wire_fields = ("indices", "distances")
    result_type = PopcountResult

    def compile_packed(self, words, d, params):
        return popcount_u64(words).sum(axis=1)

    def execute(self, artifact, query_words, params):
        sizes = popcount_u64(query_words).sum(axis=1)
        return PopcountResult(*_popcount_nearest(artifact, sizes)), (
            RuntimeCounters(configurations=1, symbols_streamed=query_words.size,
                            reports_received=sizes.size * artifact.size)
        )

    def merge(self, partials, offsets, params):
        blocks = [(p.indices, p.distances) for p in partials]
        return PopcountResult(*merge_topk_blocks(blocks, 1, offsets=offsets))

    def empty(self, n_q, params):
        return PopcountResult(*np.full((2, n_q, 1), -1, dtype=np.int64))


def _popcount_nearest(popcounts, query_popcounts):
    dist = np.abs(popcounts[None, :] - query_popcounts[:, None])
    ids = np.broadcast_to(np.arange(len(popcounts)), dist.shape)
    order = np.lexsort((ids, dist), axis=-1)[:, :1]
    return order, np.take_along_axis(dist, order, axis=1)


# -- shapes -----------------------------------------------------------------

# The paper's widths, then odd ones: a ragged single word (33) and two
# words (70, 100, 130).
WIDTHS = (64, 128, 256, 33, 70, 100, 130)
RUN = 5  # rows per tie run


@dataclass(frozen=True)
class Shape:
    """One input.  ``n`` rows of ``d`` bits are searched through a
    ``slice_rows`` window of a store holding ``cut[0]`` more rows before
    them and ``cut[1]`` after (aligned with no board and no ``.pds``
    chunk); boards of ``cap`` rows end in a short one; ``devices`` is
    the multi-device count and a rack's shard count; ``k`` and
    ``radius`` are workload parameters.  ``tied`` lays the rows out in
    runs of ``RUN`` that straddle board boundaries, each run at one
    distance from the query that owns it, so the k-th place falls
    inside a tie between boards.  ``empty`` zeroes the window's first
    row and the first query (Jaccard's empty-vs-empty pair).
    ``pass_bytes``, when set, is the engine's pass budget
    (``_PASS_BYTES``) while the shape's cells run."""

    n: int
    d: int
    cap: int
    k: int
    radius: int
    n_q: int
    devices: int
    cut: tuple
    tied: bool
    seed: int
    empty: bool = False
    pass_bytes: int | None = None

    @property
    def window(self) -> tuple[int, int]:
        return self.cut[0], self.cut[0] + self.n

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(store rows, queries)``."""
        rows, queries = self._arrays()
        if self.empty:
            rows[self.cut[0]] = queries[0] = 0
        return rows, queries

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        total = self.n + sum(self.cut)
        if not self.tied:
            rows = (rng.random((total, self.d)) < 0.5).astype(np.uint8)
            return rows, (rng.random((self.n_q, self.d)) < 0.5).astype(np.uint8)
        # Copy m of a run flips bits m and m + RUN of the run's base row:
        # each copy is two bits from its base and no two rows (hence no
        # two boards) are identical — identical boards would make cache
        # hit counts depend on which worker compiles first.
        base = (rng.random((-(-total // RUN), self.d)) < 0.5).astype(np.uint8)
        i = np.arange(total)
        rows = base[i // RUN]
        rows[i, i % RUN] ^= 1
        rows[i, i % RUN + RUN] ^= 1
        lo, hi = self.window
        return rows, base[rng.integers(lo // RUN, (hi - 1) // RUN + 1, self.n_q)]


@st.composite
def shapes(draw, widths=WIDTHS, max_cap=24, max_boards=8, max_queries=4):
    """Random geometry: a paper or odd width, up to ``max_boards``
    boards ending in a short one, 2-5 devices (or shards), ``k`` up to
    and beyond ``n``, an unaligned window, and (half the time) ties
    straddling boards."""
    d = draw(st.sampled_from(widths))
    cap = draw(st.integers(3, max_cap))
    n = cap * draw(st.integers(1, max_boards - 1)) + draw(st.integers(1, cap - 1))
    return Shape(
        n=n, d=d, cap=cap,
        k=draw(st.sampled_from((1, 3, 7, n, n + 5))),
        radius=draw(st.sampled_from((0, 2, d // 2 - 2, d // 2, d - 1))),
        n_q=draw(st.integers(1, max_queries)),
        devices=draw(st.integers(2, 5)),
        cut=(draw(st.integers(0, 13)), draw(st.integers(0, 13))),
        tied=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


# Small enough to simulate cycle by cycle.
tiny_shapes = shapes(widths=(33,), max_cap=5, max_boards=3, max_queries=2)

# Every cell runs these, so each (shape, store) starts one rack: a tie
# split across boards at a two-word width, k beyond n (and beyond every
# shard) at a ragged one-word width whose batch crosses the one-word
# kernel's query tile and ends in a ragged tile of one query, and 157
# rows of 130 bits over 4 devices or shards, with a wide range radius.
TIED = Shape(n=37, d=70, cap=8, k=3, radius=2, n_q=3, devices=3, cut=(3, 6),
             tied=True, seed=11)
WIDE_K = Shape(n=13, d=33, cap=5, k=18, radius=14, n_q=2 * _CDIST_QUERY_TILE + 1,
               devices=2, cut=(0, 4), tied=False, seed=5)
LARGE = Shape(n=157, d=130, cap=24, k=9, radius=63, n_q=3, devices=4, cut=(7, 10),
              tied=False, seed=3)
# A 256 KiB view pass spans each shape above whole, so its view cells
# never carry a bound.  Two-board passes over 13 boards, 7 per shard,
# give every serial task of every store at least 3 windows, with ties
# straddling them.
CARRIED = Shape(n=50, d=64, cap=4, k=3, radius=2, n_q=3, devices=2, cut=(2, 3),
                tied=True, seed=13, pass_bytes=2 * 4 * 8)
EXAMPLES = (TIED, WIDE_K, LARGE, CARRIED)
# The simulator runs these: k beyond n, and a tie across boards.
TINY_TIED = Shape(n=14, d=33, cap=4, k=3, radius=2, n_q=2, devices=2, cut=(2, 1),
                  tied=True, seed=7)
# An empty row meets an empty query, and range reaches radius d - 1.
EMPTY = Shape(n=11, d=33, cap=4, k=3, radius=32, n_q=2, devices=2, cut=(1, 2),
              tied=False, seed=9, empty=True)
SIM_EXAMPLES = (WIDE_K, TINY_TIED, EMPTY)
# The widths no example above has, tied, over 5 devices or shards.
WIDTH_EXAMPLES = tuple(
    dataclasses.replace(LARGE, d=d, radius=d // 2 - 2, devices=5, tied=True, seed=d)
    for d in sorted(set(WIDTHS) - {s.d for s in EXAMPLES})
)


# -- workloads: parameters and brute-force truth -----------------------------


def _take(values, order):
    return np.take_along_axis(values, order, axis=1)


def _knn_truth(rows, queries, shape):
    indices, distances = brute_force_knn(rows, queries, min(shape.k, len(rows)))
    return {"indices": indices, "distances": distances}


def _jaccard_truth(rows, queries, shape):
    sim = jaccard_similarity_matrix(queries, rows)
    ids = np.broadcast_to(np.arange(len(rows)), sim.shape)
    order = np.lexsort((ids, -sim), axis=-1)[:, : min(shape.k, len(rows))]
    inter = queries.astype(np.int64) @ rows.T.astype(np.int64)
    return {"indices": order, "similarities": _take(sim, order),
            "intersections": _take(inter, order)}


def _range_truth(rows, queries, shape):
    dist = (queries[:, None, :] != rows[None, :, :]).sum(axis=-1)
    hits = [np.flatnonzero(row <= shape.radius) for row in dist]
    counts = np.array([len(h) for h in hits], dtype=np.int64)
    indices = np.full((len(hits), counts.max(initial=0)), -1, dtype=np.int64)
    distances = indices.copy()
    for qi, h in enumerate(hits):
        indices[qi, : len(h)], distances[qi, : len(h)] = h, dist[qi, h]
    return {"indices": indices, "distances": distances, "counts": counts}


def _toy_truth(rows, queries, shape):
    order, dist = _popcount_nearest(
        rows.sum(axis=1).astype(np.int64), queries.sum(axis=1).astype(np.int64)
    )
    return {"indices": order, "distances": dist}


@dataclass(frozen=True)
class WorkloadSpec:
    name: str  # registry name
    params: Callable[[Shape], dict]
    truth: Callable  # (rows, queries, shape) -> {field: array}


WORKLOADS = {
    "knn": WorkloadSpec("knn", lambda s: {"k": s.k}, _knn_truth),
    "jaccard": WorkloadSpec("jaccard", lambda s: {"k": s.k}, _jaccard_truth),
    "range": WorkloadSpec("range", lambda s: {"radius": s.radius}, _range_truth),
    "toy": WorkloadSpec(PopcountNearest.name, lambda s: {}, _toy_truth),
}


def declares_hooks(spec: WorkloadSpec) -> bool:
    """Does ``spec``'s workload define the simulator hooks (``network``
    and ``decode``), which link it to the cycle-accurate oracle?"""
    workload = (
        PopcountNearest if spec.name == PopcountNearest.name
        else type(workload_mod.get_workload(spec.name))
    )
    return Workload.network is not workload.network and Workload.decode is not workload.decode


SIMULATED = tuple(name for name, spec in WORKLOADS.items() if declares_hooks(spec))


# -- cells ------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    workload: str
    store: str
    backend: str
    topology: str
    cache: str

    @property
    def id(self) -> str:
        return "-".join(dataclasses.astuple(self))

    @property
    def spec(self) -> WorkloadSpec:
        return WORKLOADS[self.workload]

    @property
    def views(self) -> bool:
        """This cell's passes run on views of a store's packed words."""
        return self.store in PACKED

    @property
    def searches(self) -> int:
        """A warm cell searches twice: the first search warms its cache."""
        return 2 if self.cache == "warm" else 1


def pruned(cell: Cell) -> str | None:
    """Why ``cell`` is left out of the matrix, or ``None``.  These are
    the only prunes, and no cell a hand-written parity test covered is
    among them."""
    if cell.topology in RACKS and cell.backend != "serial":
        # A server's backend is a local cell already, and
        # ShardServer.close() releases a persistent pool: a process
        # server would spawn a pool per rack.
        return "racks serve with the serial backend"
    return None


def cells() -> list[Cell]:
    matrix = itertools.product(WORKLOADS, STORES, BACKENDS, TOPOLOGIES, CACHES)
    return [cell for cell in itertools.starmap(Cell, matrix) if not pruned(cell)]


# -- running a cell ----------------------------------------------------------


@contextlib.contextmanager
def one_board_per_pass():
    """Inside it the engine sizes every host pass to one board, so the
    worker body runs one artifact and one ``execute`` per board: the
    reference every multi-board pass must equal.  The one byte budget
    goes to zero, so gathered and view passes alike (an array, a mapped
    ``.pds``, a shm segment, a served shard) run one board each.  A kNN
    task is then a lane's run of one-board windows, each after the
    first carrying the k-th distances of the boards before it; the
    reference's answers are still checked against brute force."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload_mod, "_PASS_BYTES", 0)
        yield


class Rack:
    """``shape.devices`` balanced shards of a store window, each served
    by two in-thread replicas sharing one board-image cache (or none).
    ``remote`` talks to each shard's first replica, ``replicated`` to
    both as a replica group; hedging is off, so the first replica serves
    every request and the cache sees one search's boards."""

    def __init__(self, window: PackedDataset, shape: Shape, cached: bool):
        self.cache = BoardImageCache() if cached else None
        self.servers = [
            serve_shard(window, shard, shape.devices, board_capacity=shape.cap,
                        cache=self.cache).start()
            for shard in range(shape.devices)
            for _ in range(2)
        ]

    def addresses(self, topology: str) -> list[str]:
        names = ["{}:{}".format(*s.address) for s in self.servers]
        if topology == "remote":
            return names[::2]
        return ["|".join(pair) for pair in zip(names[::2], names[1::2])]


def _close(servers) -> None:
    """Close servers all at once: each waits out one accept-loop poll."""
    with ThreadPoolExecutor(max(1, len(servers))) as pool:
        list(pool.map(lambda server: server.close(), servers))


class Env:
    """What cells share: a directory for ``.pds`` stores, one persistent
    process pool, one rack per (shape, store, cached), and the toy
    workload's registration (made before the pool forks)."""

    def __init__(self, tmp_dir):
        self.tmp_dir = tmp_dir
        self._files = itertools.count()
        self._racks: dict[tuple, Rack] = {}
        self._retired: list = []  # released racks' servers, not yet closed
        self._references: dict[tuple, list] = {}
        workload_mod.register_workload(PopcountNearest(), replace=True)
        self.process_pool = ParallelConfig(
            n_workers=2, backend="process", persistent=True
        )

    def close(self) -> None:
        _close(self._retired + [s for rack in self._racks.values() for s in rack.servers])
        self.process_pool.close()
        workload_mod._REGISTRY.pop(PopcountNearest.name, None)

    def release(self, shape: Shape) -> None:
        """Retire the racks and drop the references kept for ``shape``:
        a generated shape is searched by one cell only.  Retired servers
        close a batch at a time."""
        for key in [key for key in self._racks if key[0] == shape]:
            self._retired += self._racks.pop(key).servers
        for key in [key for key in self._references if key[1] == shape]:
            del self._references[key]
        if len(self._retired) >= 64:
            _close(self._retired)
            self._retired = []

    def store(self, kind: str, shape: Shape) -> PackedDataset:
        """The shape's searched window, cut out of a store of ``kind``."""
        rows, _ = shape.arrays()
        if kind == "array":
            handle = PackedDataset.ensure(rows)
        elif kind == "mmap":
            path = self.tmp_dir / f"store-{next(self._files)}.pds"
            write_pds(path, rows, chunk_rows=max(1, len(rows) // 3))
            handle = PackedDataset.open(path)
        else:
            handle = PackedDataset(ShmStore.export(rows))
        return handle.slice_rows(*shape.window)

    def parallel(self, backend: str) -> ParallelConfig | None:
        if backend == "thread":
            return ParallelConfig(n_workers=2, backend="thread")
        return self.process_pool if backend == "process" else None

    def reference(self, cell: Cell, shape: Shape, rounds: tuple) -> list:
        """:func:`reference`, once per question: every cell asks it of
        the shared example shapes."""
        key = (cell, shape, rounds)
        if key not in self._references:
            self._references[key] = reference(cell, shape, rounds)
        return self._references[key]

    def rack(self, shape: Shape, store: str, cached: bool) -> Rack:
        """The shared rack, its cache emptied as a fresh one would be."""
        key = (shape, store, cached)
        if key not in self._racks:
            self._racks[key] = Rack(self.store(store, shape), shape, cached)
        rack = self._racks[key]
        if rack.cache is not None:
            rack.cache.clear()
            rack.cache.stats = CacheStats()
        return rack


def _devices(cell: Cell, shape: Shape) -> int:
    """Device shards of the cell's partitioning: a rack's shards
    partition exactly as that many devices."""
    return shape.devices if cell.topology in ("multi", *RACKS) else 1


def _engine(cell, shape, dataset, parallel=None):
    return WorkloadSearch(
        dataset, cell.spec.name, cell.spec.params(shape),
        board_capacity=shape.cap, parallel=parallel,
        cache=BoardImageCache() if cell.cache != "none" else None,
        n_devices=_devices(cell, shape),
    )


def _spans(n_q: int) -> list[tuple[int, int]]:
    """Batched callers' rows: alternately one and two."""
    bounds = [0]
    while bounds[-1] < n_q:
        bounds.append(min(n_q, bounds[-1] + 1 + len(bounds) % 2))
    return list(zip(bounds, bounds[1:]))


def _round(search, queries, spans) -> list:
    """One round of callers, each searching its rows concurrently."""
    with ThreadPoolExecutor(len(spans)) as pool:
        return list(zip(spans, pool.map(lambda s: search(queries[slice(*s)]), spans)))


def _batches(callers) -> tuple:
    """Caller spans grouped by the engine search that answered them (a
    coalesced batch's callers share its counters object)."""
    groups: dict[int, list] = {}
    for span, result in callers:
        groups.setdefault(id(result.counters), []).append(span)
    return tuple(sorted(tuple(spans) for spans in groups.values()))


def run_cell(cell: Cell, shape: Shape, env: Env) -> tuple[list, tuple]:
    """Search ``cell.searches`` rounds the cell's way.  Returns the
    snapshot, and per round the batches the rows were answered in."""
    _, queries = shape.arrays()
    spans = [(0, shape.n_q)]
    with contextlib.ExitStack() as stack:
        if shape.pass_bytes is not None:
            stack.enter_context(pytest.MonkeyPatch.context()).setattr(
                workload_mod, "_PASS_BYTES", shape.pass_bytes
            )
        if cell.topology in RACKS:
            rack = env.rack(shape, cell.store, cell.cache != "none")
            request = {k: v for k, v in cell.spec.params(shape).items()
                       if k not in SERVER_OWNED_PARAMS}
            search = stack.enter_context(RemoteWorkloadSearch(
                rack.addresses(cell.topology), cell.spec.name, request,
                hedge=HedgePolicy(enabled=False),
            )).search
            cache = rack.cache
        else:
            engine = _engine(cell, shape, env.store(cell.store, shape),
                             env.parallel(cell.backend))
            search, cache = engine.search, engine.cache
            if cell.topology == "batched":
                router = stack.enter_context(engine.batched(max_batch=shape.n_q))
                search, spans = (lambda q: router.search(q).result), _spans(shape.n_q)
        rounds = [_round(search, queries, spans) for _ in range(cell.searches)]
    return snapshot(rounds, cache), tuple(_batches(r) for r in rounds)


def reference(cell: Cell, shape: Shape, rounds: tuple) -> list:
    """The snapshot of ``cell`` (an array/serial cell) run one board per
    pass (the engine's own pass sizing, see :func:`one_board_per_pass`)
    and asked the same batches in the same rounds; its values must
    equal the brute-force scan's."""
    rows, queries = shape.arrays()
    rows = rows[slice(*shape.window)]
    engine = _engine(cell, shape, rows)
    callers = []
    with one_board_per_pass():
        for batches in rounds:
            callers.append([])
            for spans in batches:
                result = engine.search(np.concatenate(
                    [queries[slice(*span)] for span in spans]
                ))
                at = 0
                for lo, hi in spans:
                    part = engine.split_result(result, at, at + hi - lo)
                    callers[-1].append(((lo, hi), part))
                    at += hi - lo
    ref = snapshot([sorted(c) for c in callers], engine.cache)
    truth = cell.spec.truth(rows, queries, shape)
    for search in ref[: len(rounds)]:
        assert search["value"].keys() == truth.keys(), cell.id
        for name, want in truth.items():
            assert np.array_equal(search["value"][name], want), (
                f"{cell.id}: reference {name} differs from the brute-force scan"
            )
    return ref


# -- snapshots ---------------------------------------------------------------


def _stitch(values) -> dict[str, np.ndarray]:
    """One value from caller slices in row order.  A ragged (range) slice
    is only as wide as the batch it was answered in, so 2-D fields are
    re-padded with ``-1`` to the widest, which one batch of every row
    would have."""
    out = {}
    for field in dataclasses.fields(values[0]):
        parts = [np.asarray(getattr(v, field.name)) for v in values]
        if parts[0].ndim == 2:
            width = max(p.shape[1] for p in parts)
            parts = [np.pad(p, ((0, 0), (0, width - p.shape[1])), constant_values=-1)
                     for p in parts]
        out[field.name] = np.concatenate(parts)
    return out


def snapshot(rounds, cache=None) -> list[dict]:
    """Everything a round of searches exposes: the value (callers'
    slices in row order), the counters summed over the engine searches
    that answered it and how many there were, the partition counts, the
    back-end, how the run was carried; then, once, the cache's stats and
    size."""
    out = []
    for callers in rounds:
        first = callers[0][1]
        batches = {id(result.counters): result.counters for _, result in callers}
        counters = RuntimeCounters()
        for delta in batches.values():
            counters.merge(delta)
        out.append({
            "value": _stitch([result.value for _, result in callers]),
            "counters": dataclasses.asdict(counters),
            "batches": len(batches),
            "partitions": (first.n_partitions, first.per_device_partitions),
            "execution": first.execution,
            "run": (first.transport, first.n_workers, first.failed_shards,
                    first.failovers, first.hedges),
        })
    if cache is not None:
        stats = cache.stats
        out.append({"cache": (stats.hits, stats.misses, stats.evictions, len(cache))})
    return out


def run_snapshot(engine, queries, searches=2) -> list[dict]:
    """:func:`snapshot` of ``searches`` plain searches of one engine."""
    whole = (0, len(queries))
    return snapshot(
        [[(whole, engine.search(queries))] for _ in range(searches)], engine.cache
    )


def assert_snapshots_equal(got, ref, label=""):
    assert len(got) == len(ref), label
    for i, (g, r) in enumerate(zip(got, ref)):
        assert g.keys() == r.keys(), (label, i)
        for key in g:
            if key == "value":
                assert g[key].keys() == r[key].keys(), (label, i)
                for name in g[key]:
                    assert np.array_equal(g[key][name], r[key][name]), (
                        label, i, name,
                    )
            else:
                assert g[key] == r[key], (label, i, key, g[key], r[key])


def counters_but_cache_hits(counters):
    """Every ``RuntimeCounters`` field a store may not change:
    ``image_cache_hits`` counts boards served without a compile, which
    a packed store's view passes all are (README "Board-image cache
    hygiene")."""
    return dataclasses.replace(counters, image_cache_hits=0)


# -- the comparison ---------------------------------------------------------

# How a run is carried: (transport, worker lanes).  Every shape has at
# least two passes, so a pool always runs two lanes.
CARRIERS = {
    "serial": ("none", 1),
    "thread": ("none", 2),
    "process": ("pickle", 2),
}


def expected(reference_snapshot, cell: Cell) -> list:
    """The reference as ``cell`` must see it: the named deltas applied."""
    exp = copy.deepcopy(reference_snapshot)
    searches = exp[: cell.searches]
    for search in searches:
        # Delta: the carrier — transport and lanes per backend, or the
        # wire and one lane per shard for a rack.
        carrier = (
            ("rpc", len(search["partitions"][1])) if cell.topology in RACKS
            else CARRIERS[cell.backend]
        )
        search["run"] = carrier + search["run"][2:]
        if cell.views:
            # Delta: a pass over a store's packed words is a view of
            # them, so every board of every engine search is served
            # without a compile, cache or no cache.
            search["counters"]["image_cache_hits"] = (
                search["partitions"][0] * search["batches"]
            )
        elif cell.backend == "process":
            # Delta: process workers are stateless: over rows that
            # travel by value they pack every board and hit nothing.
            search["counters"]["image_cache_hits"] = 0
    if cell.views and cell.cache != "none":
        # Delta: view passes compile, look up and hold nothing; each
        # engine search bumps the cache's hits once per board.
        boards = sum(s["partitions"][0] * s["batches"] for s in searches)
        exp[-1]["cache"] = (boards, 0, 0, 0)
    elif cell.backend == "process" and cell.cache != "none":
        # Delta: nothing reads or fills the engine's cache.
        exp[-1]["cache"] = (0, 0, 0, 0)
    return exp


def assert_same(result, reference_snapshot, cell: Cell) -> None:
    """``result`` is the reference, bit for bit, up to the cell's named
    deltas: every value array, every counter, the partition counts, the
    back-end, the carrier and the cache's stats."""
    assert_snapshots_equal(result, expected(reference_snapshot, cell), cell.id)


def check(cell: Cell, shape: Shape, env: Env) -> None:
    """Run ``cell`` on ``shape`` and hold it to the references."""
    got, rounds = run_cell(cell, shape, env)
    twin = dataclasses.replace(cell, store="array", backend="serial")
    assert_same(got, env.reference(twin, shape, rounds), cell)

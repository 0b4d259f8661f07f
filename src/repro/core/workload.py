"""Workload extension interface: one compile→partition→execute→merge
stack for every engine.

The paper's AP accelerates many automata-backed similarity workloads —
Hamming kNN (Section III), Jaccard similarity (Section II-C), range
search — but PRs 1–5 grew the scale-out machinery (parallel partition
fan-out, shared-memory datasets, query batching, remote shards) around
the kNN result shape alone.  This module factors the pipeline those
layers actually rely on into a :class:`Workload` protocol:

* ``compile_packed(words, d, params) → artifact | None`` — the
  artifact of one *host pass* (a run of row-consecutive boards) over
  their packed row words: a view of a ``.pds`` or shared-memory
  store's, else the boards' cached words.  Every functional pass is
  one such artifact and one ``execute``; the board stays the unit of
  caching, counters and the AP model;
* ``compile(dataset_bits, params) → artifact`` — one board's artifact
  when it is not a view of words (cycle-accurate images): cacheable,
  shipped to process workers by value, executed board by board.
  Default: ``compile_packed`` over the board's packed rows;
* ``execute(artifact, queries, params) → (partial, counters)`` — one
  pass producing a *pass-local* partial result plus the
  :class:`~repro.ap.runtime.RuntimeCounters` delta a hardware run would
  record;
* ``merge(partials, offsets, params) → result`` — the offset-aware
  host merge.  Merging must be **associative** and every merged result
  must itself be a valid partial (with offset 0), which is what lets
  shard servers pre-merge their local partitions and the remote pool
  merge across shards without a distinguished root;
* ``pack/unpack`` — the RPC wire codec for partials/results, built on
  the same no-pickle array framing as the kNN protocol;
* ``split(result, lo, hi)`` — row slicing for the batching/admission
  layer (:class:`~repro.host.batching.BatchRouter`);
* ``default_capacity`` / ``batch_params`` — the two engine decisions a
  workload owns: how many vectors fit one board configuration, and
  which back-end a given batch runs on.

Workloads register by name (:func:`register_workload`), mirroring the
pluggable-extension registry idiom of reinforced_lib's ``BaseExt``:
built-ins ship registered, and a custom workload is one subclass plus
one ``register_workload`` call away from thread/process
parallelism, batching, and remote shards — see ``examples/
custom_workload.py`` and the README's "Writing a custom workload".

:class:`WorkloadSearch` is the one engine loop: it partitions the
dataset into board-sized slices (never straddling a device boundary
when ``n_devices > 1``), groups runs of them into host passes sized
for the host rather than the AP fabric, fans the passes out as
:class:`~repro.host.parallel.PartitionTask`\\ s through
:func:`~repro.host.parallel.run_partitions` (thread/process backends,
persistent pools, slice-ref datasets, artifact shipping), and merges through
the workload's own ``merge`` — so sharded/parallel/remote execution is
bit-identical to a sequential pass by associativity.  Hamming kNN, with
both its cycle-accurate and its functional back-end, is an ordinary
registered workload; :class:`~repro.core.engine.APSimilaritySearch` and
:class:`~repro.core.multiboard.MultiBoardSearch` are named constructors
over this class.
"""

from __future__ import annotations

import numpy as np

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

from ..ap.compiler import APCompiler, BoardImageCache, partition_cache_key
from ..ap.device import GEN1, APDeviceSpec
from ..ap.runtime import REPORT_RECORD_BITS, APRuntime, RuntimeCounters
from ..host.batching import Batchable
from ..host.parallel import (
    ParallelConfig,
    PartitionResult,
    PartitionTask,
    _ArtifactShuttle,
    run_partitions,
)
from ..perf import metrics as _metrics
from ..perf.models import APModel
from ..util.bitops import as_bits, pack_bits, popcount_cdist, popcount_u64
from ..util.topk import (
    _key_dtype,
    _select_smallest,
    merge_ragged_blocks,
    merge_topk_blocks,
)
from .dataset import PackedDataset
from .functional import FunctionalKnnBoard
from .macros import MacroConfig, build_knn_network, collector_tree_depth
from .stream import StreamLayout

__all__ = [
    "Workload",
    "WorkloadSearch",
    "WorkloadRunResult",
    "HammingKnnWorkload",
    "JaccardTopkWorkload",
    "HammingRangeWorkload",
    "KnnWorkloadResult",
    "JaccardWorkloadResult",
    "RangeWorkloadResult",
    "SERVER_OWNED_PARAMS",
    "balanced_shard_bounds",
    "normalize_queries",
    "register_workload",
    "get_workload",
    "available_workloads",
]

# Index/distance padding result rows when a back-end legally produces
# fewer candidates than asked for (re-exported by core.engine).
_PAD_INDEX = -1
_PAD_DISTANCE = -1

# The paper's workloads pin these board capacities (Table II): 1024
# vectors per configuration up to d=128, 512 at d=256.
_DEFAULT_CAPACITY_SMALL_D = 1024
_DEFAULT_CAPACITY_LARGE_D = 512
_CAPACITY_D_CUTOFF = 128

# Above this many total (state x cycle) operations across all partition
# passes, kNN's execution="auto" picks the functional model over cycle
# simulation.
_AUTO_SIM_LIMIT = 50_000_000

# Host pass budgets: how many row-consecutive boards the engine hands a
# worker as ONE functional pass.  Board capacity is a constraint of the
# AP fabric; on the host a ~1024-row pass is almost all Python, so
# boards run as one pass under two byte budgets and one pair budget.
# A gathered pass (in-memory rows) concatenates its boards' packed
# words, so _PASS_GATHER_BYTES bounds that copy; a view pass (a store
# that holds packed words: mmap .pds, shm) copies nothing, and
# _PASS_VIEW_BYTES — one .pds verification chunk — bounds the pages it
# faults in and the kernel's per-pass transients.  The (query x row)
# pair count bounds the widest per-pair transient (Jaccard's
# ~13 B/pair) to ~3 MiB at any batch size, on both kinds.  Constants,
# not options — README "Host passes" has the sweeps that chose them.
_PASS_GATHER_BYTES = 64 * 2**10
_PASS_VIEW_BYTES = 256 * 2**10
_PASS_PAIRS = 2**18

#: Engine settings a deployment owns.  Constructors and the shard
#: server's own configuration set them; a wire request naming one is
#: refused — a remote client must not be able to pick, say, cycle
#: simulation on a 2^20-row shard.
SERVER_OWNED_PARAMS = frozenset(
    {"execution", "device", "macro_config", "board_capacity", "n_devices"}
)


def normalize_queries(queries_bits, d: int) -> np.ndarray:
    """The pipeline's one entry check: a ``(q, d)`` uint8 0/1 batch
    (a single ``(d,)`` row is promoted), or ``ValueError``."""
    queries_bits = np.asarray(queries_bits)
    if queries_bits.ndim == 1:
        queries_bits = queries_bits[None, :]
    if queries_bits.ndim != 2:
        raise ValueError(f"queries must be a (q, {d}) array")
    if queries_bits.shape[1] != d:
        raise ValueError(
            f"queries have d={queries_bits.shape[1]}, dataset d={d}"
        )
    return as_bits(queries_bits, "queries")


def balanced_shard_bounds(n: int, n_devices: int) -> np.ndarray:
    """Shard boundaries ``[0, ..., n]`` with sizes differing by at most 1.

    The first ``n % n_devices`` shards absorb the remainder one vector
    each (the ``np.array_split`` convention) — unlike truncating
    ``np.linspace`` bounds, which could dump the whole remainder on the
    last shard.  Every shard is non-empty for any ``1 <= n_devices <=
    n``.
    """
    if not 1 <= n_devices <= n:
        raise ValueError(
            f"need 1 <= n_devices <= n, got n_devices={n_devices}, n={n}"
        )
    base, rem = divmod(n, n_devices)
    sizes = np.full(n_devices, base, dtype=np.int64)
    sizes[:rem] += 1
    bounds = np.zeros(n_devices + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


# -- protocol ---------------------------------------------------------------


class Workload(ABC):
    """One similarity workload's compile→execute→merge contract.

    Subclasses set :attr:`name` (the registry key), :attr:`description`
    (one line, surfaced by ``repro workloads``), and
    :attr:`wire_fields` — the ordered array-attribute names of the
    result dataclass, which drive the default :meth:`pack`/
    :meth:`unpack`/:meth:`split` implementations.  Partials carry
    **partition-local** indices; :meth:`merge` re-bases them with the
    per-partial offsets, and pads must never be offset (the
    :func:`~repro.util.topk.merge_topk_blocks` guarantee).
    """

    name: str = ""
    description: str = ""
    #: Result-dataclass attribute names, in wire/constructor order.
    #: Every field is a row-aligned ndarray (axis 0 = query row).
    wire_fields: tuple[str, ...] = ()
    #: Constructed by :meth:`unpack` as ``result_type(*arrays)``.
    result_type: type = tuple

    # -- parameters -------------------------------------------------------

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        """Normalize request parameters against a dataset's ``(n, d)``.

        Returns a canonical dict (str keys, hashable picklable values):
        same request ⇒ same dict, because it keys engines and ships in
        every :class:`~repro.host.parallel.PartitionTask`.  What a
        *request* may carry is plain JSON; deployment-owned settings
        (:data:`SERVER_OWNED_PARAMS`) are injected by whoever
        constructs the engine and may be richer objects.  Unknown keys
        are ignored, so one settings dict serves every workload.
        """
        return {}

    def cache_params(self, params: dict) -> tuple:
        """The params subset a compiled artifact depends on (for the
        content-addressed cache key).  Default: none — artifacts for
        the built-ins depend only on the partition content."""
        return ()

    def validate_dataset(self, n: int, d: int) -> None:
        """Admission check: can this workload serve an ``(n, d)``
        dataset at all?  Raise ``ValueError`` if not.  The shard
        server runs this for every admitted workload *before* binding
        its socket, so a bad shard file fails at startup with a clear
        error instead of on the first query.  Default: any non-empty
        binary dataset qualifies."""
        if n < 1 or d < 1:
            raise ValueError(
                f"workload {self.name!r} cannot serve an ({n}, {d}) dataset"
            )

    def default_capacity(self, d: int, params: dict) -> int:
        """Vectors per board configuration when the engine is not given
        a ``board_capacity``.  Default: the paper's Table II constants."""
        return (
            _DEFAULT_CAPACITY_SMALL_D
            if d <= _CAPACITY_D_CUTOFF
            else _DEFAULT_CAPACITY_LARGE_D
        )

    def batch_params(self, params: dict, n_q: int, n: int, d: int) -> dict:
        """Resolve whatever the engine's params leave open until the
        batch size is known (kNN's ``execution="auto"``), for ``n_q``
        queries against ``n`` vectors.  The result keys the compile
        cache and ships in the tasks.  Default: nothing to resolve."""
        return params

    # -- the pipeline -----------------------------------------------------

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        """The artifact of one host pass over ``words``, the
        ``(rows, ceil(d/64))`` uint64 row words of a run of boards
        (:func:`~repro.util.bitops.pack_bits` layout), or ``None`` (the
        default): the boards are then compiled and executed one by one.

        Answering promises that one :meth:`execute` over the run equals
        the merge of its boards' answers, that ``configurations`` and
        ``symbols_streamed`` of a pass do not depend on the rows, that
        report counters are additive over rows, and that the artifact
        only *reads* ``words`` — a read-only view of a file mapping or
        shared segment, or a transient concatenation of cached words —
        and is never cached, shipped or kept.  Whether it answers may
        depend on ``params`` alone: it is asked once, of one zero row.
        """
        return None

    def compile(self, dataset_bits: np.ndarray, params: dict):
        """One board's artifact from its 0/1 rows, for a workload whose
        artifact is not a view of packed words (kNN's cycle-accurate
        image).  Artifacts must be picklable (they ship to process
        workers by value) and position-independent: ``execute`` returns
        partition-local indices.  Default: :meth:`compile_packed` over
        the rows' packed words."""
        dataset_bits = np.asarray(dataset_bits)
        artifact = self.compile_packed(
            pack_bits(dataset_bits), dataset_bits.shape[1], params
        )
        if artifact is None:
            raise NotImplementedError(
                f"workload {self.name!r} implements neither compile nor "
                "compile_packed"
            )
        return artifact

    @abstractmethod
    def execute(
        self, artifact, queries_bits: np.ndarray, params: dict
    ) -> tuple:
        """One partition pass: ``(partial, counters)``.

        ``partial`` is a :attr:`result_type` with partition-LOCAL
        indices; ``counters`` is this pass's
        :class:`~repro.ap.runtime.RuntimeCounters` delta.
        """

    @abstractmethod
    def merge(self, partials: list, offsets, params: dict):
        """Merge partials into one result, re-basing valid indices by
        the per-partial ``offsets`` (``None`` = already global).

        Must be associative, and the result must itself be a valid
        partial (mergeable again with offset 0): shard servers pre-merge
        their partitions and the remote pool merges across shards.
        """

    @abstractmethod
    def empty(self, n_q: int, params: dict):
        """The result of merging nothing: ``n_q`` all-pad rows (the
        degraded remote path where every shard failed)."""

    # -- host-layer hooks (generic defaults) ------------------------------

    def split(self, result, lo: int, hi: int):
        """Row-slice a result for one batched caller (views, no copy)."""
        return self.result_type(
            *(getattr(result, f)[lo:hi] for f in self.wire_fields)
        )

    def pack(self, result) -> bytes:
        """Wire-encode a partial/result: the :attr:`wire_fields` arrays
        through the RPC codec's whitelisted no-pickle framing."""
        from ..host.rpc import pack_array

        return b"".join(
            pack_array(np.asarray(getattr(result, f)))
            for f in self.wire_fields
        )

    def unpack(self, payload: bytes, offset: int = 0):
        """Decode :meth:`pack` output; validation (dtype whitelist,
        bounded allocation) happens in the codec before any array is
        materialized.  Rejects trailing bytes."""
        from ..host.rpc import RpcProtocolError, unpack_array

        arrays = []
        for _ in self.wire_fields:
            arr, offset = unpack_array(payload, offset)
            arrays.append(arr)
        if offset != len(payload):
            raise RpcProtocolError("trailing bytes after workload result")
        return self.result_type(*arrays)

    def execute_task(
        self, task: PartitionTask, queries_bits: np.ndarray, cache
    ) -> PartitionResult:
        """Worker-side entry — the one worker body: run a
        :class:`~repro.host.parallel.PartitionTask`'s run of boards.

        Where :meth:`compile_packed` answers, the run is ONE pass: one
        ``compile_packed`` over the run's row words, one
        :meth:`execute`.  The words are a view of the store's when the
        task's slice ref offers them — nothing is packed, hashed or
        looked up, and every board counts as served without a compile —
        else each board's words come from the cache (``pack_bits`` on a
        miss), row-concatenated.  Otherwise each board resolves through
        :meth:`compile` (cache-aware) and its own :meth:`execute`, and
        :meth:`merge` joins them.  Process workers get an artifact
        shuttle that serves the entries shipped with the task and
        captures fresh builds for the return trip.  Dataset rows are
        touched only when some board misses, and mmap pages are
        released behind the pass.
        """
        params = dict(task.params)
        boards = task.board_list()
        ref = task.dataset_slice
        d = ref.d if ref is not None else task.dataset_bits.shape[1]
        packed = _answers_packed(self.compile_packed, d, task.params)
        view = packed and ref is not None
        # Task-local first row of each board (and the run's length).
        starts = list(accumulate((n_rows for n_rows, _ in boards), initial=0))
        shuttle, entries, rows_bits = None, [], None
        if view:
            hits = len(boards)
        else:
            if cache is None and boards[0][1] is not None:
                cache = shuttle = _ArtifactShuttle(task.artifacts)
            hits = 0
            for (_, key), lo, hi in zip(boards, starts, starts[1:]):
                cached = cache is not None and key is not None
                entry = cache.get(key) if cached else None
                if entry is not None:
                    hits += 1
                else:
                    if rows_bits is None:
                        rows_bits = task.rows()
                    entry = (
                        pack_bits(rows_bits[lo:hi]) if packed
                        else self.compile(rows_bits[lo:hi], params)
                    )
                    if cached:
                        cache.put(key, entry)
                entries.append(entry)
        if packed:
            if view:
                words = ref.packed_window()
            else:
                words = entries[0] if len(entries) == 1 else np.concatenate(entries)
            partial, counters = self.execute(
                self.compile_packed(words, d, params), queries_bits, params
            )
            counters.configurations *= len(boards)
            counters.symbols_streamed *= len(boards)
        else:
            counters = RuntimeCounters()
            partials = []
            for artifact in entries:
                board_partial, delta = self.execute(artifact, queries_bits, params)
                counters.merge(delta)
                partials.append(board_partial)
            partial = self.merge(partials, starts[:-1], params)
        if ref is not None and (view or rows_bits is not None):
            # Drop the run's freshly faulted mmap pages back to the page
            # cache so a worker's RSS stays bounded by one pass, not the
            # whole shard it walks over a run.
            ref.release()
        counters.image_cache_hits += hits
        return PartitionResult(
            p_idx=task.p_idx,
            counters=counters,
            payload=partial,
            artifacts=(shuttle.built or None) if shuttle is not None else None,
            passes=1 if packed else len(boards),
        )


@lru_cache(maxsize=64)
def _answers_packed(compile_packed, d: int, params: tuple) -> bool:
    """Does ``compile_packed`` answer for ``params`` (sorted items)?
    Asked of one zero row, once per process and (hook, d, params): the
    engine keys and sizes passes from the answer the worker builds by."""
    probe = np.zeros((1, -(-d // 64)), dtype=np.uint64)
    return compile_packed(probe, d, dict(params)) is not None


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload, replace: bool = False) -> Workload:
    """Register a workload instance under its :attr:`~Workload.name`.

    The name is the cross-layer handle: ``PartitionTask.workload``,
    the RPC request, and the CLI's ``--workload`` all resolve through
    here — on every process that touches the workload, so custom
    workloads must be registered (imported) in servers and clients
    alike.  Re-registering a taken name raises unless ``replace=True``.
    """
    if not workload.name:
        raise ValueError("workload must define a non-empty name")
    if not replace and workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} is already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    """Look a workload up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"unknown workload {name!r} (registered: {known})"
        ) from None


def available_workloads() -> dict[str, Workload]:
    """Name → instance for every registered workload (sorted copy)."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


# -- built-in: Hamming kNN --------------------------------------------------


@dataclass
class KnnWorkloadResult:
    """(q, k) top-k blocks — the workload-protocol shape of
    :class:`~repro.core.engine.KnnResult`'s payload."""

    indices: np.ndarray
    distances: np.ndarray


# The deployment-owned kNN settings and what they default to.
_KNN_DEFAULTS = {
    "execution": "functional",
    "device": GEN1,
    "macro_config": MacroConfig(),
}


class HammingKnnWorkload(Workload):
    """The reference workload: Hamming kNN via counter temporal sort.

    This class owns what a kNN partition pass *is*: which back-end
    compiles and runs it (``execution``: the exact ``"functional"``
    model or the cycle-accurate ``"simulate"`` board image, ``"auto"``
    choosing per batch), under which macro configuration and device,
    with one decode — the earliest ``k`` reports per query — and one
    counter accounting for both.
    """

    name = "knn"
    description = (
        "Hamming-distance top-k via counter temporal sort "
        "(earliest k reports per query ARE the top-k)"
    )
    wire_fields = ("indices", "distances")
    result_type = KnnWorkloadResult

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        k = int(params.get("k", 10))
        if k < 1:
            raise ValueError("k must be >= 1")
        settings = {
            key: params.get(key, default)
            for key, default in _KNN_DEFAULTS.items()
        }
        if settings["execution"] not in ("simulate", "functional", "auto"):
            raise ValueError(
                f"unknown execution mode {settings['execution']!r}"
            )
        return {"k": min(k, n), **settings}

    def default_capacity(self, d: int, params: dict) -> int:
        """Compiler-derived vectors-per-board for this dimensionality
        (macro structure depends on ``d`` only, not on the bits)."""
        template, _ = build_knn_network(
            np.zeros((1, d), dtype=np.uint8),
            config=params["macro_config"],
            name="capacity-probe",
        )
        return APCompiler(params["device"]).max_instances(template)

    def batch_params(self, params: dict, n_q: int, n: int, d: int) -> dict:
        if params["execution"] != "auto":
            return params
        # True cost over the n vectors actually present: charging every
        # partition at full board capacity would flip workloads near
        # the limit to "functional" prematurely.
        block_length = _knn_layout(d, params["macro_config"]).block_length
        cost = n * (2 * d + 8) * block_length * max(1, n_q)
        mode = "simulate" if cost <= _AUTO_SIM_LIMIT else "functional"
        return {**params, "execution": mode}

    def compile(self, dataset_bits: np.ndarray, params: dict):
        params = _KNN_DEFAULTS | params  # direct callers may pass bare {"k": k}
        if params["execution"] != "simulate":
            return super().compile(dataset_bits, params)
        network, _ = build_knn_network(
            dataset_bits, config=params["macro_config"], name="partition",
            report_code_base=0,
        )
        return APRuntime(params["device"]).build_image(network)

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        params = _KNN_DEFAULTS | params
        if params["execution"] == "simulate":
            return None  # a cycle-accurate image is compiled from bits
        return FunctionalKnnBoard.from_packed(
            words, _knn_layout(d, params["macro_config"])
        )

    def execute(self, artifact, queries_bits: np.ndarray, params: dict):
        from .engine import (
            decode_partition_topk,
            functional_pass_counters,
            run_partition_simulated,
        )

        params = _KNN_DEFAULTS | params
        k = int(params["k"])
        n_q = queries_bits.shape[0]
        if params["execution"] != "simulate":
            # The board's (q, min(k, n)) arrays are already the decoded,
            # (distance, index)-ordered, pad-free block.
            block = artifact.topk_block(queries_bits, k)
            counters = functional_pass_counters(n_q, artifact.n, artifact.layout)
            return KnnWorkloadResult(*block), counters
        layout = _knn_layout(queries_bits.shape[1], params["macro_config"])
        q_idx, codes, cycles, counters = run_partition_simulated(
            artifact, queries_bits, layout, params["device"]
        )
        block = decode_partition_topk(q_idx, codes, cycles, n_q, k, layout)
        if block is None:
            return self.empty(n_q, {"k": k}), counters
        return KnnWorkloadResult(*block), counters

    def merge(self, partials: list, offsets, params: dict):
        blocks = [
            p if isinstance(p, tuple) else (p.indices, p.distances)
            for p in partials
        ]
        indices, distances = merge_topk_blocks(
            blocks,
            int(params["k"]),
            offsets=offsets,
            pad_index=_PAD_INDEX,
            pad_distance=_PAD_DISTANCE,
        )
        return KnnWorkloadResult(indices, distances)

    def empty(self, n_q: int, params: dict):
        k = int(params["k"])
        return KnnWorkloadResult(
            np.full((n_q, k), _PAD_INDEX, dtype=np.int64),
            np.full((n_q, k), _PAD_DISTANCE, dtype=np.int64),
        )

    def unpack(self, payload: bytes, offset: int = 0):
        from ..host.rpc import RpcProtocolError

        value = super().unpack(payload, offset)
        if value.indices.shape != value.distances.shape or value.indices.ndim != 2:
            raise RpcProtocolError(
                f"result blocks disagree: {value.indices.shape} vs "
                f"{value.distances.shape}"
            )
        return value

    def execute_task(
        self, task: PartitionTask, queries_bits: np.ndarray, cache
    ) -> PartitionResult:
        if not task.params:
            # A hand-built legacy-shaped task (benchmarks/e2e): fold its
            # kNN-only fields into params.  Goes when PartitionTask's
            # legacy field list does.
            n_rows = task.end - task.start
            legacy = self.validate_params(
                {
                    "k": task.k if task.k is not None else n_rows,
                    "execution": task.mode,
                    "device": task.device,
                    "macro_config": MacroConfig(
                        max_fan_in=task.max_fan_in,
                        counter_max_increment=task.counter_max_increment,
                    ),
                },
                n_rows,
                task.d,
            )
            task = replace(task, params=tuple(sorted(legacy.items())))
        return super().execute_task(task, queries_bits, cache)


def _knn_layout(d: int, macro_config: MacroConfig) -> StreamLayout:
    return StreamLayout(d, collector_tree_depth(d, macro_config.max_fan_in))


def _range_block_length(d: int, macro_config: MacroConfig) -> int:
    """Symbols per range query block: SOF + d bits + (L + 2) flush pads
    + EOF (threshold macros have no sort phase)."""
    return d + collector_tree_depth(d, macro_config.max_fan_in) + 4


# -- built-in: Jaccard top-k ------------------------------------------------


@dataclass
class JaccardBoardArtifact:
    """One pass's Jaccard boards: packed indicator bits plus per-vector
    set sizes (|A|, known offline — Section II-C)."""

    packed: np.ndarray  # (n, w) uint64 packed indicator vectors
    sizes: np.ndarray  # (n,) int64 set sizes |A|
    d: int

    @property
    def n(self) -> int:
        return int(self.packed.shape[0])


def _jaccard_keys(
    inter: np.ndarray, q_sizes: np.ndarray, sizes: np.ndarray, d: int
) -> np.ndarray:
    """``(q, n)`` keys ``(d² − ⌊d²·I/U⌋)·n + row`` ordering pairs exactly
    by (descending similarity ``I/U``, ascending row): as ``U ≤ d``,
    distinct fractions lie ``≥ 1/d²`` apart and never share a floor.
    Empty-vs-empty (``U = 0``) is similarity 1.  uint32 while the
    numerator ``I·d² ≤ d³`` and every key fit, else uint64."""
    n, scale = sizes.shape[0], d * d
    kd = _key_dtype(max(scale * d, (scale + 1) * n))
    keys = np.multiply(inter, scale, dtype=kd)
    # An empty row meets every query in I = 0, whose floor is 0 over any
    # U > 0: counting it as size 1 keeps every divisor in [1, d + 1],
    # held in the narrowest dtype that fits d + 1.
    ud = np.min_scalar_type(d + 1)
    union = np.subtract(q_sizes.astype(ud)[:, None], inter, dtype=ud)
    union += np.maximum(sizes, 1).astype(ud)
    np.floor_divide(keys, union, out=keys)
    keys *= n
    np.subtract(np.arange(scale * n, (scale + 1) * n, dtype=kd), keys, out=keys)
    empty_rows = np.flatnonzero(sizes == 0)
    keys[np.ix_(q_sizes == 0, empty_rows)] = empty_rows
    return keys


@dataclass
class JaccardWorkloadResult:
    """(q, k) Jaccard top-k: descending similarity, ties by ascending
    index; pads are ``(-1, -1.0, -1)`` (valid similarities are in
    [0, 1], so pads always sort last)."""

    indices: np.ndarray  # (q, k) int64
    similarities: np.ndarray  # (q, k) float64
    intersections: np.ndarray  # (q, k) int64


class JaccardTopkWorkload(Workload):
    """Top-k Jaccard via intersection temporal sort + host re-rank.

    Functional model of :class:`~repro.core.jaccard.JaccardAPSearch`:
    similarities are per-vector quantities (independent of
    partitioning), so partition-local top-k blocks merge into exactly
    the single-engine answer under the (descending similarity,
    ascending index) total order.  A pass selects on one exact integer
    key per pair (:func:`_jaccard_keys`), as kNN's ``topk_block`` does.
    """

    name = "jaccard"
    description = (
        "Jaccard-similarity top-k via intersection temporal sort "
        "+ exact host re-rank"
    )
    wire_fields = ("indices", "similarities", "intersections")
    result_type = JaccardWorkloadResult

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        k = int(params.get("k", 10))
        if k < 1:
            raise ValueError("k must be >= 1")
        return {"k": min(k, n)}

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        return JaccardBoardArtifact(
            packed=words, sizes=popcount_u64(words).sum(axis=1), d=int(d)
        )

    def execute(self, artifact, queries_bits: np.ndarray, params: dict):
        qp = pack_bits(queries_bits)
        k = min(int(params["k"]), artifact.n)
        inter = popcount_cdist(qp, artifact.packed, np.bitwise_and)
        q_sizes = popcount_u64(qp).sum(axis=1)
        # Top-k by selection on one exact integer key per pair; float
        # similarities exist only for the k kept.
        keys = _jaccard_keys(inter, q_sizes, artifact.sizes, artifact.d)
        ids = _select_smallest(keys, k, artifact.n)[1].astype(np.int64)
        kept = np.take_along_axis(inter, ids, axis=1).astype(np.int64)
        union = artifact.sizes[ids] + q_sizes[:, None] - kept
        sims = np.ones(ids.shape, dtype=np.float64)
        np.divide(kept, union, out=sims, where=union > 0)
        partial = JaccardWorkloadResult(ids, sims, kept)
        # Counter accounting for the modeled board: one configuration,
        # the kNN sort-phase stream per query block, one report per
        # vector per query (the intersection sort reports all n).
        counters = RuntimeCounters()
        n_q = qp.shape[0]
        counters.configurations += 1
        counters.symbols_streamed += (
            n_q * _knn_layout(artifact.d, MacroConfig()).block_length
        )
        counters.reports_received += n_q * artifact.n
        counters.report_payload_bits += n_q * artifact.n * REPORT_RECORD_BITS
        return partial, counters

    def merge(self, partials: list, offsets, params: dict):
        k = int(params["k"])
        idx_parts, sim_parts, int_parts = [], [], []
        for bi, p in enumerate(partials):
            idx = np.asarray(p.indices, dtype=np.int64)
            if offsets is not None:
                off = int(offsets[bi])
                # Re-base valid indices only: a pad must never become
                # the bogus valid global index offset - 1.
                idx = np.where(idx != _PAD_INDEX, idx + off, _PAD_INDEX)
            idx_parts.append(idx)
            sim_parts.append(np.asarray(p.similarities, dtype=np.float64))
            int_parts.append(np.asarray(p.intersections, dtype=np.int64))
        indices = np.concatenate(idx_parts, axis=1)
        sims = np.concatenate(sim_parts, axis=1)
        inters = np.concatenate(int_parts, axis=1)
        # Row-wise (descending similarity, ascending index) order; pad
        # rows (sim -1.0 < any valid sim in [0, 1]) sort last.
        order = np.lexsort((indices, -sims), axis=-1)
        n_q, m = indices.shape
        k_out = min(k, m) if m else k
        order = order[:, :k_out]
        out = JaccardWorkloadResult(
            indices=np.take_along_axis(indices, order, axis=1),
            similarities=np.take_along_axis(sims, order, axis=1),
            intersections=np.take_along_axis(inters, order, axis=1),
        )
        if k_out < k:  # fewer candidates than k: pad out to width k
            pad = self.empty(n_q, {"k": k})
            for f in self.wire_fields:
                getattr(pad, f)[:, :k_out] = getattr(out, f)
            out = pad
        return out

    def empty(self, n_q: int, params: dict):
        k = int(params["k"])
        return JaccardWorkloadResult(
            np.full((n_q, k), _PAD_INDEX, dtype=np.int64),
            np.full((n_q, k), -1.0, dtype=np.float64),
            np.full((n_q, k), -1, dtype=np.int64),
        )


# -- built-in: Hamming range search ----------------------------------------


@dataclass
class RangeBoardArtifact:
    """One pass's range boards: packed dataset bits (the threshold
    macros need nothing else at execute time)."""

    packed: np.ndarray  # (n, w) uint64
    d: int
    n: int


@dataclass
class RangeWorkloadResult:
    """Ragged per-query hit lists as padded blocks.

    ``indices``/``distances`` are ``(q, M)`` with ``M`` = the widest
    row's hit count; row ``qi``'s valid entries are its first
    ``counts[qi]`` columns, sorted ascending by index (report-code
    order), the rest pads.
    """

    indices: np.ndarray  # (q, M) int64, pad -1
    distances: np.ndarray  # (q, M) int64, pad -1
    counts: np.ndarray  # (q,) int64 valid hits per row

    def to_lists(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The :class:`~repro.core.range_search.RangeSearchResult`
        view: per-query candidate/distance arrays without pads."""
        return (
            [row[:c] for row, c in zip(self.indices, self.counts)],
            [row[:c] for row, c in zip(self.distances, self.counts)],
        )


class HammingRangeWorkload(Workload):
    """Report every vector within Hamming distance ``radius``.

    Functional model of :class:`~repro.core.range_search.
    HammingRangeSearch`'s threshold automata.  Results are ragged —
    per-query hit counts vary — so the merge is
    :func:`~repro.util.topk.merge_ragged_blocks`: union of the shards'
    hits, ascending by global index, pads never offset.
    """

    name = "range"
    description = (
        "Hamming range search: report all vectors within radius r "
        "(threshold macros, ragged results)"
    )
    wire_fields = ("indices", "distances", "counts")
    result_type = RangeWorkloadResult

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        if "radius" not in params:
            raise ValueError("range workload requires a 'radius' parameter")
        radius = int(params["radius"])
        if not 0 <= radius < d:
            raise ValueError(f"radius must be in [0, {d}), got {radius}")
        return {"radius": radius}

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        return RangeBoardArtifact(packed=words, d=int(d), n=int(words.shape[0]))

    def execute(self, artifact, queries_bits: np.ndarray, params: dict):
        qp = pack_bits(queries_bits)
        radius = int(params["radius"])
        dist = popcount_cdist(qp, artifact.packed)
        n_q = qp.shape[0]
        # One flat row-major scan: hits come out grouped by query and,
        # within a query, in ascending column (= dataset index) order —
        # exactly the report-code order the threshold automata would
        # emit under simultaneous-activation state-ID resolution.
        flat = np.flatnonzero(dist <= radius)
        rows, cols = np.divmod(flat, artifact.n)
        counts = np.bincount(rows, minlength=n_q)
        out_col = np.arange(flat.shape[0]) - (np.cumsum(counts) - counts)[rows]
        width = int(counts.max(initial=0))
        indices = np.full((n_q, width), _PAD_INDEX, dtype=np.int64)
        distances = np.full((n_q, width), _PAD_DISTANCE, dtype=np.int64)
        indices[rows, out_col] = cols
        distances[rows, out_col] = dist.ravel()[flat]
        partial = RangeWorkloadResult(indices, distances, counts)

        # Counter accounting: one configuration; the shorter range
        # stream (no sort phase: SOF + d bits + flush + EOF); only
        # in-radius vectors report — the whole point of the design.
        counters = RuntimeCounters()
        counters.configurations += 1
        counters.symbols_streamed += n_q * _range_block_length(
            artifact.d, MacroConfig()
        )
        counters.reports_received += flat.shape[0]
        counters.report_payload_bits += flat.shape[0] * REPORT_RECORD_BITS
        return partial, counters

    def merge(self, partials: list, offsets, params: dict):
        indices, distances, counts = merge_ragged_blocks(
            [(p.indices, p.distances) for p in partials],
            offsets=offsets,
            pad_index=_PAD_INDEX,
            pad_value=_PAD_DISTANCE,
        )
        return RangeWorkloadResult(indices, distances, counts)

    def empty(self, n_q: int, params: dict):
        return RangeWorkloadResult(
            np.empty((n_q, 0), dtype=np.int64),
            np.empty((n_q, 0), dtype=np.int64),
            np.zeros(n_q, dtype=np.int64),
        )


# -- the engine -------------------------------------------------------------


@dataclass
class WorkloadRunResult:
    """The one result envelope: a workload's answer plus the run's
    execution accounting, for local, multi-board and remote searches.

    ``value`` is the workload's own result dataclass; ``indices`` /
    ``distances`` / ``k`` pass through to it so ``searcher``-shaped
    consumers (the CLI, the batching layer) work against any workload.
    For kNN, ``k`` is the requested ``k`` clipped to the dataset size,
    and rows are padded with ``(-1, -1)`` in the (normally impossible)
    case that a back-end returns fewer candidates.
    """

    workload: str
    value: object
    counters: RuntimeCounters
    # Board-partition passes per local device (or per answering remote
    # shard); n_partitions / n_devices derive from it.
    per_device_partitions: tuple = (1,)
    # Resolved back-end: "simulate"/"functional"; for a remote fan-out
    # "mixed" when shards disagree and "none" when none answered.
    execution: str = "functional"
    n_workers: int = 1  # worker lanes (or shards) that actually ran
    # Which boundary tasks crossed: "none" (in-process), "pickle"
    # (process workers), or "rpc" for the network fan-out.
    transport: str = "none"
    # Parent->worker submission bytes (ParallelConfig(measure_ipc=True)).
    ipc_payload_bytes: int | None = None
    # Mean per-task submit->start dispatch latency of the parallel run
    # (None when the run was serial or remote).
    dispatch_overhead_s: float | None = None
    # Remote fan-out only: shards (whole replica groups) that failed to
    # answer, and the failovers / hedged re-issues the batch needed.
    failed_shards: tuple = ()
    failovers: int = 0
    hedges: int = 0

    @property
    def indices(self) -> np.ndarray:
        return self.value.indices

    @property
    def distances(self):
        return getattr(self.value, "distances", None)

    @property
    def k(self) -> int:
        return int(self.value.indices.shape[1])

    @property
    def partial(self) -> bool:
        """True when some shard's candidates are missing from the merge:
        the rows are exact *over the shards that answered* only."""
        return bool(self.failed_shards)

    @property
    def n_devices(self) -> int:
        return len(self.per_device_partitions)

    @property
    def n_partitions(self) -> int:
        return sum(self.per_device_partitions)

    n_partition_passes = n_partitions


class WorkloadSearch(Batchable):
    """The one engine loop: any registered workload over the host stack.

    Partitions the dataset into board-sized slices, compiles each
    through the workload (cache-aware, content-addressed), executes
    partitions serially or across a :class:`~repro.host.parallel.
    ParallelConfig` worker pool (thread/process, persistent
    pools, artifact shipping), and merges through the workload's
    associative ``merge`` — so results are bit-identical to a single
    sequential pass for every backend × store combination.

    Parameters
    ----------
    dataset_bits:
        ``(n, d)`` binary dataset: an ndarray, a
        :class:`~repro.core.dataset.PackedDataset` handle, or a
        ``.pds`` path — all normalize to one store-backed handle.  When
        ``parallel`` fans out across processes an in-memory dataset is
        promoted to shared memory (:meth:`~repro.core.dataset.
        PackedDataset.attachable`) so workers attach it by reference.
    workload, params:
        A registered workload (name or instance) and its request
        parameters, normalized by ``workload.validate_params``.
    board_capacity:
        Vectors per board configuration; defaults to the workload's
        own rule (``workload.default_capacity``).
    parallel:
        ``None``/``1`` for sequential execution, an ``int`` worker
        count, or a :class:`~repro.host.parallel.ParallelConfig`.
    cache:
        ``None`` to disable, ``True`` for a private LRU
        :class:`~repro.ap.compiler.BoardImageCache` of default size, an
        ``int`` for a private cache of that capacity, or an existing
        cache instance to *share* compiled partitions across engines
        (keys are content-addressed; construct it with ``cache_dir=``
        to persist artifacts so a restarted service starts warm).
    device:
        AP generation (capacity/timing constants), handed to the
        workload as the deployment-owned ``"device"`` param.
    n_devices:
        Shard the dataset across this many boards: balanced contiguous
        shards (:func:`balanced_shard_bounds`), board partitions never
        straddling a shard boundary.  Partition offsets are global
        starts either way, so the merge is the same one pass.
    """

    def __init__(
        self,
        dataset_bits: np.ndarray,
        workload: str | Workload,
        params: dict | None = None,
        board_capacity: int | None = None,
        parallel: ParallelConfig | int | None = None,
        cache: BoardImageCache | int | bool | None = None,
        device: APDeviceSpec = GEN1,
        n_devices: int = 1,
    ):
        self.dataset = PackedDataset.ensure(dataset_bits)
        self.workload = (
            get_workload(workload) if isinstance(workload, str) else workload
        )
        self.n, self.d = self.dataset.shape
        self.workload.validate_dataset(self.n, self.d)
        self.params = self.workload.validate_params(
            {"device": device, **(params or {})}, self.n, self.d
        )
        self.device = self.params.get("device", device)
        self.parallel = self._normalize_parallel(parallel)
        if not self.parallel.shares_memory and self.parallel.n_workers > 1:
            self.dataset = self.dataset.attachable()
        self.cache = self._normalize_cache(cache)
        if board_capacity is None:
            board_capacity = self.workload.default_capacity(self.d, self.params)
        if board_capacity < 1:
            raise ValueError("board_capacity must be >= 1")
        self.board_capacity = int(board_capacity)
        self.n_devices = int(n_devices)
        self.shard_bounds = balanced_shard_bounds(self.n, self.n_devices)
        shards = [
            [
                (start, min(start + self.board_capacity, hi))
                for start in range(lo, hi, self.board_capacity)
            ]
            for lo, hi in zip(
                self.shard_bounds[:-1].tolist(), self.shard_bounds[1:].tolist()
            )
        ]
        self.per_device_partitions = tuple(len(shard) for shard in shards)
        self.partitions = [bounds for shard in shards for bounds in shard]
        # Task lists are a pure function of (immutable engine state,
        # resolved params, boards per pass): built once per such pair,
        # not per search.
        self._tasks: dict[tuple, list[PartitionTask]] = {}
        self._m_passes = _metrics.get_registry().counter(
            "repro_engine_host_passes_total",
            "Functional/simulated execute passes run by engine searches "
            "(a pass may span several boards; boards are configurations).",
        )

    @staticmethod
    def _normalize_parallel(
        parallel: ParallelConfig | int | None,
    ) -> ParallelConfig:
        if parallel is None:
            return ParallelConfig(n_workers=1)
        if isinstance(parallel, ParallelConfig):
            return parallel
        if isinstance(parallel, (int, np.integer)):
            return ParallelConfig(n_workers=int(parallel))
        raise ValueError(
            f"parallel must be None, an int, or ParallelConfig, got {parallel!r}"
        )

    @staticmethod
    def _normalize_cache(
        cache: BoardImageCache | int | bool | None,
    ) -> BoardImageCache | None:
        if cache is None or cache is False:
            return None
        if cache is True:
            return BoardImageCache()
        if isinstance(cache, BoardImageCache):
            return cache
        if isinstance(cache, (int, np.integer)):
            # 0 (and below) disables caching, matching the CLI's
            # --cache-size 0 convention.
            return BoardImageCache(max_entries=int(cache)) if cache > 0 else None
        raise ValueError(
            f"cache must be None, bool, an int, or BoardImageCache, got {cache!r}"
        )

    def _boards_per_pass(self, params: dict, n_q: int) -> int:
        """How many boards one host pass spans for an ``n_q``-row batch
        under the pass budgets — the view budget where the pass reads
        the store's packed words in place, the gather budget where it
        concatenates them; 1 where ``compile_packed`` does not answer (a
        cycle-accurate image is one board), and never so many that a
        configured worker lane would be left without a pass."""
        if not self._packs(params):
            return 1
        budget = (
            _PASS_VIEW_BYTES if self._view_passes(params) else _PASS_GATHER_BYTES
        )
        rows = min(
            budget // (8 * ((self.d + 63) // 64)), _PASS_PAIRS // max(1, n_q)
        )
        lanes = max(1, self.parallel.effective_workers)
        return max(
            1, min(rows // self.board_capacity, len(self.partitions) // lanes)
        )

    def _packs(self, params: dict) -> bool:
        """Does the workload's ``compile_packed`` answer under ``params``
        (the worker body's own question, so keys match its entries)?"""
        return _answers_packed(
            self.workload.compile_packed, self.d, tuple(sorted(params.items()))
        )

    def _view_passes(self, params: dict) -> bool:
        """Will a pass under ``params`` run on a view of the store's
        packed row words (the store holds them and ``compile_packed``
        answers)?  View passes are built without cache keys and counted
        as hits."""
        return self._packs(params) and (
            self.dataset.packed_window(0, 1) is not None
        )

    def _partition_tasks(
        self, params: dict, boards_per_pass: int = 1
    ) -> list[PartitionTask]:
        """Self-contained, picklable work units for ``params`` (already
        resolved by ``workload.batch_params``): each device shard's
        boards cut into the fewest runs of at most ``boards_per_pass``
        row-consecutive boards, near-equal (sizes differ by at most one
        board, so no short tail pass), never crossing a shard
        boundary."""
        items = tuple(sorted(params.items()))
        tasks = self._tasks.get((items, boards_per_pass))
        if tasks is not None:
            return tasks
        macro = params.get("macro_config", MacroConfig())
        flavor = ("workload", self.workload.name) + self.workload.cache_params(
            params
        )
        packed = self._packs(params)
        # Only a pass that will consult the cache needs keys (and the
        # digest scan behind them): a view pass compiles nothing.
        keyed = self.cache is not None and not self._view_passes(params)

        def board_key(start: int, end: int) -> tuple | None:
            # Content-addressed per board: no positional component, and
            # the handle's streaming digest is store-independent, so
            # identical board content shares cache entries across
            # engines, offsets, stores and pass sizes.
            if not keyed:
                return None
            digest = self.dataset.partition_digest(start, end)
            if packed:
                # A board's packed words are the same whichever workload
                # reads them: keyed by content alone.
                return (digest, "words")
            return partition_cache_key(
                None, macro, self.device, extra=flavor, digest=digest
            )

        # Store-backed datasets (mmap/shm) ship descriptor-sized slice
        # refs — workers attach the store themselves — with an empty
        # stub where the array slice would go; in-memory datasets ship
        # real views, by value when a worker is out of process.
        stub = np.empty((0, self.d), dtype=np.uint8)
        tasks = []
        shard_lo = 0  # index of the device shard's first board
        for n_boards in self.per_device_partitions:
            n_runs = -(-n_boards // boards_per_pass)
            cuts = [shard_lo + i * n_boards // n_runs for i in range(n_runs + 1)]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                run = self.partitions[lo:hi]
                start, end = run[0][0], run[-1][1]
                ref = self.dataset.slice_ref(start, end)
                tasks.append(PartitionTask(
                    p_idx=len(tasks),
                    start=start,
                    end=end,
                    dataset_bits=(
                        stub if ref is not None else self.dataset.rows(start, end)
                    ),
                    dataset_slice=ref,
                    boards=tuple((b - a, board_key(a, b)) for a, b in run),
                    workload=self.workload.name,
                    params=items,
                ))
            shard_lo += n_boards
        self._tasks[(items, boards_per_pass)] = tasks
        return tasks

    def search(self, queries_bits: np.ndarray) -> WorkloadRunResult:
        """Run a query batch; merged result over all partitions."""
        queries_bits = normalize_queries(queries_bits, self.d)
        n_q = queries_bits.shape[0]
        params = self.workload.batch_params(self.params, n_q, self.n, self.d)
        tasks = self._partition_tasks(
            params, self._boards_per_pass(params, n_q)
        )
        counters = RuntimeCounters()
        partials, offsets = [], []
        passes = 0
        with _metrics.stage("execute"):
            run = run_partitions(
                tasks, queries_bits, self.parallel, cache=self.cache
            )
            for task, res in zip(tasks, run.results):  # both in p_idx order
                counters.merge(res.counters)
                passes += res.passes
                if res.payload is not None:
                    partials.append(res.payload)
                    offsets.append(task.start)
        self._m_passes.inc(passes)
        if self.cache is not None and self._view_passes(params):
            # Boards served without a compile are hits, whoever held the
            # bytes: one bump per search, where every backend can see
            # the engine's cache.
            self.cache.record_hits(len(self.partitions))
        # Host-side merge (Section III-C: "the host processor ...
        # keep[s] track of intermediary results per query across board
        # reconfigurations"), in ONE batched offset-aware pass.
        with _metrics.stage("merge"):
            if partials:
                value = self.workload.merge(partials, offsets, params)
            else:
                value = self.workload.empty(n_q, params)
        return WorkloadRunResult(
            workload=self.workload.name,
            value=value,
            counters=counters,
            per_device_partitions=self.per_device_partitions,
            execution=params.get("execution", "functional"),
            n_workers=run.n_workers,
            transport=run.transport,
            ipc_payload_bytes=run.ipc_payload_bytes,
            dispatch_overhead_s=run.dispatch_overhead_s,
        )

    def split_result(self, result: WorkloadRunResult, lo: int, hi: int):
        """Row-slice for the batching layer: one caller's rows of a
        coalesced batch (views into the batch result's arrays)."""
        return replace(
            result, value=self.workload.split(result.value, lo, hi)
        )

    # -- the paper's run-time model ----------------------------------------

    def estimated_runtime_s(
        self, n_queries: int, model: APModel | None = None
    ) -> float:
        """Paper-model run time for this engine's partitioning: the
        makespan across concurrently-running devices (slowest shard)."""
        model = model or APModel(device=self.device)
        return max(
            model.runtime_s(int(size), n_queries, self.d, self.board_capacity)
            for size in np.diff(self.shard_bounds)
        )

    def scaling_efficiency(
        self, n_queries: int, single_device_runtime_s: float
    ) -> float:
        """Speedup over one device divided by the device count (``nan``
        for a degenerate spec whose modeled runtime is not positive)."""
        t = self.estimated_runtime_s(n_queries)
        if t <= 0:
            return float("nan")
        return (single_device_runtime_s / t) / self.n_devices


# Built-ins register at import: everything that resolves workloads by
# name (worker processes, shard servers, the CLI) imports this module.
register_workload(HammingKnnWorkload())
register_workload(JaccardTopkWorkload())
register_workload(HammingRangeWorkload())

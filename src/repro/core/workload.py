"""Workload extension interface: one compile→partition→execute→merge
stack for every engine.

The paper's AP accelerates many automata-backed similarity workloads —
Hamming kNN (Section III), Jaccard similarity (Section II-C), range
search — but PRs 1–5 grew the scale-out machinery (parallel partition
fan-out, shared-memory datasets, query batching, remote shards) around
the kNN result shape alone.  This module factors the pipeline those
layers actually rely on into a :class:`Workload` protocol:

* ``compile_packed(words, d, params) → artifact`` — the artifact of
  one *host pass* (a run of row-consecutive boards) over their packed
  row words: a view of a ``.pds`` or shared-memory store's, else the
  boards' cached words.  Every pass is one such artifact and one
  ``execute``; the board stays the unit of caching, counters and the
  AP model;
* ``execute(artifact, query_words, params) → (partial, counters)`` —
  one pass over the batch's packed query words (packed once per task)
  producing a *pass-local* partial result plus the
  :class:`~repro.ap.runtime.RuntimeCounters` delta a hardware run would
  record; a workload that :attr:`~Workload.carries` (kNN, Jaccard) also
  takes the running partial of the task's earlier passes;
* ``merge(partials, offsets, params) → result`` — the offset-aware
  host merge.  Merging must be **associative** and every merged result
  must itself be a valid partial (with offset 0), which is what lets
  shard servers pre-merge their local partitions and the remote pool
  merge across shards without a distinguished root;
* ``pack/unpack`` — the RPC wire codec for partials/results, built on
  the same no-pickle array framing as the kNN protocol;
* ``split(result, lo, hi)`` — row slicing for the batching/admission
  layer (:class:`~repro.host.batching.BatchRouter`);
* ``default_capacity`` — the engine decision a workload owns: how
  many vectors fit one board configuration.

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
:class:`~repro.host.parallel.PartitionTask`\\ s (one run of them per
worker lane and device shard) through
:func:`~repro.host.parallel.run_partitions` (thread/process backends,
persistent pools, dataset windows), and merges through the workload's
own ``merge`` — so sharded/parallel/remote execution is
bit-identical to a sequential pass by associativity.  Hamming kNN is an
ordinary registered workload; :class:`~repro.core.engine.
APSimilaritySearch` and :class:`~repro.core.multiboard.MultiBoardSearch`
are named constructors over this class.  The cycle-accurate simulator
is not a pass kind: it is the oracle :func:`~repro.core.engine.
simulate_workload`, which the functional engine equals bit for bit for
every workload that declares the two optional hooks ``network`` (a
board's automata) and ``decode`` (its reports as a partial), as the
three built-ins do.
"""

from __future__ import annotations

import numpy as np

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from itertools import accumulate, pairwise

from ..ap.compiler import APCompiler, BoardImageCache
from ..ap.device import GEN1, APDeviceSpec
from ..ap.runtime import REPORT_RECORD_BITS, RuntimeCounters
from ..automata.network import AutomataNetwork
from ..automata.symbols import SymbolSet
from ..host.batching import Batchable
from ..host.parallel import (
    ParallelConfig,
    PartitionResult,
    PartitionTask,
    run_partitions,
)
from ..perf import metrics as _metrics
from ..perf.models import APModel
from ..util.bitops import as_bits, pack_bits, popcount_cdist, popcount_u64
from ..util.topk import (
    _key_dtype,
    _select_carried,
    _select_smallest,
    hamming_topk,
    merge_ragged_blocks,
    merge_topk_blocks,
)
from .dataset import PackedDataset
from .functional import FunctionalKnnBoard
from .macros import (
    MacroConfig,
    build_knn_network,
    build_vector_macro,
    collector_tree_depth,
)
from .stream import StreamLayout, decode_partition_topk, decode_report_offsets

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
    "refuse_unknown_params",
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

# Host pass budgets: how many row-consecutive boards the engine hands a
# worker as ONE pass, on every store alike.  Board capacity
# is a constraint of the AP fabric, not of the host.  _PASS_BYTES — one
# .pds verification chunk — bounds a pass's packed row words: the copy
# a gathered pass (in-memory rows) concatenates, or the pages a view
# pass (mmap .pds, shm) faults in.  _PASS_PAIRS bounds the widest
# per-pair transient (Jaccard's ~14 B) to ~3.5 MiB at any batch size.
# Constants, not options: README "Host passes" has the sweeps.
_PASS_BYTES = 256 * 2**10
_PASS_PAIRS = 2**18

#: Engine settings a deployment owns.  Constructors and the shard
#: server's own configuration set them; a wire request naming one is
#: refused — a remote client must not be able to pick, say, the board
#: capacity of a 2^20-row shard.
SERVER_OWNED_PARAMS = frozenset(
    {"device", "macro_config", "board_capacity", "n_devices"}
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


def refuse_unknown_params(workload: str, request: dict, resolved: dict) -> None:
    """Raise ``ValueError`` naming every ``request`` key that the
    workload's ``validate_params`` did not resolve and that is not
    deployment-owned (:data:`SERVER_OWNED_PARAMS`): a misspelt or
    retired parameter (say ``execution``) must fail, not run the
    defaults."""
    unknown = request.keys() - resolved.keys() - SERVER_OWNED_PARAMS
    if unknown:
        raise ValueError(
            f"unknown request parameter(s) {sorted(unknown)} for workload "
            f"{workload!r}"
        )


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
    #: True when :meth:`execute` takes ``prior=``, the partial of the
    #: task's rows ``[0, base)``, and ``base=``, and returns the partial
    #: of rows ``[0, base + rows)``: kNN and Jaccard, each later pass a
    #: threshold filter.  It picks no plan shape.
    carries: bool = False

    # -- parameters -------------------------------------------------------

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        """Normalize request parameters against a dataset's ``(n, d)``.

        Returns a canonical dict (str keys, hashable picklable values):
        same request ⇒ same dict, because it keys engines and ships in
        every :class:`~repro.host.parallel.PartitionTask`.  What a
        *request* may carry is plain JSON; deployment-owned settings
        (:data:`SERVER_OWNED_PARAMS`) are injected by whoever
        constructs the engine and may be richer objects.  Keys a
        workload does not take are left out of the returned dict, so one
        settings dict serves every workload; the engine then refuses any
        *request* key that is neither returned nor deployment-owned
        (:func:`refuse_unknown_params`).
        """
        return {}

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

    # -- the pipeline -----------------------------------------------------

    @abstractmethod
    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        """The artifact of one host pass over ``words``, the
        ``(rows, ceil(d/64))`` uint64 row words of a run of boards
        (:func:`~repro.util.bitops.pack_bits` layout).

        It promises that one :meth:`execute` over the run equals the
        merge of its boards' answers, that ``configurations`` and
        ``symbols_streamed`` of a pass do not depend on the rows, that
        report counters are additive over rows, and that the artifact
        only *reads* ``words`` — a read-only view of a file mapping or
        shared segment, or a transient concatenation of cached words —
        and is never cached, shipped or kept.
        """

    @abstractmethod
    def execute(
        self, artifact, query_words: np.ndarray, params: dict
    ) -> tuple:
        """One pass: ``(partial, counters)``.

        ``query_words`` is the batch's ``(q, ceil(d/64))`` uint64 words,
        packed once per task.  ``partial`` is a :attr:`result_type` with
        pass-LOCAL indices; ``counters`` is this pass's
        :class:`~repro.ap.runtime.RuntimeCounters` delta.
        """

    @abstractmethod
    def merge(self, partials: list, offsets, params: dict):
        """Merge partials into one result, re-basing valid indices by
        the per-partial ``offsets`` (``None`` = already global).

        Must be associative, and the result must itself be a valid
        partial (mergeable again with offset 0): shard servers pre-merge
        their partitions and the remote pool merges across shards.  A
        lone partial at offset 0 must merge to itself, field for field
        (``merge([p], [0], params)`` equals ``p``): an engine whose plan
        is one task returns that task's partial as it is, unmerged.
        """

    @abstractmethod
    def empty(self, n_q: int, params: dict):
        """The result of merging nothing: ``n_q`` all-pad rows (the
        degraded remote path where every shard failed)."""

    # -- the cycle-accurate oracle's hooks (optional) ----------------------
    # A workload that defines both gets the link to the simulator
    # (repro.core.engine.simulate_workload); one that defines neither is
    # served all the same.

    def network(self, rows: np.ndarray, params: dict) -> tuple[AutomataNetwork, int]:
        """One board's automata over its ``(m, d)`` 0/1 ``rows`` (report
        code ``i`` for row ``i``) and the length of the query block they
        read (:func:`~repro.core.stream.encode_query_blocks`)."""
        raise NotImplementedError(f"workload {self.name!r} declares no automata")

    def decode(self, cycles, codes, rows, queries, params: dict):
        """The board's partial, as :meth:`execute` returns it, from the
        reports of its :meth:`network` streamed ``queries``: their
        ``cycles`` and ``codes``, int64, in stream order.  ``rows`` and
        ``queries`` give what the host knows beside the reports (set
        sizes, the exact distance of a row that reported); the answer
        must come from the reports, never from :meth:`execute` or its
        kernel, or the oracle would check the workload against itself."""
        raise NotImplementedError(f"workload {self.name!r} declares no decoder")

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
        :class:`~repro.host.parallel.PartitionTask`'s windows of boards
        in ascending row order, each window ONE pass: one
        :meth:`compile_packed` over the window's row words, one
        :meth:`execute` over the query words packed once for the task.

        The task's rows are a :class:`~repro.core.dataset.PackedDataset`
        window (an ndarray from a hand-built task).  The words are a
        view of its store's where it holds them packed — nothing is
        packed, hashed or looked up, and every board counts as served
        without a compile — else each board's words come from the cache,
        row-concatenated, in one transaction per window
        (:meth:`~repro.ap.compiler.BoardImageCache.lookup`, then
        ``store``), the missed boards' rows packed in one ``pack_bits``
        call; uncached, the window's rows are packed whole.  A workload
        that :attr:`carries` hands each window's :meth:`execute` the
        running partial of the windows before it; any other merges its
        window partials once, at the end, with its own :meth:`merge`.  A process worker has no
        cache: it packs every board it does not view.  Mapped pages are
        released behind each window.
        """
        params = dict(task.params)
        d = task.dataset_bits.shape[1]
        data = PackedDataset.ensure(task.dataset_bits, validate=False)
        windows = task.window_list()
        query_words = pack_bits(queries_bits)
        counters = RuntimeCounters()
        partial = None
        partials = []  # a non-carrier's window partials, merged once
        hits = 0
        for lo, hi, boards in windows:
            words = data.packed_window(lo, hi)
            if words is not None:
                hits += len(boards)
            elif cache is None or boards[0][1] is None:
                words = pack_bits(data.rows(lo, hi))
            else:
                keys = [key for _, key in boards]
                entries = cache.lookup(keys)
                if any(entry is None for entry in entries):
                    words = _pack_misses(data.rows(lo, hi), boards, entries)
                else:
                    words = entries[0] if len(entries) == 1 else np.concatenate(entries)
                hits += cache.store(keys, entries)
            artifact = self.compile_packed(words, d, params)
            if self.carries:
                partial, delta = self.execute(
                    artifact, query_words, params, prior=partial, base=lo
                )
            else:
                partial, delta = self.execute(artifact, query_words, params)
                partials.append(partial)
            # The window's words go before the next window's come.
            del artifact, words
            delta.configurations *= len(boards)
            delta.symbols_streamed *= len(boards)
            counters.merge(delta)
            # Drop the window's freshly faulted mmap pages back to the
            # page cache so a worker's RSS stays bounded by one pass,
            # not the whole shard it walks over a run.
            data.release(lo, hi)
        if len(partials) > 1:
            partial = self.merge(partials, [lo for lo, _, _ in windows], params)
        counters.image_cache_hits += hits
        return PartitionResult(
            p_idx=task.p_idx,
            counters=counters,
            payload=partial,
            passes=len(windows),
        )

    # -- compatibility adapters --------------------------------------------
    # benchmarks/e2e's stepwise replay (e2elib/stepwise.py) walks boards
    # one by one through these two and hands ``execute`` 0/1 query bits;
    # they go with that replay (ROADMAP item 1(b)).

    def compile(self, dataset_bits: np.ndarray, params: dict):
        """One board's artifact from its 0/1 rows: :meth:`compile_packed`
        over their packed words."""
        dataset_bits = np.asarray(dataset_bits)
        return self.compile_packed(
            pack_bits(dataset_bits), dataset_bits.shape[1], params
        )

    def cache_params(self, params: dict) -> tuple:
        """Always ``()``: a board's cache entry is its packed words,
        keyed by content alone."""
        return ()


def _pack_misses(rows: np.ndarray, boards, entries: list) -> np.ndarray:
    """A pass's words when some of its boards missed the cache: their
    rows packed in one call (which checks each row for 0/1 once) fill
    ``entries`` in place, one copy per board, so that an entry never
    pins the pass's buffer."""
    starts = list(accumulate((n_rows for n_rows, _ in boards), initial=0))
    missed = [i for i, entry in enumerate(entries) if entry is None]
    whole = len(missed) == len(boards)
    fresh = pack_bits(rows if whole else np.concatenate(
        [rows[starts[i] : starts[i + 1]] for i in missed]
    ))
    at = 0
    for i in missed:
        entries[i] = fresh[at : at + boards[i][0]].copy()
        at += boards[i][0]
    return fresh if whole else np.concatenate(entries)


def _query_words(queries: np.ndarray) -> np.ndarray:
    """A built-in ``execute``'s query operand: packed words as given,
    and a 0/1 batch (the stepwise replay's) packed here."""
    return queries if queries.dtype == np.uint64 else pack_bits(queries)


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
    "device": GEN1,
    "macro_config": MacroConfig(),
}


class HammingKnnWorkload(Workload):
    """The reference workload: Hamming kNN via counter temporal sort.

    This class owns what a kNN partition pass *is*: the exact
    functional model of the board (the earliest ``k`` reports per query
    ARE the top-k, so a pass is one :func:`~repro.util.topk.
    hamming_topk`), under which macro configuration and device, with one
    counter accounting.  Its automata are :func:`~repro.core.macros.
    build_knn_network`'s, and the earliest ``k`` of their reports decode
    to the same block (:func:`~repro.core.stream.decode_partition_topk`).
    """

    name = "knn"
    description = (
        "Hamming-distance top-k via counter temporal sort "
        "(earliest k reports per query ARE the top-k)"
    )
    wire_fields = ("indices", "distances")
    result_type = KnnWorkloadResult
    carries = True

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        k = int(params.get("k", 10))
        if k < 1:
            raise ValueError("k must be >= 1")
        settings = {
            key: params.get(key, default)
            for key, default in _KNN_DEFAULTS.items()
        }
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

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        params = _KNN_DEFAULTS | params  # direct callers may pass bare {"k": k}
        return FunctionalKnnBoard.from_packed(
            words, _knn_layout(d, params["macro_config"])
        )

    def execute(
        self, artifact, query_words: np.ndarray, params: dict,
        prior=None, base: int = 0,
    ):
        query_words = _query_words(query_words)
        # The (q, min(k, n)) arrays are already the decoded, (distance,
        # index)-ordered, pad-free block; a carried one makes this pass
        # a threshold filter.
        block = hamming_topk(
            query_words, artifact.packed, int(params["k"]), artifact.layout.d,
            prior=None if prior is None else (prior.indices, prior.distances),
            base=base,
        )
        # A block short of min(k, rows seen) (a lossy back-end) is padded
        # as merge would pad it (both pads are -1): a lone partial merges
        # to itself.
        if (short := min(int(params["k"]), base + artifact.n) - block[0].shape[1]) > 0:
            block = [np.pad(a, ((0, 0), (0, short)), constant_values=-1) for a in block]
        counters = functional_pass_counters(
            query_words.shape[0], artifact.n, artifact.layout
        )
        return KnnWorkloadResult(*block), counters

    def network(self, rows: np.ndarray, params: dict):
        config = params["macro_config"]
        network, _ = build_knn_network(rows, config=config, name="partition")
        return network, _knn_layout(rows.shape[1], config).block_length

    def decode(self, cycles, codes, rows, queries, params: dict):
        layout = _knn_layout(rows.shape[1], params["macro_config"])
        n_q = queries.shape[0]
        block = decode_partition_topk(
            cycles // layout.block_length, codes, cycles, n_q, params["k"], layout
        )
        return self.empty(n_q, params) if block is None else KnnWorkloadResult(*block)

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
            if task.mode != "functional":
                raise ValueError(
                    f"unknown execution mode {task.mode!r}: a task runs the "
                    "functional model; the cycle-accurate oracle is "
                    "repro.core.engine.simulate_knn"
                )
            legacy = self.validate_params(
                {
                    "k": task.k if task.k is not None else n_rows,
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


def functional_pass_counters(
    n_q: int, n: int, layout: StreamLayout
) -> RuntimeCounters:
    """What :class:`~repro.ap.runtime.APRuntime` records for one
    configure + stream + report pass of ``n_q`` queries over ``n``
    vectors: the (modeled) board emits one report per vector per query
    — the temporal sort has no early-out — so the report counters cover
    the full stream, however few records the host keeps."""
    counters = RuntimeCounters()
    counters.configurations += 1
    counters.symbols_streamed += n_q * layout.block_length
    counters.reports_received += n_q * n
    counters.report_payload_bits += n_q * n * REPORT_RECORD_BITS
    return counters


def _knn_layout(d: int, macro_config: MacroConfig) -> StreamLayout:
    return StreamLayout(d, collector_tree_depth(d, macro_config.max_fan_in))


def _macro_config(params: dict) -> MacroConfig:
    """The deployment's macro configuration, as every built-in reads it:
    the default where a direct caller passes bare request params."""
    return params.get("macro_config", _KNN_DEFAULTS["macro_config"])


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
    inter: np.ndarray, q_sizes: np.ndarray, sizes: np.ndarray, d: int,
    n: int | None = None, rows: np.ndarray | None = None,
) -> np.ndarray:
    """``(q, m)`` keys ``(d² − ⌊d²·I/U⌋)·n + row`` ordering pairs exactly
    by (descending similarity ``I/U``, ascending row): as ``U ≤ d``,
    distinct fractions lie ``≥ 1/d²`` apart and never share a floor.
    ``rows`` index a scan of ``n`` (default: its last ``m`` of ``n =
    m``).  Empty-vs-empty (``U = 0``) is similarity 1.  uint32 while the
    numerator ``I·d² ≤ d³`` and every key fit, else uint64.  The floor
    is a truncated float32 quotient while ``(d² + 1)(d + 1) < 2^24``
    (``d ≤ 255``), exactly: ``I·d²`` and ``U`` are exact in float32, and
    a non-integer quotient below ``m + 1 ≤ d² + 1`` lies ``≥ 1/U`` under
    it, more than its rounding error ``(m + 1)·2^-24``.  Integer
    division above the limit."""
    m, scale = sizes.shape[0], d * d
    n = m if n is None else n
    kd = _key_dtype(max(scale * d, (scale + 1) * n))
    rows = np.arange(n - m, n, dtype=kd) if rows is None else rows.astype(kd)
    exact_f32 = (scale + 1) * (d + 1) < 2**24
    keys = np.multiply(inter, scale, dtype=np.float32 if exact_f32 else kd)
    # An empty row meets every query in I = 0, whose floor is 0 over any
    # U > 0: counting it as size 1 keeps every divisor in [1, d + 1],
    # held in the narrowest dtype that fits d + 1.
    ud = np.min_scalar_type(d + 1)
    union = np.subtract(q_sizes.astype(ud)[:, None], inter, dtype=ud)
    union += np.maximum(sizes, 1).astype(ud)
    (np.divide if exact_f32 else np.floor_divide)(keys, union, out=keys)
    keys = keys.astype(kd, copy=False)
    keys *= n
    np.subtract(rows + kd(scale * n), keys, out=keys)
    if not q_sizes.all() and (empty := np.flatnonzero(sizes == 0)).size:
        keys[np.ix_(q_sizes == 0, empty)] = rows[empty]
    return keys


def _jaccard_carry(prior, k: int, inter, q_sizes, sizes, d: int):
    """A carried block's key ranks, and the columns of a window's
    intersections ``inter`` where a row can still enter it: one past the
    k-th fraction ``I*/U*`` (``U* = rint(I*/sim*)``, exact), i.e. ``I·(U*
    + I*) − I*·|a| > I*·|q|`` per pair, plus empty rows for an empty
    query.  README "Jaccard keys" has the argument."""
    inter_p, sims = prior.intersections, prior.similarities
    unions = np.rint(
        np.divide(inter_p, sims, out=np.ones(sims.shape), where=inter_p > 0)
    ).astype(np.int64)
    ranks = np.where(sims == 1, 0, d * d - d * d * inter_p // unions)
    if prior.indices.shape[1] < k or (prior.indices[:, k - 1] < 0).any():
        return ranks, np.arange(inter.shape[1])
    i_k, u_k = inter_p[:, k - 1], unions[:, k - 1]
    dt = np.min_scalar_type(-2 * d * d - 1)
    lhs = np.multiply(inter, (u_k + i_k).astype(dt)[:, None], dtype=dt)
    lhs -= np.multiply(i_k.astype(dt)[:, None], sizes.astype(dt), dtype=dt)
    passes = (lhs > (i_k * q_sizes).astype(dt)[:, None]).any(axis=0)
    if not q_sizes.all():
        passes |= sizes == 0
    return ranks, np.flatnonzero(passes)


_ONE = SymbolSet.single(1)


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
class JaccardWorkloadResult:
    """(q, k) Jaccard top-k: descending similarity, ties by ascending
    index; pads are ``(-1, -1.0, -1)`` (valid similarities are in
    [0, 1], so pads always sort last)."""

    indices: np.ndarray  # (q, k) int64
    similarities: np.ndarray  # (q, k) float64
    intersections: np.ndarray  # (q, k) int64


class JaccardTopkWorkload(Workload):
    """Top-k Jaccard via intersection temporal sort + host re-rank
    (Section II-C).

    The automata are kNN's temporal sort with match states only on each
    row's 1-bits (:func:`_intersection_network`), so a row reports at
    the offset of its intersection ``|A ∩ B|``; the host knows ``|A|``
    offline and ``|B|`` from the query, and re-ranks by exact ``I/U``.
    Similarities are per-vector quantities (independent of
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
    carries = True

    def validate_params(self, params: dict, n: int, d: int) -> dict:
        k = int(params.get("k", 10))
        if k < 1:
            raise ValueError("k must be >= 1")
        return {"k": min(k, n), "macro_config": _macro_config(params)}

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        return JaccardBoardArtifact(
            packed=words, sizes=popcount_u64(words).sum(axis=1), d=int(d)
        )

    def execute(
        self, artifact, query_words: np.ndarray, params: dict,
        prior=None, base: int = 0,
    ):
        qp = _query_words(query_words)
        sizes, d, base = artifact.sizes, artifact.d, int(base)
        n = base + artifact.n
        k = min(int(params["k"]), n)
        inter = popcount_cdist(qp, artifact.packed, np.bitwise_and)
        q_sizes = popcount_u64(qp).sum(axis=1)
        # Top-k by selection on one exact integer key per pair; a carried
        # block makes this pass a threshold filter, keyed only where a
        # row can still enter.
        cols, rows = slice(None), None
        if prior is not None:
            ranks, cols = _jaccard_carry(prior, int(params["k"]), inter, q_sizes, sizes, d)
            rows = cols + base
        keys = _jaccard_keys(inter[:, cols], q_sizes, sizes[cols], d, n, rows)
        ids = (
            _select_smallest(keys, k, n) if prior is None
            else _select_carried(keys, k, n, ranks, prior.indices)
        )[1].astype(np.int64)
        # Float similarities exist only for the k kept.
        fresh = ids >= base
        local = np.where(fresh, ids - base, 0)
        at = np.arange(qp.shape[0])[:, None]
        kept = inter[at, local].astype(np.int64)
        union = sizes[local] + q_sizes[:, None] - kept
        sims = np.ones(ids.shape, dtype=np.float64)
        np.divide(kept, union, out=sims, where=union > 0)
        if not fresh.all():
            # The carried rows kept are a prefix of the carried block,
            # which is in key order too.
            held = np.maximum(np.cumsum(~fresh, axis=1) - 1, 0)
            kept = np.where(fresh, kept, prior.intersections[at, held])
            sims = np.where(fresh, sims, prior.similarities[at, held])
        # The intersection sort streams kNN's blocks and reports all n.
        counters = functional_pass_counters(
            qp.shape[0], artifact.n, _knn_layout(d, _macro_config(params))
        )
        return JaccardWorkloadResult(ids, sims, kept), counters

    def network(self, rows: np.ndarray, params: dict):
        d, config = rows.shape[1], _macro_config(params)
        network = _intersection_network("partition", rows, d, True, config)
        return network, _knn_layout(d, config).block_length

    def decode(self, cycles, codes, rows, queries, params: dict):
        (n_q, d), n = queries.shape, rows.shape[0]
        # A row's report offset is its intersection with the query.
        q_idx, reported, _ = decode_report_offsets(
            cycles, _knn_layout(d, _macro_config(params))
        )
        inter = np.zeros((n_q, n), dtype=np.min_scalar_type(d))
        inter[q_idx, codes] = reported
        sizes = rows.sum(axis=1, dtype=np.int64)
        q_sizes = queries.sum(axis=1, dtype=np.int64)
        keys = _jaccard_keys(inter, q_sizes, sizes, d)
        ids = _select_smallest(keys, min(int(params["k"]), n), n)[1].astype(np.int64)
        kept = np.take_along_axis(inter, ids, axis=1).astype(np.int64)
        union = sizes[ids] + q_sizes[:, None] - kept
        sims = np.ones(ids.shape, dtype=np.float64)
        np.divide(kept, union, out=sims, where=union > 0)
        return JaccardWorkloadResult(ids, sims, kept)

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


def _ragged_hits(n_q: int, q_idx, rows, distances) -> RangeWorkloadResult:
    """The padded ``(q, M)`` block of hit pairs ``(q_idx, rows)`` grouped
    by query, each query's hits in the order given (ascending row)."""
    counts = np.bincount(q_idx, minlength=n_q)
    col = np.arange(q_idx.shape[0]) - (np.cumsum(counts) - counts)[q_idx]
    indices = np.full((n_q, int(counts.max(initial=0))), _PAD_INDEX, dtype=np.int64)
    block = np.full(indices.shape, _PAD_DISTANCE, dtype=np.int64)
    indices[q_idx, col] = rows
    block[q_idx, col] = distances
    return RangeWorkloadResult(indices, block, counts)


class HammingRangeWorkload(Workload):
    """Report every vector within Hamming distance ``radius``.

    kNN's sibling primitive, and more automata-native: each row is a
    :func:`~repro.core.macros.build_vector_macro` with ``threshold = d −
    r`` and ``sort=False``, which reports iff at least ``d − r``
    dimensions match, i.e. iff its distance is at most ``r``.  The
    stream drops the sort phase (:func:`_range_block_length`), a report
    offset says when the ``(d − r)``-th match arrived rather than the
    distance, and only the rows in range report — the AP as a
    similarity filter.  Results are ragged — per-query hit counts vary —
    so the merge is :func:`~repro.util.topk.merge_ragged_blocks`: union
    of the shards' hits, ascending by global index, pads never offset.
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
        return {"radius": radius, "macro_config": _macro_config(params)}

    def compile_packed(self, words: np.ndarray, d: int, params: dict):
        return RangeBoardArtifact(packed=words, d=int(d), n=int(words.shape[0]))

    def execute(self, artifact, query_words: np.ndarray, params: dict):
        qp = _query_words(query_words)
        radius = int(params["radius"])
        dist = popcount_cdist(qp, artifact.packed)
        n_q = qp.shape[0]
        # One flat row-major scan: hits come out grouped by query and,
        # within a query, in ascending column (= dataset index) order —
        # exactly the report-code order the threshold automata would
        # emit under simultaneous-activation state-ID resolution.
        flat = np.flatnonzero(dist <= radius)
        rows, cols = np.divmod(flat, artifact.n)
        partial = _ragged_hits(n_q, rows, cols, dist.ravel()[flat])

        # Counter accounting: one configuration; the shorter range
        # stream (no sort phase: SOF + d bits + flush + EOF); only
        # in-radius vectors report — the whole point of the design.
        counters = RuntimeCounters()
        counters.configurations += 1
        counters.symbols_streamed += n_q * _range_block_length(
            artifact.d, _macro_config(params)
        )
        counters.reports_received += flat.shape[0]
        counters.report_payload_bits += flat.shape[0] * REPORT_RECORD_BITS
        return partial, counters

    def network(self, rows: np.ndarray, params: dict):
        d, config = rows.shape[1], _macro_config(params)
        network = AutomataNetwork("partition")
        for v, row in enumerate(rows):
            build_vector_macro(
                network, row, v, f"v{v}_", config,
                threshold=d - int(params["radius"]), sort=False,
            )
        return network, _range_block_length(d, config)

    def decode(self, cycles, codes, rows, queries, params: dict):
        # The rows that reported are the hits, grouped by query in
        # ascending row order; the host re-reads their exact distances.
        q_idx = cycles // _range_block_length(rows.shape[1], _macro_config(params))
        order = np.lexsort((codes, q_idx))
        q_idx, codes = q_idx[order], codes[order]
        return _ragged_hits(
            queries.shape[0], q_idx, codes,
            np.count_nonzero(queries[q_idx] != rows[codes], axis=1),
        )

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
    # Back-end: "functional"; for a remote fan-out "mixed" when shards
    # disagree and "none" when none answered.  The wire still carries
    # it; it goes with the wire v2 bump (ROADMAP item 6).
    execution: str = "functional"
    n_workers: int = 1  # worker lanes (or shards) that actually ran
    # Which boundary tasks crossed: "none" (in-process), "pickle"
    # (process workers), or "rpc" for the network fan-out.
    transport: str = "none"
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


class WorkloadSearch(Batchable):
    """The one engine loop: any registered workload over the host stack.

    Partitions the dataset into board-sized slices, groups runs of them
    into host passes (each one ``compile_packed`` over the boards'
    packed words: a store view, or cache-aware, content-addressed
    per-board words), executes them serially or across a
    :class:`~repro.host.parallel.ParallelConfig` worker pool
    (thread/process, persistent pools; process workers are stateless),
    and merges through the workload's associative ``merge`` — so
    results are bit-identical to a single sequential pass for every
    backend × store combination.

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
        cache instance to *share* boards' packed words across engines
        and workloads (keys are content-addressed).  It serves the
        workers that run in this process (serial, thread, or a single
        worker of any backend); process workers see no cache.
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
        params = params or {}
        self.params = self.workload.validate_params(
            {"device": device, **params}, self.n, self.d
        )
        refuse_unknown_params(self.workload.name, params, self.params)
        self.device = self.params.get("device", device)
        self.parallel = self._normalize_parallel(parallel)
        if not self.parallel.shares_memory:
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
        # boards per pass): built once per pass size, not per search.
        self._tasks: dict[int, list[PartitionTask]] = {}
        self._m_passes = _metrics.get_registry().counter(
            "repro_engine_host_passes_total",
            "Execute passes run by engine searches "
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

    def _boards_per_pass(self, n_q: int) -> int:
        """How many boards one host pass spans for an ``n_q``-row batch
        under the pass budgets, on every store alike, and never so many
        that a configured worker lane would be left without a pass."""
        rows = min(
            _PASS_BYTES // (8 * ((self.d + 63) // 64)),
            _PASS_PAIRS // max(1, n_q),
        )
        lanes = max(1, self.parallel.effective_workers)
        return max(
            1, min(rows // self.board_capacity, len(self.partitions) // lanes)
        )

    def _view_passes(self) -> bool:
        """Will a pass run on a view of the store's packed row words?
        View passes are built without cache keys and counted as hits."""
        return self.dataset.packed_window(0, 1) is not None

    def _partition_tasks(self, boards_per_pass: int = 1) -> list[PartitionTask]:
        """Self-contained, picklable work units: each device shard's
        boards cut into the fewest passes (windows) of at most
        ``boards_per_pass`` row-consecutive boards, near-equal (sizes
        differ by at most one board, so no short tail pass), never
        crossing a shard boundary.  Whatever the workload, a task is
        one run of windows per (worker lane, device shard)."""
        tasks = self._tasks.get(boards_per_pass)
        if tasks is not None:
            return tasks
        items = tuple(sorted(self.params.items()))
        lanes = max(1, self.parallel.effective_workers)
        # Only a pass that will consult the cache needs keys (and the
        # digest scan behind them): a view pass compiles nothing, and a
        # process worker sees no cache — but run_partitions runs a lone
        # task in this process, whatever the backend.
        in_process = self.parallel.shares_memory or sum(
            min(lanes, -(-n_boards // boards_per_pass))
            for n_boards in self.per_device_partitions
        ) <= 1
        keyed = (
            self.cache is not None and in_process and not self._view_passes()
        )

        def board_key(start: int, end: int) -> tuple | None:
            # Content-addressed per board: no positional component, and
            # the handle's streaming digest is store-independent, so
            # identical board content shares cache entries across
            # engines, offsets, stores and pass sizes.  A board's packed
            # words are the same whichever workload reads them.
            if not keyed:
                return None
            return (self.dataset.partition_digest(start, end), "words")

        # A task's rows are a window of the engine's own handle, which a
        # process worker gets pickled (PackedDataset.__reduce__).
        tasks = []
        shard_lo = 0  # index of the device shard's first board
        for n_boards in self.per_device_partitions:
            n_runs = -(-n_boards // boards_per_pass)
            cuts = [shard_lo + i * n_boards // n_runs for i in range(n_runs + 1)]
            n_tasks = min(lanes, n_runs)
            marks = [i * n_runs // n_tasks for i in range(n_tasks + 1)]
            for first, last in zip(marks[:-1], marks[1:]):
                run = self.partitions[cuts[first] : cuts[last]]
                start, end = run[0][0], run[-1][1]
                boards = tuple((b - a, board_key(a, b)) for a, b in run)
                windows = tuple(
                    (self.partitions[a][0] - start, self.partitions[b - 1][1] - start,
                     boards[a - cuts[first] : b - cuts[first]])
                    for a, b in pairwise(cuts[first : last + 1])
                )
                tasks.append(PartitionTask(
                    p_idx=len(tasks),
                    start=start,
                    end=end,
                    dataset_bits=self.dataset.slice_rows(start, end),
                    windows=windows,
                    workload=self.workload.name,
                    params=items,
                ))
            shard_lo += n_boards
        self._tasks[boards_per_pass] = tasks
        return tasks

    def search(self, queries_bits: np.ndarray) -> WorkloadRunResult:
        """Run a query batch; merged result over all partitions."""
        queries_bits = normalize_queries(queries_bits, self.d)
        n_q = queries_bits.shape[0]
        tasks = self._partition_tasks(self._boards_per_pass(n_q))
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
        if self.cache is not None and self._view_passes():
            # Boards served without a compile are hits, whoever held the
            # bytes: one bump per search, where every backend can see
            # the engine's cache.
            self.cache.record_hits(len(self.partitions))
        # Host-side merge (Section III-C: "the host processor ...
        # keep[s] track of intermediary results per query across board
        # reconfigurations"), in ONE batched offset-aware pass.
        with _metrics.stage("merge"):
            if len(tasks) == 1:  # one partial of every row, at offset 0
                (value,) = partials
            elif partials:
                value = self.workload.merge(partials, offsets, self.params)
            else:
                value = self.workload.empty(n_q, self.params)
        return WorkloadRunResult(
            workload=self.workload.name,
            value=value,
            counters=counters,
            per_device_partitions=self.per_device_partitions,
            n_workers=run.n_workers,
            transport=run.transport,
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

"""Hamming kNN on the AP: the partition back-ends and the headline API.

The full flow of Section III — split the dataset into board-sized
partitions (Section III-C's partial reconfiguration), stream the
encoded query batch against each board image, keep the *earliest k
reports per query block* (the temporal sort emits activations in
ascending-distance order, ties resolved by state ID, so no distance
sort ever runs on the host), and merge per-partition candidates — is
the one pipeline of :class:`~repro.core.workload.WorkloadSearch`, with
kNN as its registered ``"knn"`` workload.  This module holds what is
kNN-specific beside it:

* the per-partition passes — :func:`run_partition_simulated`
  (cycle-accurate) and :func:`run_partition_functional_topk` (exact
  fast model) — and the one :func:`decode_partition_topk` both feed;
* :func:`simulate_knn`, the reference oracle: the same board cut run
  through the cycle-accurate simulator, which the functional engine
  must equal bit for bit, counters included;
* :class:`APSimilaritySearch`, the library's headline API: a named
  constructor configuring the pipeline for kNN (``parallel=`` worker
  fan-out and ``cache=`` board caching included).

Results carry the runtime event counters
(:class:`~repro.ap.runtime.RuntimeCounters`) that the performance
models consume.
"""

from __future__ import annotations

import numpy as np

from ..ap.compiler import BoardImageCache
from ..ap.device import APDeviceSpec, GEN1
from ..ap.runtime import APRuntime, RuntimeCounters
from ..host.parallel import ParallelConfig
from ..util.topk import merge_topk_blocks
from .dataset import PackedDataset
from .functional import FunctionalKnnBoard
from .macros import MacroConfig, build_knn_network
from .stream import StreamLayout, decode_report_offsets, encode_query_batch
from .workload import (
    KnnWorkloadResult,
    WorkloadRunResult,
    WorkloadSearch,
    _knn_layout,
    _PAD_DISTANCE as PAD_DISTANCE,
    _PAD_INDEX as PAD_INDEX,
    functional_pass_counters,
    get_workload,
    normalize_queries,
)

__all__ = [
    "KnnResult",
    "APSimilaritySearch",
    "PAD_INDEX",
    "PAD_DISTANCE",
    "build_functional_board",
    "decode_partition_topk",
    "functional_pass_counters",
    "run_partition_functional_topk",
    "run_partition_simulated",
    "simulate_knn",
]


# -- shared per-partition back-ends ---------------------------------------
#
# Both back-ends produce partition-LOCAL report codes (position-
# independent, required for content-addressed image caching); the
# offset-aware merge re-bases them to global dataset indices.


def run_partition_simulated(
    image,
    queries: np.ndarray,
    layout: StreamLayout,
    device: APDeviceSpec = GEN1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, RuntimeCounters]:
    """One compiled board image through the cycle-accurate back-end.

    Returns ``(q_idx, codes, cycles, counters)`` with this pass's
    counter delta.
    """
    runtime = APRuntime(device)
    runtime.configure(image)
    reports = runtime.stream(encode_query_batch(queries, layout))
    # Explicit dtypes: an empty report list must still yield int64
    # arrays (a bare np.array([]) is float64 and would poison the
    # decoder's integer index math downstream).
    n_rep = len(reports)
    cycles = np.fromiter((r.cycle for r in reports), dtype=np.int64, count=n_rep)
    codes = np.fromiter((r.code for r in reports), dtype=np.int64, count=n_rep)
    q_idx = cycles // layout.block_length
    return q_idx, codes, cycles, runtime.counters


def build_functional_board(
    dataset_slice: np.ndarray, layout: StreamLayout
) -> FunctionalKnnBoard:
    """Position-independent (cacheable) functional board for a partition."""
    return FunctionalKnnBoard(dataset_slice, layout, report_code_base=0)


def run_partition_functional_topk(
    board: FunctionalKnnBoard,
    queries: np.ndarray,
    layout: StreamLayout,
    start: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, RuntimeCounters]:
    """Top-k-aware functional back-end as a report stream: only the
    ``k`` earliest reports per query flow to the decoder (``~n/k`` less
    report traffic), via
    :meth:`~repro.core.functional.FunctionalKnnBoard.query_topk`.

    The flat ``(q_idx, codes, cycles)`` arrays are exactly the first
    ``min(k, n)`` records per query of the full report stream, codes
    re-based by ``start``.  (The kNN workload skips this flatten/decode
    round trip and takes the board's ``topk_block`` — the same block.)
    """
    codes2d, cycles2d = board.query_topk(queries, k)
    n_q, k_eff = codes2d.shape
    q_idx = np.repeat(np.arange(n_q, dtype=np.int64), k_eff)
    codes = codes2d.ravel() + start  # re-base partition-local report codes
    counters = functional_pass_counters(n_q, board.n, layout)
    return q_idx, codes, cycles2d.ravel(), counters


def decode_partition_topk(
    q_idx: np.ndarray,
    codes: np.ndarray,
    cycles: np.ndarray,
    n_q: int,
    k: int,
    layout: StreamLayout,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Keep the earliest ``k`` reports per query: they ARE the top-k.

    Reports arrive ordered by activation time; the temporal sort means
    earlier activation = smaller distance, and simultaneous activations
    are consumed in state-ID (= dataset index) order, matching the
    library-wide tie-break.  One decode serves both back-ends, so the
    candidate blocks they merge are bit-identical by construction.

    Fully vectorized: one lexsort over the report batch, a cumsum-based
    gather of each query's first ``k`` rows, and one
    :func:`~repro.core.stream.decode_report_offsets` call — no
    per-report (or per-query) Python.  Returns ``(indices, distances)``
    as ``(n_q, k)`` int64 arrays padded with
    ``PAD_INDEX``/``PAD_DISTANCE`` where a query produced fewer than
    ``k`` reports, or ``None`` for an empty batch.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape[0] == 0:
        return None
    q_idx = np.asarray(q_idx, dtype=np.int64)
    cycles = np.asarray(cycles, dtype=np.int64)
    order = np.lexsort((codes, cycles, q_idx))
    q_sorted = q_idx[order]
    starts = np.searchsorted(q_sorted, np.arange(n_q), side="left")
    ends = np.searchsorted(q_sorted, np.arange(n_q), side="right")
    take = np.minimum(ends - starts, k)
    total = int(take.sum())
    if total == 0:
        return None
    # Flat positions of each query's first `take[qi]` sorted rows:
    # a per-query arange built from one cumsum, no Python loop.
    col = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(take) - take, take
    )
    sel = order[np.repeat(starts, take) + col]
    rows = np.repeat(np.arange(n_q, dtype=np.int64), take)
    _, _, dists = decode_report_offsets(cycles[sel], layout)
    idx_block = np.full((n_q, k), PAD_INDEX, dtype=np.int64)
    dist_block = np.full((n_q, k), PAD_DISTANCE, dtype=np.int64)
    idx_block[rows, col] = codes[sel]
    dist_block[rows, col] = dists
    return idx_block, dist_block


def simulate_knn(
    dataset_bits,
    queries_bits,
    k: int,
    *,
    board_capacity: int | None = None,
    macro_config: MacroConfig = MacroConfig(),
    device: APDeviceSpec = GEN1,
) -> tuple[np.ndarray, np.ndarray, RuntimeCounters]:
    """The cycle-accurate oracle: ``(indices, distances, counters)`` of
    a kNN search run cycle by cycle, board by board.

    Boards are cut as the engine cuts them (``board_capacity`` rows,
    the kNN workload's compiler-derived default when ``None``).  Each is
    built as an automata network (:func:`~repro.core.macros.
    build_knn_network`), compiled into a board image, streamed the
    encoded query batch (:func:`run_partition_simulated`) and decoded
    (:func:`decode_partition_topk`); one offset-aware
    :func:`~repro.util.topk.merge_topk_blocks` joins the boards.  ``k``
    is clipped to ``n``.  The functional engine — every store, backend
    and topology of it — must equal this bit for bit, every
    :class:`~repro.ap.runtime.RuntimeCounters` field included.  The
    simulator's SciPy loads on the first call, never on a functional
    path.
    """
    dataset = PackedDataset.ensure(dataset_bits)
    n, d = dataset.shape
    queries_bits = normalize_queries(queries_bits, d)
    workload = get_workload("knn")
    params = workload.validate_params(
        {"k": k, "macro_config": macro_config, "device": device}, n, d
    )
    k = params["k"]
    if board_capacity is None:
        board_capacity = workload.default_capacity(d, params)
    if board_capacity < 1:
        raise ValueError("board_capacity must be >= 1")
    layout = _knn_layout(d, macro_config)
    runtime = APRuntime(device)
    n_q = queries_bits.shape[0]
    empty = workload.empty(n_q, params)
    counters = RuntimeCounters()
    blocks, offsets = [], range(0, n, board_capacity)
    for start in offsets:
        network, _ = build_knn_network(
            dataset.rows(start, min(start + board_capacity, n)),
            config=macro_config, name="partition", report_code_base=0,
        )
        q_idx, codes, cycles, delta = run_partition_simulated(
            runtime.build_image(network), queries_bits, layout, device
        )
        counters.merge(delta)
        block = decode_partition_topk(q_idx, codes, cycles, n_q, k, layout)
        blocks.append((empty.indices, empty.distances) if block is None else block)
    indices, distances = merge_topk_blocks(
        blocks, k, offsets=list(offsets),
        pad_index=PAD_INDEX, pad_distance=PAD_DISTANCE,
    )
    return indices, distances, counters


def KnnResult(
    indices: np.ndarray,
    distances: np.ndarray,
    counters: RuntimeCounters,
    n_partitions: int = 1,
    execution: str = "functional",
    k: int = -1,
) -> WorkloadRunResult:
    """Compatibility adapter (benchmarks/e2e builds results this way;
    goes when that harness is re-anchored): the kNN-shaped spelling of
    the one :class:`~repro.core.workload.WorkloadRunResult` envelope.
    ``k`` is the block width and is accepted only for call-shape parity.
    """
    return WorkloadRunResult(
        "knn", KnnWorkloadResult(indices, distances), counters,
        per_device_partitions=(n_partitions,), execution=execution,
    )


class APSimilaritySearch(WorkloadSearch):
    """kNN similarity search on a (simulated) Automata Processor: the
    ``"knn"`` workload on :class:`~repro.core.workload.WorkloadSearch`.

    Parameters
    ----------
    dataset_bits:
        ``(n, d)`` binary dataset (quantized offline, e.g. with
        :class:`repro.index.itq.ITQQuantizer`).
    k:
        Number of neighbors per query.  Clipped to the dataset size;
        the clipped value is the result's ``k``.
    device:
        AP generation (timing/capacity constants).
    board_capacity:
        Vectors per board configuration.  Defaults to the compiler's
        estimate for this ``d``; the paper's workloads pin 1024 (d≤128)
        or 512 (d=256) — see
        :class:`repro.workloads.params.WorkloadParams`.
    execution:
        Compatibility adapter (``benchmarks/e2e`` passes it): only
        ``"functional"``, the one back-end, is accepted.  The
        cycle-accurate simulator is the oracle :func:`simulate_knn`.
    parallel, cache:
        As for :class:`~repro.core.workload.WorkloadSearch`; results
        are bit-identical to sequential, uncached execution either way.
    """

    def __init__(
        self,
        dataset_bits: np.ndarray,
        k: int,
        device: APDeviceSpec = GEN1,
        board_capacity: int | None = None,
        macro_config: MacroConfig = MacroConfig(),
        execution: str = "functional",
        parallel: ParallelConfig | int | None = None,
        cache: BoardImageCache | int | bool | None = None,
    ):
        if execution != "functional":
            raise ValueError(
                f"unknown execution mode {execution!r}: the engine runs the "
                "functional model; the cycle-accurate oracle is "
                "repro.core.engine.simulate_knn"
            )
        super().__init__(
            dataset_bits,
            "knn",
            {"k": k, "macro_config": macro_config},
            board_capacity=board_capacity,
            parallel=parallel,
            cache=cache,
            device=device,
        )
        self.requested_k = int(k)

    # -- the kNN view of the engine's normalized params --------------------

    @property
    def k(self) -> int:
        """Effective neighbor count: requested ``k`` clipped to ``n``."""
        return self.params["k"]

    @property
    def macro_config(self) -> MacroConfig:
        return self.params["macro_config"]

    @property
    def layout(self) -> StreamLayout:
        return _knn_layout(self.d, self.macro_config)

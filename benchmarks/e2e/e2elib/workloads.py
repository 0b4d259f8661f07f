"""The four workloads: what each builds, sends, checks and traces.

Every engine, router, server and client is constructed through the
stack's public surface with the shipped defaults (``parallel`` unset,
``cache=True``), at the paper's Table II parameters
(:data:`repro.workloads.params.WORKLOADS`).  ``--quick`` shrinks ``n``
and the board capacity together so each workload keeps its regime —
working set larger than the compile cache on ``scan_inproc``, exactly
fitting it on ``router_points``.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro import APSimilaritySearch
from repro.core.dataset import PackedDataset, write_pds
from repro.core.multiboard import balanced_shard_bounds
from repro.core.workload import WorkloadSearch, get_workload
from repro.host.batching import BatchRouter
from repro.host.replication import HedgePolicy, ReplicaGroup
from repro.host.rpc import RemoteMultiBoardSearch
from repro.workloads.params import WORKLOADS as PAPER

from . import host, layers, spec
from .oracle import Oracle
from .protocol import SAMPLE_EVERY, Account, Sample, Trial, issue
from .stepwise import KnnEngineReplay, RackReplay, WorkloadEngineReplay
from .tracing import Tracer

_POOL_ROWS = 4096  # distinct query rows a run cycles through
_FLIPPED_BITS = 3  # a query is a dataset row with this many bits flipped
_REFERENCE_CACHE_ENTRIES = 4096


def make_inputs(rng: np.random.Generator, n: int, d: int):
    """``(dataset, query pool)`` from the seed alone.  Queries are dataset
    rows with three bits flipped, so every query has true neighbours."""
    data = rng.integers(0, 2, (n, d), dtype=np.uint8)
    pool = data[rng.integers(0, n, _POOL_ROWS)].copy()
    flips = np.argsort(rng.random((_POOL_ROWS, d)), axis=1)[:, :_FLIPPED_BITS]
    np.put_along_axis(pool, flips, 1 - np.take_along_axis(pool, flips, axis=1), axis=1)
    return data, pool


@dataclass
class Op:
    """One caller-visible request a trial will issue."""

    seq: int  # request id (also names the request in the trace)
    kind: str  # which oracle checks the answer
    search: object  # callable(queries) -> result
    queries: np.ndarray
    sampled: bool


class Workload:
    """Shared plumbing: inputs, request issue, sampling, checking."""

    name = ""

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.quick = quick
        self.workdir = workdir
        # seconds each timed single-layer call in layer_metrics may repeat for
        self.layer_budget_s = 0.02 if quick else 0.5
        self.account = Account()
        self.rng = np.random.default_rng([seed, spec.WORKLOAD_NAMES.index(self.name)])
        self.tracer: Tracer | None = None
        self.path: Path | None = None  # live .pds, for the workloads that pack one
        self._generation = 0  # .pds files packed so far
        self._cursor = 0  # next unread row of the query pool
        self._issued = 0  # timed + traced requests built so far

    # -- inputs -------------------------------------------------------------

    def _take(self, rows: int) -> np.ndarray:
        if self._cursor + rows > _POOL_ROWS:
            self._cursor = 0
        batch = self.pool[self._cursor:self._cursor + rows]
        self._cursor += rows
        return batch

    def _op(self, kind: str, search, rows: int) -> Op:
        seq = self._issued
        self._issued += 1
        return Op(seq, kind, search, self._take(rows), seq % SAMPLE_EVERY == 0)

    # -- requests -----------------------------------------------------------

    def _run_ops(self, ops: list[Op], check_all: bool = False) -> Trial:
        """Issue ``ops`` back to back from the calling thread."""
        latencies, samples, rows = [], [], 0
        t0 = time.perf_counter()
        for op in ops:
            if self.tracer is not None:
                with self.tracer.span("request", request=op.seq):
                    result, elapsed = issue(self.account, op.search, op.queries)
            else:
                result, elapsed = issue(self.account, op.search, op.queries)
            latencies.append(elapsed)
            if result is not None:
                rows += op.queries.shape[0]
                if op.sampled or check_all:
                    samples.append(Sample(op.kind, op.queries, result))
        wall = time.perf_counter() - t0
        return Trial(rows, wall, latencies, [op.kind for op in ops], samples)

    def _first_answer(self, kind: str, search) -> Sample:
        """The request that ends a cold set-up: one fixed row."""
        first = self.pool[:1]
        return Sample(kind, first, issue(self.account, search, first)[0])

    def _pack_fresh(self, stem: str) -> Path:
        """Pack the dataset to a ``.pds`` no earlier set-up has used, so
        the process-wide mmap attach cache and its digest memo are cold."""
        self._generation += 1
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.path = self.workdir / f"{stem}_{self._generation}.pds"
        write_pds(self.path, self.data)
        return self.path

    def _drop_pds(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)
            self.path = None

    def verify(self, samples: list[Sample]) -> None:
        """Check kept answers against the oracle; a mismatch in any row
        fails that operation."""
        for s in samples:
            if s.result is None:
                continue  # already counted as failed when issued
            bad = self._check(s)
            if bad:
                self.account.fail(
                    f"{self.name}: {s.kind} answer wrong in {bad} of "
                    f"{s.queries.shape[0]} rows"
                )

    def _check(self, s: Sample) -> int:
        if s.kind == "knn":
            return self.oracle.check_knn(s.queries, s.result.indices,
                                         s.result.distances, self.k)
        value = getattr(s.result, "value", s.result)  # engines wrap it, replays do not
        if s.kind == "jaccard":
            return self.oracle.check_jaccard(
                s.queries, value.indices, value.similarities,
                value.intersections, self.k,
            )
        return self.oracle.check_range(
            s.queries, value.indices, value.distances, value.counts, self.radius
        )

    # -- lifecycle (overridden) ----------------------------------------------

    def setup(self) -> Sample:
        """Cold: build a fresh instance and return its first answer."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the live instance (idempotent)."""

    def trial_ops(self) -> list[Op]:
        raise NotImplementedError

    def trial(self) -> Trial:
        return self._run_ops(self.trial_ops())

    def warm(self) -> None:
        """One full pass with every answer checked."""
        self.verify(self._run_ops(self.trial_ops(), check_all=True).samples)

    def child_pids(self) -> list[int]:
        return []

    def start_tracing(self, tracer: Tracer) -> None:
        """Switch ``trial()`` onto the stepwise replays, under ``tracer``."""
        raise NotImplementedError

    def layer_metrics(self, ref, traced) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- scan_inproc -------------------------------------------------------------


class ScanInproc(Workload):
    name = "scan_inproc"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        paper = PAPER["kNN-SIFT"]
        self.k = paper.k
        # --quick: 128 partitions of 64 rows is still 2x the 64-entry
        # cache, so the sequential scan still evicts every board.
        n, self.capacity, self.rows = (
            (1 << 13, 64, 8) if quick else (1 << 20, paper.board_capacity, 32)
        )
        self.data, self.pool = make_inputs(self.rng, n, paper.d)
        self.oracle = Oracle(self.data)
        self.engine = None
        self.search = None

    def setup(self):
        self.engine = APSimilaritySearch(
            self.data, k=self.k, board_capacity=self.capacity,
            execution="functional", cache=True,
        )
        self.search = self.engine.search
        return self._first_answer("knn", self.search)

    def teardown(self):
        self.engine = self.search = None

    def trial_ops(self):
        return [self._op("knn", self.search, self.rows)]

    def start_tracing(self, tracer):
        self.tracer = tracer
        self.search = KnnEngineReplay(self.engine, tracer).search

    def layer_metrics(self, ref, traced):
        out = layers.trace_metrics(self.tracer, ref, traced)
        out.update(layers.knn_engine_metrics(
            self.tracer, self.engine, self.pool[:self.rows],
            out["host.memcpy_gbps"], self.layer_budget_s,
        ))
        return out


# -- router_points -----------------------------------------------------------


class RouterPoints(Workload):
    name = "router_points"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        paper = PAPER["kNN-WordEmbed"]
        self.k = paper.k
        # 64 partitions either way: exactly the default cache size.
        n, self.capacity, self.per_caller = (
            (1 << 12, 64, 10) if quick else (1 << 16, paper.board_capacity, 40)
        )
        self.callers = min(host.nproc(), 4)
        self.data, self.pool = make_inputs(self.rng, n, paper.d)
        self.oracle = Oracle(self.data)
        self.engine = None
        self.router = None
        self.search = None

    def setup(self):
        self.engine = APSimilaritySearch(
            self.data, k=self.k, board_capacity=self.capacity,
            execution="functional", cache=True,
        )
        self.router = self.engine.batched()
        self.search = self.router.search
        return self._first_answer("knn", self.search)

    def teardown(self):
        if self.router is not None:
            self.router.close()
        self.engine = self.router = self.search = None

    def trial(self):
        """Closed loop: each caller thread sends its next single-row
        request only after the previous reply."""
        per_caller = [
            [self._op("knn", self.search, 1) for _ in range(self.per_caller)]
            for _ in range(self.callers)
        ]
        done: list[Trial | None] = [None] * self.callers

        def caller(i: int) -> None:
            done[i] = self._run_ops(per_caller[i])

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(self.callers)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        return Trial(
            sum(t.rows for t in done), wall,
            [lat for t in done for lat in t.latencies_s],
            [kind for t in done for kind in t.kinds],
            [s for t in done for s in t.samples],
        )

    def trial_ops(self):  # the single-caller pass warm() checks in full
        return [self._op("knn", self.search, 1) for _ in range(self.per_caller)]

    def start_tracing(self, tracer):
        # Same router class at the same defaults, in front of the replay
        # instead of the engine; the collector thread's engine spans are
        # adopted by the caller span that contains them.
        self.tracer = tracer
        self.router.close()
        self.router = BatchRouter(KnnEngineReplay(self.engine, tracer))
        self.search = self._traced_search

    def _traced_search(self, queries):
        # the router hop gets its own span: linger + split are its self time
        with self.tracer.span("batching.search"):
            return self.router.search(queries)

    def layer_metrics(self, ref, traced):
        self.tracer.adopt("engine.search", "batching.search")
        out = layers.trace_metrics(self.tracer, ref, traced)
        stats = self.router.stats
        self.router.close()  # no idle collector thread while pools fork below
        batch_rows = max(1, round(stats.rows / max(1, stats.batches)))
        out.update(layers.knn_engine_metrics(
            self.tracer, self.engine, self.pool[:batch_rows],
            out["host.memcpy_gbps"], self.layer_budget_s,
        ))
        out.update(layers.batching_metrics(stats, ref, out["engine.search_ms"]))
        out.update(layers.parallel_metrics(self.engine, self.pool[:batch_rows],
                                           self.layer_budget_s))
        return out


# -- rack_2x2 ----------------------------------------------------------------


class Rack2x2(Workload):
    name = "rack_2x2"
    SHARDS = 2
    REPLICAS = 2

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        paper = PAPER["kNN-TagSpace"]
        self.k = paper.k
        n, self.per_trial = (1 << 13, 5) if quick else (1 << 16, 20)
        self.rows = 8
        self.data, self.pool = make_inputs(self.rng, n, paper.d)
        self.oracle = Oracle(self.data)
        self.servers: list[subprocess.Popen] = []
        self.addresses: list[str] = []
        self.client = None
        self.search = None
        self._replay = None
        self._local = None  # in-process engine over the served file

    def _spawn(self, shard: int) -> subprocess.Popen:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(self.path),
             "--shard", f"{shard}/{self.SHARDS}"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        self.servers.append(proc)
        return proc

    @staticmethod
    def _address(proc: subprocess.Popen) -> str:
        """``host:port`` from the server's first stdout line."""
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        if " on " not in line:
            raise RuntimeError(f"shard server did not come up (said {line!r})")
        return line.split(" on ", 1)[1].split()[0]

    def setup(self):
        # Provisioning is part of cold set-up: pack the shard file, spawn
        # every replica, handshake, first answer.
        self._pack_fresh("rack")
        procs = [self._spawn(s) for s in range(self.SHARDS) for _ in range(self.REPLICAS)]
        self.addresses = [self._address(p) for p in procs]
        groups = [
            "|".join(self.addresses[s * self.REPLICAS:(s + 1) * self.REPLICAS])
            for s in range(self.SHARDS)
        ]
        # Hedging is the one non-default: a hedge starts a second busy
        # server whenever a reply is slow, which on a 2-vCPU box makes
        # the run measure the hedge timer rather than the request path.
        self.client = RemoteMultiBoardSearch(
            groups, k=self.k, hedge=HedgePolicy(enabled=False)
        )
        self.search = self.client.search
        return self._first_answer("knn", self.search)

    def teardown(self):
        if self._replay is not None:
            self._replay.close()
            self._replay = None
        if self.client is not None:
            self.client.close()
            self.client = self.search = None
        for proc in self.servers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)  # graceful drain path
        for proc in self.servers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.servers = []
        self._local = None
        self._drop_pds()

    def child_pids(self):
        return [p.pid for p in self.servers]

    def trial_ops(self):
        return [self._op("knn", self.search, self.rows) for _ in range(self.per_trial)]

    def local_engine(self, shard: int | None = None):
        """An in-process engine over the very file the rack serves (or
        over one shard's rows of it) — the bit-identity reference."""
        dataset = PackedDataset.open(self.path)
        if shard is not None:
            bounds = balanced_shard_bounds(dataset.n, self.SHARDS)
            dataset = dataset.slice_rows(int(bounds[shard]), int(bounds[shard + 1]))
        # A reference, not a system under test: its cache holds every
        # board so repeated checks never recompile.
        return APSimilaritySearch(dataset, k=self.k, execution="functional",
                                  cache=_REFERENCE_CACHE_ENTRIES)

    def _check(self, s):
        # Remote answers must equal the in-process engine's bit for bit,
        # and that engine's must equal the oracle's.
        if self._local is None:
            self._local = self.local_engine()
        local = self._local.search(s.queries)
        remote_differs = not (
            np.array_equal(local.indices, s.result.indices)
            and np.array_equal(local.distances, s.result.distances)
        )
        return super()._check(s) or int(remote_differs)

    def start_tracing(self, tracer):
        self.tracer = tracer
        groups = [
            ReplicaGroup(g.address, hedge=HedgePolicy(enabled=False))
            for g in self.client.pool.shards
        ]
        self._replay = RackReplay(groups, [g.info() for g in groups], self.k, tracer)
        self.search = self._replay.search

    def layer_metrics(self, ref, traced):
        out = layers.trace_metrics(self.tracer, ref, traced)
        out.update(layers.rack_metrics(self.tracer, self, ref, self.pool[:self.rows],
                                       self.layer_budget_s))
        out.update(layers.dataset_metrics(self.data, self.workdir, self.layer_budget_s))
        return out


# -- mixed_store -------------------------------------------------------------


def range_radius(n: int, d: int, target_hits: int = 100) -> int:
    """Smallest radius whose expected hit count over ``n`` uniform rows
    reaches ``target_hits`` (distances are Binomial(d, 1/2))."""
    cumulative = 0
    for r in range(d):
        cumulative += math.comb(d, r)
        if n * cumulative / 2**d >= target_hits:
            return r
    return d - 1


class MixedStore(Workload):
    name = "mixed_store"

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        d = PAPER["kNN-WordEmbed"].d
        n = 1 << 13 if quick else 1 << 18
        self.capacity = 64 if quick else None  # None: the library default
        self.k = 10
        self.rows = 16
        self.radius = range_radius(n, d)
        self.data, self.pool = make_inputs(self.rng, n, d)
        self.oracle = Oracle(self.data)
        self.engines: dict[str, WorkloadSearch] = {}
        self.searches: dict[str, object] = {}

    def params(self, kind: str) -> dict:
        return {"radius": self.radius} if kind == "range" else {"k": self.k}

    def setup(self):
        # Cold = pack to .pds, attach by mmap, three fresh engines, one
        # answer from each; the last one is returned for checking.
        dataset = PackedDataset.open(self._pack_fresh("mixed"))
        self.engines = {
            kind: WorkloadSearch(dataset, kind, self.params(kind),
                                 board_capacity=self.capacity, cache=True)
            for kind in spec.WORKLOAD_KINDS
        }
        self.searches = {kind: e.search for kind, e in self.engines.items()}
        samples = [
            self._first_answer(kind, search) for kind, search in self.searches.items()
        ]
        self.verify(samples[:-1])
        return samples[-1]

    def teardown(self):
        self.engines, self.searches = {}, {}
        self._drop_pds()

    def trial_ops(self):
        return [self._op(kind, search, self.rows) for kind, search in self.searches.items()]

    def start_tracing(self, tracer):
        self.tracer = tracer
        self.searches = {
            kind: WorkloadEngineReplay(engine, tracer).search
            for kind, engine in self.engines.items()
        }

    def layer_metrics(self, ref, traced):
        out = layers.trace_metrics(self.tracer, ref, traced)
        queries = self.pool[:self.rows]
        out.update(layers.workload_metrics(self.tracer, self.engines, ref, queries))
        start, end = self.engines["knn"].partitions[0]
        rows = self.engines["knn"].dataset.rows(start, end)
        board = get_workload("knn").compile(rows, self.params("knn"))
        out.update(layers.kernel_metrics(board, rows, queries, self.k,
                                         out["host.memcpy_gbps"], self.layer_budget_s))
        out.update(layers.dataset_metrics(self.data, self.workdir, self.layer_budget_s))
        return out


BY_NAME = {w.name: w for w in (ScanInproc, RouterPoints, Rack2x2, MixedStore)}

"""The option surface, pinned.

Every settable value a caller can pass to the serving layers is listed
here with its default, so a knob added later has to edit one of these
lists and name the caller that sets it.  Defaults that are not options
are module constants; the last test pins their values.
"""

import dataclasses
import inspect
import time

from repro.ap.device import GEN1
from repro.cli import build_parser
from repro.host import batching, replication
from repro.host.batching import Batchable, BatchRouter
from repro.host.parallel import ParallelConfig
from repro.host.replication import HedgePolicy, ReplicaGroup
from repro.host.rpc import RemoteShardPool, RemoteWorkloadSearch

_REQUIRED = inspect.Parameter.empty

_RACK = {
    "timeout_s": 10.0, "connect_timeout_s": 5.0, "retries": 1,
}


def _signature(fn) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if name != "self"
    }


def _fields(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.init}


def test_replication_options():
    assert _signature(ReplicaGroup) == {
        "spec": _REQUIRED, **_RACK, "hedge": None, "clock": time.monotonic,
    }
    assert _fields(HedgePolicy) == {"enabled": True, "fixed_delay_s": None}


def test_rack_options():
    assert _signature(RemoteShardPool) == {
        "addresses": _REQUIRED, **_RACK, "allow_partial": True, "hedge": None,
    }
    assert _signature(RemoteWorkloadSearch) == {
        "addresses": _REQUIRED, "workload": _REQUIRED, "params": None,
        **_RACK, "allow_partial": True, "hedge": None,
    }


def test_admission_options():
    assert _signature(BatchRouter) == {
        "searcher": _REQUIRED, "max_batch": 256, "max_wait_ms": 2.0,
    }
    assert _signature(Batchable.batched) == {
        "max_batch": 256, "max_wait_ms": 2.0,
    }


def test_parallel_options():
    assert _fields(ParallelConfig) == {
        "n_workers": 1, "backend": "process", "fallback_serial": True,
        "persistent": False,
    }


_ENGINE_FLAGS = {
    "device": GEN1, "board_capacity": None, "devices": 1, "workers": 1,
    "backend": "process",
}


def test_search_flags():
    args = build_parser().parse_args(["search", "d.npy", "q.npy"])
    assert vars(args) == {
        "command": "search", "dataset": "d.npy", "queries": "q.npy",
        **_ENGINE_FLAGS,
        "remote": None, "timeout_s": 10.0, "retries": 1,
        "hedge_delay_ms": None, "require_all_shards": False, "k": None,
        "workload": "knn", "radius": None, "batch": 0, "batch_wait_ms": 2.0,
        "cache_size": 0, "out": None,
    }


def test_serve_flags():
    args = build_parser().parse_args(["serve", "d.npy"])
    assert vars(args) == {
        "command": "serve", "dataset": "d.npy", **_ENGINE_FLAGS,
        "shard": "0/1", "host": "127.0.0.1", "port": 0, "cache_size": 0,
        "workloads": None, "drain_timeout_s": 5.0, "metrics_port": None,
    }


def test_removed_options_survive_as_constants():
    """What callers could once set keeps the value it defaulted to."""
    assert (
        replication._FAILURE_THRESHOLD, replication._OPEN_COOLDOWN_S,
        replication._EWMA_ALPHA, replication._LATENCY_WINDOW,
    ) == (3, 1.0, 0.2, 64)
    assert (
        replication._HEDGE_QUANTILE, replication._HEDGE_FACTOR,
        replication._HEDGE_MIN_DELAY_S, replication._HEDGE_MAX_DELAY_S,
        replication._HEDGE_INITIAL_DELAY_S,
        replication._HEDGE_MIN_OBSERVATIONS,
    ) == (0.95, 1.5, 0.002, 1.0, 0.05, 3)
    assert batching._MAX_PENDING == 1024

"""Host-side serving stack: the sharded parallel partition-execution
layer with its shared-memory segment primitives, the query
batching/admission layer, the network-transparent shard service for
rack-scale fan-out, and the availability layer on top of it (replica
groups with health-tracked failover + hedged reads, and the
fault-injection harness that proves them).  The modeled AP time of the
host driver's partition pipeline lives in :mod:`repro.perf.models`."""

from .batching import BatchedResult, BatchRouter, BatchRouterStats, QueryBatcher
from .faults import ChaosProxy, FaultSpec, ServerFaultHook
from .parallel import (
    ParallelConfig,
    PartitionResult,
    PartitionRunReport,
    PartitionTask,
    run_partitions,
)
from .replication import (
    HealthPolicy,
    HedgePolicy,
    ReplicaGroup,
    ReplicaHealth,
)
from .rpc import (
    RemoteMultiBoardSearch,
    RemoteShard,
    RemoteShardError,
    RemoteShardPool,
    ShardInfo,
    ShardServer,
    serve_shard,
)
from .shm import ShmArrayRef, shm_available

__all__ = [
    "ParallelConfig",
    "PartitionResult",
    "PartitionRunReport",
    "PartitionTask",
    "run_partitions",
    "BatchRouter",
    "QueryBatcher",
    "BatchedResult",
    "BatchRouterStats",
    "ShmArrayRef",
    "shm_available",
    "RemoteMultiBoardSearch",
    "RemoteShard",
    "RemoteShardError",
    "RemoteShardPool",
    "ShardInfo",
    "ShardServer",
    "serve_shard",
    "ReplicaGroup",
    "ReplicaHealth",
    "HealthPolicy",
    "HedgePolicy",
    "ChaosProxy",
    "FaultSpec",
    "ServerFaultHook",
]

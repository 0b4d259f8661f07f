"""Host-side driver stack (paper Fig. 1a): simulated-time device/host
timelines, submission policies, the Section III-C partition scheduler,
the sharded parallel partition-execution layer with its shared-memory
segment primitives, the query batching/admission layer, the
network-transparent shard service for rack-scale fan-out, and the
availability layer on top of it (replica groups with health-tracked
failover + hedged reads, and the fault-injection harness that proves
them)."""

from .batching import BatchedResult, BatchRouter, BatchRouterStats, QueryBatcher
from .driver import APDriver, OpKind, SubmissionMode, Timeline, TimelineEntry
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
from .scheduler import POLICIES, ScheduleResult, schedule_knn_run
from .shm import ShmArrayRef, shm_available

__all__ = [
    "APDriver",
    "OpKind",
    "SubmissionMode",
    "Timeline",
    "TimelineEntry",
    "POLICIES",
    "ScheduleResult",
    "schedule_knn_run",
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

"""Host-side serving stack: the sharded parallel partition-execution
layer with its shared-memory segment primitives, the query
batching/admission layer, the network-transparent shard service for
rack-scale fan-out, and the availability layer on top of it (replica
groups with health-tracked failover + hedged reads, and the
fault-injection harness that proves them).  The modeled AP time of the
host driver's partition pipeline lives in :mod:`repro.perf.models`.

This package exports nothing itself: import each name from the module
that defines it (``from repro.host.rpc import ShardServer``), so a
process loads only the modules it uses.
"""

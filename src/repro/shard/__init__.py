"""Multi-process sharded serving for the structural optimizer.

``repro.shard`` scales the single-process :class:`QueryService` across N
deterministic worker processes:

* :mod:`repro.shard.hashring` — consistent hashing of canonical template
  fingerprints to shards (template affinity: isomorphic queries share a
  shard, so each shard's plan cache stays small and hot);
* :mod:`repro.shard.messages` — the picklable wire protocol (typed
  errors cross the process boundary as themselves);
* :mod:`repro.shard.worker` — the worker process: one
  :class:`~repro.service.server.QueryService` (own plan cache, metrics,
  tracer, fault injector) behind its own request queue and response
  pipe;
* :mod:`repro.shard.router` — :class:`ShardRouter`: spawn, route,
  multiplex, read a worker's death as end-of-file on its pipe, drain
  gracefully;
* :mod:`repro.shard.supervisor` — :class:`ShardSupervisor`: self-healing
  (seeded restarts with jittered backoff and a per-shard breaker, ring
  failover, deadline-aware retries of crash-stranded queries);
* :mod:`repro.shard.aggregate` — merging per-shard metric snapshots and
  span records into one validated cluster view.
"""

from repro.shard.aggregate import (
    SPAN_ID_STRIDE,
    merge_metric_snapshots,
    merge_span_records,
    shard_cache_hit_rates,
)
from repro.shard.hashring import ConsistentHashRing
from repro.shard.messages import (
    DrainCommand,
    QueryAnswer,
    QueryFailure,
    QueryRequest,
    RestartEvent,
    SnapshotCommand,
    SnapshotReply,
    WorkerExit,
    WorkerReady,
    wire_error,
)
from repro.shard.router import ShardRouter
from repro.shard.supervisor import ShardSupervisor, SupervisorPolicy
from repro.shard.worker import shard_worker_main

__all__ = [
    "SPAN_ID_STRIDE",
    "ConsistentHashRing",
    "DrainCommand",
    "QueryAnswer",
    "QueryFailure",
    "QueryRequest",
    "RestartEvent",
    "ShardRouter",
    "ShardSupervisor",
    "SnapshotCommand",
    "SnapshotReply",
    "SupervisorPolicy",
    "WorkerExit",
    "WorkerReady",
    "merge_metric_snapshots",
    "merge_span_records",
    "shard_cache_hit_rates",
    "shard_worker_main",
    "wire_error",
]

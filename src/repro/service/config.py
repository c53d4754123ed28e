"""``ServiceConfig``: the one description of a serving world.

Every way of serving — ``hdqo serve`` in one process, a shard worker
process, the serving benchmarks — describes its world with this picklable
dataclass and gets its :class:`~repro.service.server.QueryService` from
:meth:`ServiceConfig.build`, the only place that derives the fault
injector, the insights registry and the simulated engine from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.obs.insights.registry import InsightsRegistry
from repro.relational.database import Database
from repro.resilience.faults import FaultInjector
from repro.service.server import QueryService


@dataclass
class ServiceConfig:
    """Everything needed to (re)build a serving world, picklable.

    One config is shared by every shard of a cluster; the only per-shard
    variation is derived deterministically from ``shard_id`` (the fault
    injector's seed), so a cluster is reproducible end to end.

    Attributes:
        database: the (pickled) database every service serves.
        max_width, workers, queue_capacity, cache_capacity, work_budget,
        deadline_seconds: forwarded to
            :class:`~repro.service.server.QueryService` under the same
            names.
        fault_spec: fault-injection spec string (chaos testing); each
            shard runs its own injector seeded ``seed + shard_id``.
        seed: base seed for per-shard derived randomness.
        trace: run a tracer beside the service (per shard when sharded;
            span records are shipped back on exit for merging).  Read by
            whoever hosts the service — :meth:`build` installs nothing
            process-wide.
        insights: attach an
            :class:`~repro.obs.insights.registry.InsightsRegistry`; its
            snapshot rides inside the service snapshot (the ``insights``
            key) and merges exactly in
            :func:`~repro.shard.aggregate.merge_metric_snapshots`.
    """

    database: Database
    max_width: int = 4
    workers: int = 4
    queue_capacity: int = 64
    cache_capacity: int = 128
    work_budget: Optional[int] = None
    deadline_seconds: Optional[float] = None
    fault_spec: Optional[str] = None
    seed: int = 0
    trace: bool = False
    insights: bool = False

    def build(self, shard_id: int = 0) -> QueryService:
        """A fresh :class:`~repro.service.server.QueryService` for this world.

        Deterministic: two builds with the same ``shard_id`` (a restarted
        shard, a benchmark's second run) serve identically.
        """
        return QueryService(
            SimulatedDBMS(self.database, COMMDB_PROFILE),
            max_width=self.max_width,
            workers=self.workers,
            queue_capacity=self.queue_capacity,
            cache_capacity=self.cache_capacity,
            work_budget=self.work_budget,
            deadline_seconds=self.deadline_seconds,
            fault_injector=(
                FaultInjector(self.fault_spec, seed=self.seed + shard_id)
                if self.fault_spec
                else None
            ),
            insights=InsightsRegistry() if self.insights else None,
        )

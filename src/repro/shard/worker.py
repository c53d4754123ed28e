"""The shard worker process: one :class:`QueryService` behind two queues.

Each worker is spawned (never forked — a fresh interpreter, no inherited
locks or thread state), receives its :class:`ShardConfig` pickled through
the process arguments, builds its own deterministic world — database,
:class:`~repro.service.server.QueryService`, plan cache, metrics registry,
per-shard :class:`~repro.resilience.faults.FaultInjector` seeded
``seed + shard_id``, and (optionally) a
:class:`~repro.obs.tracing.Tracer` — then serves a simple loop:

* :class:`~repro.shard.messages.QueryRequest` → submitted to the shard's
  own executor pool (intra-shard concurrency), the outcome posted back as
  :class:`~repro.shard.messages.QueryAnswer` or
  :class:`~repro.shard.messages.QueryFailure`;
* :class:`~repro.shard.messages.SnapshotCommand` → the service snapshot;
* :class:`~repro.shard.messages.DrainCommand` → graceful shutdown: the
  service drains (queued queries cancel, in-flight queries abort at their
  next cooperative checkpoint), a response is flushed for every
  outstanding request, and the final metrics + span records leave in a
  :class:`~repro.shard.messages.WorkerExit` before the process ends.

Workers ignore SIGINT/SIGTERM: shutdown is *coordinated* by the router
(terminal signals hit the whole foreground process group, and a worker
dying mid-protocol would strand in-flight futures), and a worker that
outlives the grace period is killed hard by the router.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.lockwitness import make_lock
from repro.errors import QueryCancelled, ReproError
from repro.relational.database import Database
from repro.shard.messages import (
    DrainCommand,
    QueryAnswer,
    QueryFailure,
    QueryRequest,
    SnapshotCommand,
    SnapshotReply,
    WorkerExit,
    WorkerReady,
    encode_error,
)

#: How long the exit path waits for the last response callbacks after the
#: service itself has drained (they only have to enqueue a message).
_FLUSH_TIMEOUT = 10.0


@dataclass
class ShardConfig:
    """Everything a worker needs to rebuild its serving world, picklable.

    One config is shared by every shard of a cluster; the only per-shard
    variation is derived deterministically from ``shard_id`` (the fault
    injector's seed), so a cluster is reproducible end to end.

    Attributes mirror :class:`~repro.service.server.QueryService` plus:

    Attributes:
        database: the (pickled) database every shard serves.
        profile: the simulated-engine profile.
        fault_spec: fault-injection spec string (chaos testing); each
            shard runs its own injector seeded ``seed + shard_id``.
        seed: base seed for per-shard derived randomness.
        trace: run a per-shard tracer; span records are shipped back on
            exit for cross-shard merging.
        trace_max_spans: the shard tracer's retention cap.
        insights: run a per-shard
            :class:`~repro.obs.insights.registry.InsightsRegistry`; its
            snapshot rides inside the service snapshot (the ``insights``
            key) and merges exactly in
            :func:`~repro.shard.aggregate.merge_metric_snapshots`.
    """

    database: Database
    profile: object = None
    max_width: int = 4
    workers: int = 4
    queue_capacity: int = 64
    cache_capacity: int = 128
    cache_ttl_seconds: Optional[float] = None
    work_budget: Optional[int] = None
    fallback_to_builtin: bool = True
    optimize: bool = True
    deadline_seconds: Optional[float] = None
    memory_budget_cells: Optional[int] = None
    max_intermediate_rows: Optional[int] = None
    fault_spec: Optional[str] = None
    seed: int = 0
    parallel_workers: int = 0
    trace: bool = False
    trace_max_spans: int = 100_000
    insights: bool = False
    extra: Dict[str, object] = field(default_factory=dict)


class _InflightTable:
    """Request-id → future bookkeeping shared by the loop and callbacks."""

    def __init__(self) -> None:
        self._lock = make_lock("ShardWorker._inflight")
        self._cond = threading.Condition(self._lock)
        self._futures: Dict[int, Future] = {}

    def add(self, request_id: int, future: Future) -> None:
        with self._cond:
            self._futures[request_id] = future

    def remove(self, request_id: int) -> None:
        with self._cond:
            self._futures.pop(request_id, None)
            if not self._futures:
                self._cond.notify_all()

    def wait_empty(self, timeout: float) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._futures, timeout=timeout
            )


def _answer_from_result(request_id: int, shard_id: int, result) -> QueryAnswer:
    relation = result.relation
    return QueryAnswer(
        request_id=request_id,
        shard_id=shard_id,
        attributes=tuple(relation.attributes) if relation is not None else (),
        tuples=list(relation.tuples) if relation is not None else [],
        work=result.work,
        simulated_seconds=result.simulated_seconds,
        elapsed_seconds=result.elapsed_seconds,
        finished=result.finished,
        used_statistics=result.used_statistics,
        optimizer=result.optimizer,
        work_breakdown=dict(result.work_breakdown),
    )


def shard_worker_main(
    shard_id: int,
    config: ShardConfig,
    request_queue,
    response_queue,
    incarnation: int = 0,
) -> None:
    """Entry point of a shard worker process (spawn target).

    ``incarnation`` is 0 for the original process and increments on
    every supervised restart.  The serving world is rebuilt from the
    *same* config either way — all per-shard randomness derives from
    ``config.seed + shard_id`` — so a restarted shard is
    deterministically identical to its predecessor.
    """
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
    from repro.obs.tracing import Tracer, set_tracer
    from repro.resilience.faults import FaultInjector
    from repro.service.server import QueryService

    tracer = None
    if config.trace:
        tracer = Tracer(max_spans=config.trace_max_spans)
        set_tracer(tracer)

    injector = (
        FaultInjector(config.fault_spec, seed=config.seed + shard_id)
        if config.fault_spec
        else None
    )
    insights = None
    if config.insights:
        from repro.obs.insights.registry import InsightsRegistry

        insights = InsightsRegistry()
    profile = config.profile if config.profile is not None else COMMDB_PROFILE
    service = QueryService(
        SimulatedDBMS(config.database, profile),
        max_width=config.max_width,
        workers=config.workers,
        queue_capacity=config.queue_capacity,
        cache_capacity=config.cache_capacity,
        cache_ttl_seconds=config.cache_ttl_seconds,
        work_budget=config.work_budget,
        fallback_to_builtin=config.fallback_to_builtin,
        optimize=config.optimize,
        deadline_seconds=config.deadline_seconds,
        memory_budget_cells=config.memory_budget_cells,
        max_intermediate_rows=config.max_intermediate_rows,
        fault_injector=injector,
        parallel_workers=config.parallel_workers,
        insights=insights,
    )
    inflight = _InflightTable()

    def finish(request_id: int, future: Future) -> None:
        """Done-callback (runs on a pool worker thread): post the outcome."""
        try:
            try:
                result = future.result()
            except CancelledError:
                # Queued but never started: the drain cancelled it.
                exc = QueryCancelled("shard draining", site="shard.queue")
                response_queue.put(
                    QueryFailure(request_id, shard_id, *encode_error(exc))
                )
            except BaseException as exc:  # hdqo: ignore[error-swallowing] — delivered as a typed QueryFailure response
                response_queue.put(
                    QueryFailure(request_id, shard_id, *encode_error(exc))
                )
            else:
                response_queue.put(
                    _answer_from_result(request_id, shard_id, result)
                )
        finally:
            inflight.remove(request_id)

    response_queue.put(
        WorkerReady(
            shard_id=shard_id, pid=os.getpid(), incarnation=incarnation
        )
    )

    grace: Optional[float] = None
    while True:
        message = request_queue.get()
        if isinstance(message, QueryRequest):
            try:
                future = service.submit(
                    message.sql,
                    work_budget=message.work_budget,
                    deadline_seconds=message.deadline_seconds,
                )
            except ReproError as exc:  # overloaded/closed: still explicit
                response_queue.put(
                    QueryFailure(
                        message.request_id, shard_id, *encode_error(exc)
                    )
                )
                continue
            request_id = message.request_id
            inflight.add(request_id, future)
            future.add_done_callback(
                lambda fut, request_id=request_id: finish(request_id, fut)
            )
        elif isinstance(message, SnapshotCommand):
            response_queue.put(
                SnapshotReply(
                    message.request_id,
                    shard_id,
                    service.snapshot(),
                    registry=service.metrics.registry.export(),
                )
            )
        elif isinstance(message, DrainCommand):
            grace = message.grace_seconds
            break
        # Unknown message types are dropped: a router newer than this
        # worker must not wedge it.

    # -- graceful exit ---------------------------------------------------
    drained = service.drain(grace_seconds=grace)
    # The drain cancelled/aborted everything; callbacks only need to flush
    # their response messages.
    flushed = inflight.wait_empty(timeout=_FLUSH_TIMEOUT)

    span_records = []
    spans_dropped = 0
    open_spans = 0
    if tracer is not None:
        span_records = tracer.to_records()
        spans_dropped = tracer.dropped
        open_spans = tracer.open_spans

    lock_violation = None
    from repro.analysis.lockwitness import GLOBAL_WITNESS, lockcheck_enabled

    if lockcheck_enabled():
        violations = GLOBAL_WITNESS.violations
        if violations:
            lock_violation = str(violations[0])

    response_queue.put(
        WorkerExit(
            shard_id=shard_id,
            drained=drained and flushed,
            snapshot=service.snapshot(),
            registry=service.metrics.registry.export(),
            span_records=span_records,
            spans_dropped=spans_dropped,
            open_spans=open_spans,
            lock_violation=lock_violation,
            incarnation=incarnation,
        )
    )
    # Let the feeder thread flush the exit message before the process ends.
    response_queue.close()
    response_queue.join_thread()

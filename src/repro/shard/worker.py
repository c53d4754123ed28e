"""The shard worker process: one :class:`QueryService` behind a request
queue and a response pipe.

Each worker is spawned (never forked — a fresh interpreter, no inherited
locks or thread state), receives its
:class:`~repro.service.config.ServiceConfig` pickled through the process
arguments, builds its own deterministic world from it
(``config.build(shard_id)``, plus a :class:`~repro.obs.tracing.Tracer`
when ``config.trace``) — then serves a simple loop:

* :class:`~repro.shard.messages.QueryRequest` → submitted to the shard's
  own executor pool (intra-shard concurrency), the outcome posted back as
  :class:`~repro.shard.messages.QueryAnswer` or as a
  :class:`~repro.shard.messages.QueryFailure` carrying the typed error
  itself (:func:`~repro.shard.messages.wire_error` degrades one that
  cannot cross to :class:`~repro.errors.ShardError`);
* :class:`~repro.shard.messages.SnapshotCommand` → the service snapshot;
* :class:`~repro.shard.messages.DrainCommand` → graceful shutdown: the
  service drains (queued queries cancel, in-flight queries abort at their
  next cooperative checkpoint), a response is flushed for every
  outstanding request, and the final metrics + span records leave in a
  :class:`~repro.shard.messages.WorkerExit` before the process ends.

Requests arrive on this incarnation's own queue.  Every response leaves
on its own pipe, whose only write end the worker holds, so the router
reads the worker's death as end-of-file there.

Workers ignore SIGINT/SIGTERM: shutdown is *coordinated* by the router
(terminal signals hit the whole foreground process group, and a worker
dying mid-protocol would strand in-flight futures), and a worker that
outlives the grace period is killed hard by the router.  A worker whose
router process is gone closes its service and exits on its own.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import threading
from concurrent.futures import CancelledError, Future
from typing import Dict, Optional

from repro.analysis.lockwitness import make_lock
from repro.errors import QueryCancelled, ReproError
from repro.obs.tracing import NULL_TRACER, Tracer, set_tracer
from repro.service.config import ServiceConfig
from repro.shard.messages import (
    DrainCommand,
    QueryAnswer,
    QueryFailure,
    QueryRequest,
    SnapshotCommand,
    SnapshotReply,
    WorkerExit,
    WorkerReady,
    wire_error,
)

#: How long the exit path waits for the last response callbacks after the
#: service itself has drained (they only have to send a message).
_FLUSH_TIMEOUT = 10.0

#: How often an idle worker checks that its router process is alive.
_ORPHAN_CHECK_SECONDS = 1.0


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
    config: ServiceConfig,
    request_queue,
    responses,
    incarnation: int = 0,
) -> None:
    """Entry point of a shard worker process (spawn target).

    ``responses`` is the write end of this incarnation's response pipe.
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

    tracer = Tracer() if config.trace else NULL_TRACER
    set_tracer(tracer)
    service = config.build(shard_id)
    inflight = _InflightTable()
    send_lock = make_lock("ShardWorker._send")
    router = multiprocessing.parent_process()

    def send(message) -> None:
        """Send one response; pool threads and the main loop share the pipe."""
        with send_lock:
            responses.send(message)

    def finish(request_id: int, future: Future) -> None:
        """Done-callback (runs on a pool worker thread): post the outcome."""
        try:
            try:
                result = future.result()
            except CancelledError:
                # Queued but never started: the drain cancelled it.
                exc = QueryCancelled("shard draining", site="shard.queue")
                send(QueryFailure(request_id, shard_id, exc))
            except BaseException as exc:  # hdqo: ignore[error-swallowing] — delivered as a typed QueryFailure response
                send(QueryFailure(request_id, shard_id, wire_error(exc)))
            else:
                send(_answer_from_result(request_id, shard_id, result))
        finally:
            inflight.remove(request_id)

    send(
        WorkerReady(
            shard_id=shard_id, pid=os.getpid(), incarnation=incarnation
        )
    )

    grace: Optional[float] = None
    while True:
        try:
            message = request_queue.get(timeout=_ORPHAN_CHECK_SECONDS)
        except queue.Empty:
            if not router.is_alive():
                # Orphaned: nobody is left to drain us or read a WorkerExit.
                service.close()
                responses.close()
                return
            continue
        if isinstance(message, QueryRequest):
            try:
                future = service.submit(
                    message.sql,
                    work_budget=message.work_budget,
                    deadline_seconds=message.deadline_seconds,
                )
            except ReproError as exc:  # overloaded/closed: still explicit
                send(
                    QueryFailure(
                        message.request_id, shard_id, wire_error(exc)
                    )
                )
                continue
            request_id = message.request_id
            inflight.add(request_id, future)
            future.add_done_callback(
                lambda fut, request_id=request_id: finish(request_id, fut)
            )
        elif isinstance(message, SnapshotCommand):
            send(SnapshotReply(message.request_id, shard_id, service.snapshot()))
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

    lock_violation = None
    from repro.analysis.lockwitness import GLOBAL_WITNESS, lockcheck_enabled

    if lockcheck_enabled():
        violations = GLOBAL_WITNESS.violations
        if violations:
            lock_violation = str(violations[0])

    send(
        WorkerExit(
            shard_id=shard_id,
            drained=drained and flushed,
            snapshot=service.snapshot(),
            span_records=tracer.to_records(),
            spans_dropped=tracer.dropped,
            open_spans=tracer.open_spans,
            lock_violation=lock_violation,
            incarnation=incarnation,
        )
    )
    # The send returned with the whole message in the pipe; end-of-file
    # follows it.
    responses.close()

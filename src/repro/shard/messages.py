"""The sharding wire protocol: picklable messages.

Everything that crosses the process boundary between the
:class:`~repro.shard.router.ShardRouter` and its workers is one of the
small dataclasses here — no live objects (services, relations, futures)
ever cross, only plain data.  Two rules make the boundary transparent to
callers:

* **results** travel as :class:`QueryAnswer` (attribute names + tuples +
  the deterministic counters) and are rebuilt into a real
  :class:`~repro.engine.dbms.DBMSResult` on the router side, so a sharded
  answer is byte-identical — rows *and* order — to a single-process one;
* **errors** travel as themselves inside :class:`QueryFailure`: every
  :class:`~repro.errors.ReproError` pickles with its type, message and
  attributes.  :func:`wire_error` picks what a worker sends — anything
  else (a non-``ReproError`` bug, or an error holding an attribute that
  does not pickle) degrades to :class:`ShardError` carrying the original
  type name, still explicit, still typed.

Deadlines do not pickle as absolute times: monotonic clocks are
per-process, so a deadline crosses the boundary as *remaining seconds*
(:attr:`QueryRequest.deadline_seconds`), re-anchored by the worker.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError, ShardError


# ---------------------------------------------------------------------------
# Requests (router -> worker)
# ---------------------------------------------------------------------------


@dataclass
class QueryRequest:
    """One query dispatched to a shard.

    Attributes:
        request_id: router-unique id the response echoes back.
        sql: the SQL text to execute.
        work_budget: per-query work-unit budget (None = service default).
        deadline_seconds: *remaining* wall-clock budget at dispatch time;
            the worker re-anchors it on its own monotonic clock (this is
            how deadlines propagate across the process boundary — queue
            wait on the router side has already been subtracted).
    """

    request_id: int
    sql: str
    work_budget: Optional[int] = None
    deadline_seconds: Optional[float] = None


@dataclass
class SnapshotCommand:
    """Ask a shard for its current metrics/cache snapshot."""

    request_id: int


@dataclass
class DrainCommand:
    """Graceful shutdown: drain the shard's service and exit.

    The worker stops admitting, cancels queued queries, lets in-flight
    queries abort at their next cooperative checkpoint, flushes a
    response for every outstanding request, and replies with
    :class:`WorkerExit` before its process ends.
    """

    grace_seconds: Optional[float] = None


# ---------------------------------------------------------------------------
# Responses (worker -> router)
# ---------------------------------------------------------------------------


@dataclass
class WorkerReady:
    """Sent once by each worker after its service is built and serving.

    ``incarnation`` names the supervised restart of the shard that sent
    it (the router already knows it from the pipe the message came on).
    """

    shard_id: int
    pid: int
    incarnation: int = 0


@dataclass
class QueryAnswer:
    """A finished (or DNF) query result in plain-data form."""

    request_id: int
    shard_id: int
    attributes: Tuple[str, ...]
    tuples: List[Tuple[object, ...]]
    work: int
    simulated_seconds: float
    elapsed_seconds: float
    finished: bool
    used_statistics: bool
    optimizer: str
    work_breakdown: Dict[str, int] = field(default_factory=dict)

    def to_result(self) -> "Any":
        """Rebuild the :class:`~repro.engine.dbms.DBMSResult` callers expect."""
        from repro.engine.dbms import DBMSResult
        from repro.relational.relation import Relation

        relation = (
            Relation(self.attributes, self.tuples)
            if self.finished
            else None
        )
        return DBMSResult(
            relation=relation,
            answer=relation,
            work=self.work,
            simulated_seconds=self.simulated_seconds,
            elapsed_seconds=self.elapsed_seconds,
            plan_text=f"(executed on shard {self.shard_id})",
            finished=self.finished,
            used_statistics=self.used_statistics,
            optimizer=self.optimizer,
            work_breakdown=dict(self.work_breakdown),
        )


@dataclass
class QueryFailure:
    """A typed error outcome; ``error`` is what :func:`wire_error` chose."""

    request_id: int
    shard_id: int
    error: ReproError


def wire_error(exc: BaseException) -> ReproError:
    """The error a worker sends for ``exc``: itself, when it is a
    :class:`ReproError` that pickles, else a :class:`ShardError` naming
    its type — so a failure can never leave the router's future unresolved.
    """
    if isinstance(exc, ReproError):
        try:
            pickle.dumps(exc)
        except (pickle.PicklingError, TypeError, AttributeError):
            pass  # an attribute that does not pickle
        else:
            return exc
    return ShardError(str(exc), original_type=type(exc).__name__)


@dataclass
class SnapshotReply:
    """A shard's metrics snapshot (see :meth:`QueryService.snapshot`),
    merged by the router into the cluster view."""

    request_id: int
    shard_id: int
    snapshot: Dict[str, object]


@dataclass
class RestartEvent:
    """One supervision transition of a shard worker, in plain-data form.

    The supervisor records these, as ``dataclasses.asdict`` dicts, for
    the cluster slow log and the ``supervisor`` section of the router
    snapshot.

    Attributes:
        shard_id: which shard the event concerns.
        kind: ``"worker-death"``, ``"restart-scheduled"``,
            ``"worker-restarted"``, ``"shard-recovered"``, or
            ``"breaker-open"``.
        incarnation: the worker incarnation the event applies to
            (0 = the original process; each restart increments it).
        attempt: consecutive restart attempt number since the shard was
            last healthy (0 when not a restart event).
        exitcode: the dead process's exit code, when known.
        backoff_seconds: the jittered backoff chosen before the restart
            (0.0 when not a restart event).
        inflight_lost: in-flight queries stranded by a death.
    """

    shard_id: int
    kind: str
    incarnation: int = 0
    attempt: int = 0
    exitcode: Optional[int] = None
    backoff_seconds: float = 0.0
    inflight_lost: int = 0


@dataclass
class WorkerExit:
    """The worker's last message: final state for cross-shard aggregation.

    Attributes:
        shard_id: which shard exited.
        drained: every worker thread finished within the grace period.
        snapshot: final metrics snapshot (:meth:`QueryService.snapshot`).
        span_records: the shard tracer's exported span records (empty when
            tracing was off).
        spans_dropped: spans lost to the tracer's retention cap.
        open_spans: spans still open at exit (0 on a clean drain).
        lock_violation: a witnessed lock-order cycle rendered as text, or
            None — workers run their own
            :class:`~repro.analysis.lockwitness.LockWitness` under
            ``HDQO_LOCKCHECK=1`` and report rather than die.
        incarnation: which supervised incarnation of the shard exited.
    """

    shard_id: int
    drained: bool
    snapshot: Dict[str, object]
    span_records: List[Dict[str, object]] = field(default_factory=list)
    spans_dropped: int = 0
    open_spans: int = 0
    lock_violation: Optional[str] = None
    incarnation: int = 0

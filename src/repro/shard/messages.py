"""The sharding wire protocol: picklable messages and the error codec.

Everything that crosses the process boundary between the
:class:`~repro.shard.router.ShardRouter` and its workers is one of the
small dataclasses here — no live objects (services, relations, futures)
ever cross, only plain data.  Two conversions make the boundary
transparent to callers:

* **results** travel as :class:`QueryAnswer` (attribute names + tuples +
  the deterministic counters) and are rebuilt into a real
  :class:`~repro.engine.dbms.DBMSResult` on the router side, so a sharded
  answer is byte-identical — rows *and* order — to a single-process one;
* **errors** travel as :class:`QueryFailure` through
  :func:`encode_error`/:func:`decode_error`, which reconstruct the typed
  :class:`~repro.errors.ReproError` subclasses (their constructors take
  structured arguments, so naive exception pickling would break).  An
  error type the codec does not know degrades to :class:`ShardError`
  carrying the original type name — still explicit, still typed.

Deadlines do not pickle as absolute times: monotonic clocks are
per-process, so a deadline crosses the boundary as *remaining seconds*
(:attr:`QueryRequest.deadline_seconds`), re-anchored by the worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import errors as errors_module
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
    """A typed error outcome, encoded for reconstruction on the router."""

    request_id: int
    shard_id: int
    error_type: str
    message: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_error(self) -> ReproError:
        return decode_error(self.error_type, self.message, self.details)


@dataclass
class SnapshotReply:
    """A shard's metrics snapshot (see :meth:`QueryService.snapshot`).

    Attributes:
        registry: the shard's kind-tagged Prometheus registry export
            (:meth:`repro.obs.metrics.MetricsRegistry.export`), merged by
            the router into one cluster exposition.
    """

    request_id: int
    shard_id: int
    snapshot: Dict[str, object]
    registry: Dict[str, object] = field(default_factory=dict)


@dataclass
class RestartEvent:
    """One supervision transition of a shard worker, in plain-data form.

    The supervisor records these for the cluster slow log and the
    ``supervisor`` section of the router snapshot; :meth:`to_entry` /
    :meth:`from_entry` give the record a stable dict form (the shape that
    crosses snapshot-merge boundaries), mirroring the error codec's
    round-trip discipline.

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

    def to_entry(self) -> Dict[str, object]:
        """The stable dict form used in slow-log events and snapshots."""
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "incarnation": self.incarnation,
            "attempt": self.attempt,
            "exitcode": self.exitcode,
            "backoff_seconds": self.backoff_seconds,
            "inflight_lost": self.inflight_lost,
        }

    @classmethod
    def from_entry(cls, entry: Dict[str, object]) -> "RestartEvent":
        """Rebuild an event from :meth:`to_entry`'s dict (round-trips)."""
        return cls(
            shard_id=int(entry["shard_id"]),  # type: ignore[arg-type]
            kind=str(entry["kind"]),
            incarnation=int(entry.get("incarnation", 0)),  # type: ignore[arg-type]
            attempt=int(entry.get("attempt", 0)),  # type: ignore[arg-type]
            exitcode=(
                None
                if entry.get("exitcode") is None
                else int(entry["exitcode"])  # type: ignore[arg-type]
            ),
            backoff_seconds=float(
                entry.get("backoff_seconds", 0.0)  # type: ignore[arg-type]
            ),
            inflight_lost=int(
                entry.get("inflight_lost", 0)  # type: ignore[arg-type]
            ),
        )


@dataclass
class WorkerExit:
    """The worker's last message: final state for cross-shard aggregation.

    Attributes:
        shard_id: which shard exited.
        drained: every worker thread finished within the grace period.
        snapshot: final metrics/cache snapshot.
        registry: the shard's kind-tagged Prometheus registry export
            (:meth:`repro.obs.metrics.MetricsRegistry.export`).
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
    registry: Dict[str, object] = field(default_factory=dict)
    span_records: List[Dict[str, object]] = field(default_factory=list)
    spans_dropped: int = 0
    open_spans: int = 0
    lock_violation: Optional[str] = None
    incarnation: int = 0


# ---------------------------------------------------------------------------
# Error codec
# ---------------------------------------------------------------------------

#: Attributes worth carrying across the boundary, per error type.  The
#: decoder passes them straight back to the constructor, so each tuple
#: must match the constructor's signature (checked by tests).
_ERROR_FIELDS: Dict[str, Tuple[str, ...]] = {
    "WorkBudgetExceeded": ("budget", "spent", "phase"),
    "DeadlineExceeded": ("deadline_seconds", "elapsed_seconds", "site"),
    "QueryCancelled": ("reason", "site"),
    "MemoryBudgetExceeded": (
        "site", "rows", "row_width", "cells", "budget_cells", "max_rows"
    ),
    "InjectedFault": ("site",),
    "ServiceOverloaded": ("queued", "capacity"),
    "SqlSyntaxError": ("args0", "position"),
    "DecompositionNotFound": ("args0", "width"),
    "ShardError": ("args0", "original_type", "shard_id"),
    "ShardUnavailable": ("args0", "shard_id", "attempts", "reason"),
    "LockOrderViolation": ("cycle",),
}

#: Error types whose constructor takes just a message string.
_MESSAGE_ONLY = frozenset({
    "ReproError", "HypergraphError", "QueryError", "SchemaError",
    "ExecutionError", "DecompositionError", "OptimizationError",
    "ServiceError", "ServiceClosed",
})


def encode_error(exc: BaseException) -> Tuple[str, str, Dict[str, object]]:
    """``(type_name, message, details)`` for a :class:`QueryFailure`."""
    name = type(exc).__name__
    details: Dict[str, object] = {}
    for attr in _ERROR_FIELDS.get(name, ()):
        if attr == "args0":
            details[attr] = str(exc.args[0]) if exc.args else str(exc)
        else:
            details[attr] = getattr(exc, attr, None)
    return name, str(exc), details


def decode_error(
    error_type: str, message: str, details: Dict[str, object]
) -> ReproError:
    """Rebuild the typed error; unknown types become :class:`ShardError`."""
    cls = getattr(errors_module, error_type, None)
    if cls is not None and isinstance(cls, type) and issubclass(cls, ReproError):
        fields = _ERROR_FIELDS.get(error_type)
        try:
            if fields is not None:
                args = [details.get(attr) for attr in fields]
                return cls(*args)
            if error_type in _MESSAGE_ONLY:
                return cls(message)
        except TypeError:
            pass  # constructor drifted; fall through to the generic carrier
    return ShardError(message, original_type=error_type)

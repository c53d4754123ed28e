"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the optimizer can catch a single base class.  More specific
subclasses are raised close to the failure site and carry enough context to
diagnose the problem without reading library source.

Every error pickles as itself — type, message and attributes — whatever
its constructor takes, so a shard worker's error reaches the router as
the same typed object (:mod:`repro.shard.messages`).
"""

from __future__ import annotations

import copyreg
from typing import Any, Tuple


class ReproError(Exception):
    """Base class for every error raised by the repro library."""

    def __reduce__(self) -> Tuple[Any, ...]:
        # Plain exception pickling re-calls ``cls(*self.args)``, which
        # breaks (or rewords) any subclass whose constructor takes
        # structured arguments.  Rebuild through ``cls.__new__`` instead,
        # then restore ``args`` and the instance attributes as they were.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class HypergraphError(ReproError):
    """Malformed hypergraph input or an operation on missing vertices/edges."""


class QueryError(ReproError):
    """Malformed query (conjunctive or SQL) or unsupported construct."""


class SqlSyntaxError(QueryError):
    """Raised by the SQL lexer/parser on syntactically invalid input.

    Attributes:
        position: character offset in the input where the error was detected,
            or ``None`` when the error is not tied to one position.
    """

    def __init__(self, message: str, position: "int | None" = None):
        super().__init__(message)
        self.position = position


class SchemaError(ReproError):
    """Schema violation: unknown relation/attribute, arity or type mismatch."""


class ExecutionError(ReproError):
    """Runtime failure while executing a physical plan."""


class WorkBudgetExceeded(ExecutionError):
    """The executor's work budget was exhausted.

    The benchmark harness catches this to record a did-not-finish data point
    (the paper reports such runs as "> 10 minutes").

    Attributes:
        budget: the work-unit limit that was crossed.
        spent: units charged when the limit was crossed — because the meter
            checks on *every* charge, this is at most one charge beyond the
            budget, even mid-join: a hash join charges each probe block's
            output (≤ 4096 probe rows' matches) as one charge before any of
            its rows exist, so the blow-up is aborted before it
            materializes, not at the next operator boundary.
        phase: the meter category of the charge that crossed the line
            (``"join-out"``, ``"plan"``, …), locating the failure inside an
            operator rather than between operators.
    """

    def __init__(self, budget: int, spent: int, phase: str = ""):
        detail = f" during {phase!r}" if phase else ""
        super().__init__(
            f"work budget exceeded{detail}: spent {spent} work units "
            f"of {budget} allowed"
        )
        self.budget = budget
        self.spent = spent
        self.phase = phase


class DeadlineExceeded(ExecutionError):
    """A query ran past its deadline and was aborted at a checkpoint.

    Attributes:
        deadline_seconds: the allotted wall-clock budget.
        elapsed_seconds: time elapsed when the overrun was detected.
        site: the checkpoint that detected it (``"decompose.search"``,
            ``"exec.join"``, …).
    """

    def __init__(
        self,
        deadline_seconds: float,
        elapsed_seconds: float,
        site: str = "",
    ):
        where = f" at {site}" if site else ""
        super().__init__(
            f"deadline exceeded{where}: {elapsed_seconds:.3f}s elapsed "
            f"of {deadline_seconds:.3f}s allowed"
        )
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds
        self.site = site


class QueryCancelled(ExecutionError):
    """A query observed its cancellation token and stopped cooperatively.

    Attributes:
        reason: the reason given to :meth:`CancellationToken.cancel`.
        site: the checkpoint that observed the cancellation.
    """

    def __init__(self, reason: str = "", site: str = ""):
        where = f" at {site}" if site else ""
        why = f": {reason}" if reason else ""
        super().__init__(f"query cancelled{where}{why}")
        self.reason = reason
        self.site = site


class MemoryBudgetExceeded(ExecutionError):
    """An intermediate result exceeded the per-query memory budget.

    Estimated via row-width accounting (rows × attributes = cells) on every
    materialized intermediate, so a blow-up aborts deterministically instead
    of OOM-ing the worker.

    Attributes:
        site: the operator that materialized the oversized intermediate.
        rows: rows of the offending intermediate.
        row_width: attributes per row.
        cells: estimated cells (rows × row_width) held by the query when
            the guard fired.
        budget_cells: the cell budget (None when only the row guard fired).
        max_rows: the max-intermediate-rows guard (None when only the cell
            budget fired).
    """

    def __init__(
        self,
        site: str,
        rows: int,
        row_width: int,
        cells: int,
        budget_cells: "int | None" = None,
        max_rows: "int | None" = None,
    ):
        if max_rows is not None and budget_cells is None:
            detail = f"{rows} intermediate rows > {max_rows} allowed"
        else:
            detail = f"{cells} estimated cells > {budget_cells} allowed"
        where = f" at {site}" if site else ""
        super().__init__(f"memory budget exceeded{where}: {detail}")
        self.site = site
        self.rows = rows
        self.row_width = row_width
        self.cells = cells
        self.budget_cells = budget_cells
        self.max_rows = max_rows


class InjectedFault(ExecutionError):
    """A deterministic fault raised by the chaos-testing fault injector.

    Attributes:
        site: the named injection site that fired.
    """

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


class DecompositionError(ReproError):
    """A decomposition-related invariant was violated."""


class DecompositionNotFound(DecompositionError):
    """No decomposition with the requested properties exists.

    Mirrors the "Failure" output of Algorithm q-HypertreeDecomp (Fig. 4 of
    the paper): there is no hypertree decomposition of width at most ``k``
    whose root covers the output variables.
    """

    def __init__(self, message: str, width: "int | None" = None):
        super().__init__(message)
        self.width = width


class OptimizationError(ReproError):
    """The quantitative optimizer could not produce a plan."""


class ServiceError(ReproError):
    """A failure in the concurrent query-serving layer."""


class ServiceOverloaded(ServiceError):
    """Admission control rejected a query: the service queue is full.

    Carries the saturation details so a client can implement backpressure
    (retry with jitter, shed load, or route elsewhere).
    """

    def __init__(self, queued: int, capacity: int):
        super().__init__(
            f"service overloaded: {queued} queries queued, capacity {capacity}"
        )
        self.queued = queued
        self.capacity = capacity


class ServiceClosed(ServiceError):
    """A query was submitted to a service that has been shut down."""


class ShardError(ServiceError):
    """A failure in the multi-process shard layer.

    Raised by the router for cluster-level faults (a worker died, a reply
    timed out) and used as the carrier for worker-side errors whose
    concrete type could not be reconstructed across the process boundary.

    Attributes:
        original_type: the worker-side exception type name when this error
            wraps one, else ``None``.
        shard_id: the shard involved, when known.
    """

    def __init__(
        self,
        message: str,
        original_type: "str | None" = None,
        shard_id: "int | None" = None,
    ):
        super().__init__(message)
        self.original_type = original_type
        self.shard_id = shard_id


class ShardUnavailable(ShardError):
    """No live shard could serve a query before its budgets ran out.

    Raised by the supervised router when a worker died with the query in
    flight and every recovery avenue is exhausted: the deadline-aware
    retry budget hit zero, the original deadline expired before a retry
    could be dispatched, or no live failover shard remains on the ring.
    Queries are read-only and idempotent, so the router retries them
    transparently first — this error is the explicit end of that road.

    Attributes:
        shard_id: the shard whose death stranded the query (the *last*
            one, if the query was retried across several).
        attempts: dispatch attempts made (1 = the original only).
        reason: which budget ran out (``"retry-budget"``,
            ``"deadline"``, ``"no-live-shard"``, or ``"draining"``).
    """

    def __init__(
        self,
        message: str,
        shard_id: "int | None" = None,
        attempts: int = 1,
        reason: str = "retry-budget",
    ):
        super().__init__(message, shard_id=shard_id)
        self.attempts = attempts
        self.reason = reason


class LockOrderViolation(ReproError):
    """The dynamic lock-order witness observed a cyclic acquisition order.

    Raised (only under ``HDQO_LOCKCHECK=1``) when two threads acquire the
    same pair of named locks in opposite orders — the classic deadlock
    recipe.  Carries the witnessed cycle so the offending lock pair can be
    identified without reproducing the interleaving.

    Attributes:
        cycle: lock names forming the ordering cycle, e.g.
            ``("PlanCache._lock", "ServiceMetrics._lock",
            "PlanCache._lock")``.
    """

    def __init__(self, cycle: "tuple[str, ...]"):
        super().__init__(
            "lock-order cycle witnessed: " + " -> ".join(cycle)
        )
        self.cycle = cycle

"""Deadlines, cancellation, and the per-query execution context.

The cost-k-decomp search is exponential in k, and a single pathological
query can otherwise wedge a pool worker indefinitely.  This module provides
the cooperative-abort primitives the whole stack checks:

* :class:`Deadline` — an immutable monotonic-clock expiry; immutability
  makes it trivially thread-safe.
* :class:`CancellationToken` — a thread-safe flag a client (or the server's
  drain path) flips from *any* thread; the running query observes it at the
  next checkpoint.  Tokens compose: a token constructed with ``parents``
  reports cancelled as soon as any ancestor is.
* :class:`ExecutionContext` — bundles deadline + token + memory budget +
  fault injector for one query.  Instrumented code calls
  :meth:`ExecutionContext.checkpoint` at named sites (``decompose.search``,
  ``exec.join``, …), which raises the typed
  :class:`~repro.errors.DeadlineExceeded` / :class:`~repro.errors.QueryCancelled`
  errors and gives the fault injector its hook.

Like tracing (:mod:`repro.obs.tracing`), the context is carried in a
thread-local: :func:`current_context` returns :data:`NULL_CONTEXT` — whose
every method is a constant-time no-op — unless a context was activated with
:func:`resilient`.  A run without a context is therefore bit-identical in
work units to an uninstrumented build (the overhead guard test pins this).

Row loops amortize clock reads by calling :meth:`ExecutionContext.checkpoint`
once per block of rows (the kernels' ``_CHECK_EVERY``).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro.errors import DeadlineExceeded, QueryCancelled

if TYPE_CHECKING:
    from repro.resilience.budget import MemoryBudget
    from repro.resilience.faults import FaultInjector

__all__ = [
    "Deadline",
    "CancellationToken",
    "ExecutionContext",
    "NullExecutionContext",
    "NULL_CONTEXT",
    "current_context",
    "set_context",
    "resilient",
    "fanout_context",
]


class Deadline:
    """An absolute monotonic-clock expiry for one query.

    Args:
        seconds: wall-clock budget from *now*.
        clock: injectable monotonic clock (tests freeze time with it).

    Instances are immutable after construction, so one deadline may be read
    from any number of threads without locking.
    """

    __slots__ = ("seconds", "_expires_at", "_clock")

    def __init__(self, seconds: float, clock=time.monotonic):
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def elapsed(self) -> float:
        """Seconds consumed so far."""
        return self.seconds - self.remaining()

    def check(self, site: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` once expired."""
        if self.expired():
            raise DeadlineExceeded(self.seconds, self.elapsed(), site=site)

    def __repr__(self) -> str:
        return f"Deadline({self.seconds}s, {self.remaining():.3f}s left)"


class CancellationToken:
    """A thread-safe cooperative-cancellation flag.

    Args:
        parents: tokens this one composes with — cancelling any ancestor
            cancels this token too (a server drain token parents every
            in-flight query token).
    """

    def __init__(self, parents: Sequence["CancellationToken"] = ()):
        self._event = threading.Event()
        self._reason = ""
        self._parents = tuple(parents)

    def cancel(self, reason: str = "") -> None:
        """Request cancellation; observed at the query's next checkpoint."""
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        return any(parent.cancelled for parent in self._parents)

    @property
    def reason(self) -> str:
        if self._event.is_set():
            return self._reason
        for parent in self._parents:
            if parent.cancelled:
                return parent.reason
        return ""

    def check(self, site: str = "") -> None:
        """Raise :class:`~repro.errors.QueryCancelled` once cancelled."""
        if self.cancelled:
            raise QueryCancelled(self.reason, site=site)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state})"


class ExecutionContext:
    """Everything one query's cooperative-abort machinery needs.

    Args:
        deadline: wall-clock bound (None = unbounded).
        token: cancellation flag (None = not cancellable).
        memory: per-query :class:`~repro.resilience.budget.MemoryBudget`.
        faults: a :class:`~repro.resilience.faults.FaultInjector` whose
            named sites align with checkpoint sites.
    """

    #: Real contexts take the instrumented slow path; NULL_CONTEXT doesn't.
    active = True

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        token: Optional[CancellationToken] = None,
        memory: "Optional[MemoryBudget]" = None,
        faults: "Optional[FaultInjector]" = None,
    ):
        self.deadline = deadline
        self.token = token
        self.memory = memory
        self.faults = faults

    # ------------------------------------------------------------------

    def checkpoint(self, site: str = "") -> None:
        """One cooperative abort point: cancellation, deadline, faults.

        Cancellation is checked before the deadline so an explicit client
        cancel is reported as such even when the deadline has also passed.
        """
        if self.token is not None:
            self.token.check(site)
        if self.deadline is not None:
            self.deadline.check(site)
        if self.faults is not None:
            self.faults.fire(site)

    def account(self, rows: int, row_width: int, site: str = "") -> None:
        """Charge one materialized intermediate to the memory budget."""
        if self.memory is not None:
            self.memory.account(rows, row_width, site)

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(repr(self.deadline))
        if self.token is not None:
            parts.append(repr(self.token))
        if self.memory is not None:
            parts.append(repr(self.memory))
        if self.faults is not None:
            parts.append(repr(self.faults))
        return f"ExecutionContext({', '.join(parts) or 'unbounded'})"


class NullExecutionContext:
    """The disabled context: every method is a constant-time no-op."""

    active = False
    deadline = None
    token = None
    memory = None
    faults = None

    __slots__ = ()

    def checkpoint(self, site: str = "") -> None:
        return None

    def account(self, rows: int, row_width: int, site: str = "") -> None:
        return None


NULL_CONTEXT = NullExecutionContext()
"""Shared disabled context — the process-wide default."""

_local = threading.local()


def current_context() -> Union[ExecutionContext, NullExecutionContext]:
    """The active context of *this thread* (:data:`NULL_CONTEXT` default)."""
    return getattr(_local, "context", NULL_CONTEXT)


def set_context(
    context: Optional[Union[ExecutionContext, NullExecutionContext]],
) -> None:
    """Install ``context`` as this thread's active context (None clears)."""
    _local.context = context if context is not None else NULL_CONTEXT


def fanout_context(
    base: Union[ExecutionContext, NullExecutionContext],
) -> "tuple[ExecutionContext, CancellationToken]":
    """A context for a fan-out of worker threads.

    Returns ``(worker_context, fanout_token)``: the worker context carries
    the same deadline/memory/fault bounds as ``base`` plus a fresh
    cancellation token parented on ``base``'s (when it has one).  The
    coordinator cancels ``fanout_token`` the moment any worker fails, so
    every sibling still running stops at its next checkpoint instead of
    finishing work whose result is already doomed.

    An inactive ``base`` (:data:`NULL_CONTEXT`) still yields a real
    context: the fan-out must be cancellable even when the query itself
    runs unbounded.
    """
    parents = (base.token,) if base.token is not None else ()
    token = CancellationToken(parents=parents)
    if not base.active:
        return ExecutionContext(token=token), token
    worker = ExecutionContext(
        deadline=base.deadline,
        token=token,
        memory=base.memory,
        faults=base.faults,
    )
    return worker, token


@contextlib.contextmanager
def resilient(
    context: Optional[ExecutionContext] = None,
    **kwargs,
) -> Iterator[ExecutionContext]:
    """Activate an execution context for a block (this thread only).

    Either pass a ready :class:`ExecutionContext` or keyword arguments for
    one (``deadline=…, token=…, memory=…, faults=…``).  The previous
    context is restored on exit, so blocks nest safely.
    """
    active = context if context is not None else ExecutionContext(**kwargs)
    previous = current_context()
    set_context(active)
    try:
        yield active
    finally:
        set_context(previous)

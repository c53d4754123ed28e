"""``QueryService``: concurrent SQL serving over the structural optimizer.

The production shape the ROADMAP asks for: a :class:`QueryService` owns a
:class:`~repro.engine.dbms.SimulatedDBMS` coupled to the structural
optimizer (:func:`~repro.core.integration.install_structural_optimizer`),
fronted by

* a **plan cache** — repeated query templates skip cost-k-decomp entirely
  (the paper's millisecond, data-size-independent structural plan, built
  once per template instead of once per query);
* an **executor pool** — a fixed number of workers over a *bounded* queue;
  saturation rejects with :class:`~repro.errors.ServiceOverloaded`
  (backpressure) instead of queueing without bound;
* **per-query work budgets** — every admitted query runs under its own
  :class:`~repro.metering.WorkMeter` budget, so one pathological query
  becomes a DNF result, not a stuck worker;
* **graceful degradation** — templates with no width-≤k decomposition fall
  back to the engine's built-in planner (and the failure itself is cached,
  so repetitions skip the failing search);
* a **text memo** — a repeated SQL text skips parsing, translation and
  canonicalisation: its translation, fingerprint attached, is kept per
  (exact text, schema digest), LRU-bounded by the plan cache's capacity.

Queries are read-only, so concurrent executions over the shared database
need no further coordination; all mutable serving state (caches, metrics,
meters) is lock-guarded.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.lockwitness import make_lock
from repro.engine.dbms import DBMSResult, SimulatedDBMS
from repro.obs.insights.registry import (
    NULL_INSIGHTS,
    InsightsRegistry,
    NullInsights,
)
from repro.errors import (
    DeadlineExceeded,
    MemoryBudgetExceeded,
    QueryCancelled,
    ReproError,
)
from repro.query import ast
from repro.query.parser import parse_sql
from repro.query.subqueries import has_subqueries
from repro.query.translate import TranslationResult
from repro.core.integration import install_structural_optimizer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import MemoryBudget
from repro.resilience.context import (
    CancellationToken,
    Deadline,
    ExecutionContext,
    resilient,
)
from repro.resilience.faults import FaultInjector
from repro.service.executor_pool import ExecutorPool
from repro.service.fingerprint import fingerprint_translation, schema_digest
from repro.service.metrics import ServiceMetrics
from repro.service.plancache import PlanCache


def gather_batch(
    submit: Callable[[Any], Future[DBMSResult]],
    queries: Sequence[Any],
    return_exceptions: bool,
) -> List[Union[DBMSResult, Exception]]:
    """Submit every query, then resolve the futures in submission order.

    With ``return_exceptions``, a query that raises a library error (a
    syntax error, a missed deadline, a blown budget) — at submission or
    while running — yields its exception object in place of a result
    instead of aborting the whole batch: the CLI's behaviour.
    Cancellation is different: a :class:`~repro.errors.QueryCancelled`
    means the *caller* asked to stop, so it always propagates and aborts
    the batch.  Anything outside :class:`~repro.errors.ReproError` is a
    bug, not a query outcome, and propagates too.
    """

    def settle(step: Callable[[], Any]) -> Any:
        try:
            return step()
        except QueryCancelled:
            raise
        except ReproError as exc:
            if not return_exceptions:
                raise
            return exc

    pending = [settle(partial(submit, sql)) for sql in queries]
    return [
        outcome if isinstance(outcome, Exception) else settle(outcome.result)
        for outcome in pending
    ]


class QueryService:
    """A concurrent query-serving layer over one simulated DBMS.

    Args:
        dbms: the engine to serve from; its optimizer handler is replaced
            (and restored on :meth:`close`).
        max_width: width bound k for cost-k-decomp.
        workers: pool worker threads.
        queue_capacity: maximum queries waiting for a worker; beyond it,
            :meth:`submit` rejects with ``ServiceOverloaded``.
        cache_capacity: plan cache entries, and text memo entries (0
            disables both).
        work_budget: default per-query work-unit budget (None = unlimited).
        fallback_to_builtin: degrade to the built-in planner when no
            width-≤k decomposition exists.
        optimize: run Procedure Optimize on fresh decompositions.
        deadline_seconds: default per-query wall-clock deadline; expiry
            aborts the query at its next cooperative checkpoint with
            :class:`~repro.errors.DeadlineExceeded`.
        memory_budget_cells: per-query cap on live materialized cells
            (rows × width); exceeding it raises
            :class:`~repro.errors.MemoryBudgetExceeded` deterministically
            instead of OOM-ing the process.
        max_intermediate_rows: per-query cap on any single materialized
            intermediate's row count.
        fault_injector: a deterministic
            :class:`~repro.resilience.faults.FaultInjector` threaded into
            every query's execution context (chaos testing).
        breaker: the per-template :class:`CircuitBreaker` backing the
            degradation ladder; pass one explicitly to share or configure
            it, or leave the default (3 failures, 30 s cooldown).
        insights: a per-template
            :class:`~repro.obs.insights.registry.InsightsRegistry`
            receiving one record per handled query and slow-query
            captures from the optimizer handler; None (the default)
            installs the zero-cost :data:`NULL_INSIGHTS` no-op.
    """

    def __init__(
        self,
        dbms: SimulatedDBMS,
        *,
        max_width: int = 4,
        workers: int = 4,
        queue_capacity: int = 32,
        cache_capacity: int = 128,
        work_budget: Optional[int] = None,
        fallback_to_builtin: bool = True,
        optimize: bool = True,
        deadline_seconds: Optional[float] = None,
        memory_budget_cells: Optional[int] = None,
        max_intermediate_rows: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        breaker: Optional[CircuitBreaker] = None,
        insights: "Optional[Union[InsightsRegistry, NullInsights]]" = None,
    ):
        self.dbms = dbms
        self.work_budget = work_budget
        self.deadline_seconds = deadline_seconds
        self.memory_budget_cells = memory_budget_cells
        self.max_intermediate_rows = max_intermediate_rows
        self.fault_injector = fault_injector
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        #: Parent token of every in-flight query; :meth:`drain` cancels it.
        self.drain_token = CancellationToken()
        self.metrics = ServiceMetrics()
        self.plan_cache = PlanCache(capacity=cache_capacity)
        #: Per-template insights sink; the disabled NULL_INSIGHTS (every
        #: call a constant no-op, zero work-unit cost) unless one is given.
        self.insights = insights if insights is not None else NULL_INSIGHTS
        self._handler = install_structural_optimizer(
            dbms,
            max_width=max_width,
            fallback_to_builtin=fallback_to_builtin,
            optimize=optimize,
            plan_cache=self.plan_cache,
            metrics=self.metrics,
            breaker=self.breaker,
            insights=self.insights,
        )
        self.pool = ExecutorPool(
            workers=workers, queue_capacity=queue_capacity, name="hdqo-serve"
        )
        self._texts: "OrderedDict[Tuple[str, str], TranslationResult]" = (
            OrderedDict()
        )
        self._text_counts = {"hits": 0, "misses": 0}
        self._texts_lock = make_lock("QueryService._texts_lock")
        self._closed = False

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------

    def execute(
        self,
        sql: Union[str, ast.SelectQuery],
        work_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> DBMSResult:
        """Run one query synchronously in the calling thread.

        The same planning/caching/metrics path as pooled execution — used
        for warm-up and serial baselines.
        """
        return self._run(sql, work_budget, deadline_seconds, token)

    def submit(
        self,
        sql: Union[str, ast.SelectQuery],
        work_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> "Future[DBMSResult]":
        """Admit one query to the pool; rejects when saturated.

        Raises:
            ServiceOverloaded: the waiting queue is at capacity; the
                rejection is counted in the metrics.
            ServiceClosed: the service has been closed.
        """
        from repro.errors import ServiceOverloaded

        try:
            return self.pool.submit(
                self._run, sql, work_budget, deadline_seconds, token
            )
        except ServiceOverloaded:
            self.metrics.record_rejection()
            raise

    def run_all(
        self,
        queries: Sequence[Union[str, ast.SelectQuery]],
        work_budget: Optional[int] = None,
        return_exceptions: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> "List[Union[DBMSResult, Exception]]":
        """Run a batch through the pool, blocking for queue room (never
        rejecting), and return results in submission order.

        ``return_exceptions`` is :func:`gather_batch`'s.
        """
        return gather_batch(
            lambda sql: self.pool.submit_blocking(
                self._run, sql, work_budget, deadline_seconds
            ),
            queries,
            return_exceptions,
        )

    def warm_up(
        self, queries: Sequence[Union[str, ast.SelectQuery]]
    ) -> int:
        """Plan (and run) each query once to populate the plan cache.

        Returns the number of plan-cache entries after warm-up.
        """
        for sql in queries:
            self._run(sql, self.work_budget)
        return len(self.plan_cache)

    # ------------------------------------------------------------------

    def _make_context(
        self,
        deadline_seconds: Optional[float],
        token: Optional[CancellationToken],
    ) -> Optional[ExecutionContext]:
        """The per-query resilience context, or None when nothing is bounded."""
        seconds = (
            deadline_seconds
            if deadline_seconds is not None
            else self.deadline_seconds
        )
        deadline = Deadline(seconds) if seconds is not None else None
        memory = None
        if (
            self.memory_budget_cells is not None
            or self.max_intermediate_rows is not None
        ):
            memory = MemoryBudget(
                max_cells=self.memory_budget_cells,
                max_intermediate_rows=self.max_intermediate_rows,
            )
        if (
            deadline is None
            and token is None
            and memory is None
            and self.fault_injector is None
            and not self.drain_token.cancelled
        ):
            # Nothing to enforce: skip the context entirely so the hot
            # path's checkpoints stay no-ops (the ≤2 % overhead guarantee).
            return None
        return ExecutionContext(
            deadline=deadline,
            token=CancellationToken(
                parents=(self.drain_token,) + ((token,) if token is not None else ())
            ),
            memory=memory,
            faults=self.fault_injector,
        )

    def _translate(self, sql: str) -> Union[ast.SelectQuery, TranslationResult]:
        """``sql`` through the text memo, keyed on (text, schema digest):
        translation reads only the schema, so DDL misses and ``analyze()``
        hits.  A subquery text comes back parsed and is never stored: its
        flattening executes the subquery against the data, per query.  A
        stored translation is shared by concurrent queries, never mutated.
        """
        key = (sql, schema_digest(self.dbms.database))
        with self._texts_lock:
            translation = self._texts.get(key)
            if translation is not None:
                self._texts.move_to_end(key)
                self._text_counts["hits"] += 1
                return translation
            self._text_counts["misses"] += 1
        query = parse_sql(sql)
        if has_subqueries(query):
            return query
        translation = self.dbms.translate(query)
        translation = replace(
            translation, fingerprint=fingerprint_translation(translation)
        )
        with self._texts_lock:
            # Two concurrent misses on one text both get here; the last wins.
            self._texts[key] = translation
            while len(self._texts) > self.plan_cache.capacity:
                self._texts.popitem(last=False)
        return translation

    def _run(
        self,
        sql: Union[str, ast.SelectQuery],
        work_budget: Optional[int],
        deadline_seconds: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> DBMSResult:
        budget = work_budget if work_budget is not None else self.work_budget
        context = self._make_context(deadline_seconds, token)
        started = time.perf_counter()
        try:
            query: Union[str, ast.SelectQuery, TranslationResult] = sql
            if isinstance(sql, str) and self.plan_cache.capacity:
                query = self._translate(sql)
            if context is None:
                result = self.dbms.run_sql(query, work_budget=budget)
            else:
                with resilient(context):
                    result = self.dbms.run_sql(query, work_budget=budget)
        except DeadlineExceeded:
            self.metrics.record_error()
            self.metrics.record_deadline_miss()
            raise
        except QueryCancelled:
            self.metrics.record_error()
            self.metrics.record_cancellation()
            raise
        except MemoryBudgetExceeded:
            self.metrics.record_error()
            self.metrics.record_memory_abort()
            raise
        except ReproError:
            self.metrics.record_error()
            raise
        self.metrics.record_query(
            finished=result.finished,
            work=result.work,
            seconds=time.perf_counter() - started,
        )
        return result

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Full serving snapshot: metrics + plan cache + pool + text memo."""
        data = self.metrics.snapshot(cache=self.plan_cache.snapshot())
        data["pool"] = self.pool.snapshot()
        with self._texts_lock:
            data["texts"] = dict(self._text_counts)
        if self.insights.enabled:
            data["insights"] = self.insights.snapshot()
        return data

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, cancel, bounded wait.

        Cancels every queued-but-not-started query, flips the drain token
        (in-flight queries with an active context abort at their next
        checkpoint with :class:`~repro.errors.QueryCancelled`), and joins
        the workers for at most ``grace_seconds``.

        Returns:
            True when every worker exited within the grace period.
        """
        self._closed = True
        self.drain_token.cancel("service draining")
        drained = self.pool.shutdown(
            wait=True, grace_seconds=grace_seconds, cancel_pending=True
        )
        if self.dbms.optimizer_handler is self._handler:
            self.dbms.set_optimizer_handler(None)
        return drained

    def close(self) -> None:
        """Drain the pool and restore the engine's built-in planner."""
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown(wait=True)
        if self.dbms.optimizer_handler is self._handler:
            self.dbms.set_optimizer_handler(None)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

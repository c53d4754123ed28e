"""Tight coupling with the simulated PostgreSQL engine (Fig. 6).

The paper modifies PostgreSQL's *Optimizer handler* so that control no
longer passes to the built-in exhaustive/GEQO planners: the CQ Isolator and
Statistics Picker run first, then the HDBQO ViewsBuilder turns the
cost-k-decomp output into an executable plan, each subquery of which the
built-in engine executes.

Here the same is achieved through
:meth:`repro.engine.dbms.SimulatedDBMS.set_optimizer_handler`: after
:func:`install_structural_optimizer`, every ``run_sql`` call is planned by
the hybrid optimizer — completely transparently to the caller — with an
optional fallback to the built-in planner when no width-≤k decomposition
covers the output variables.

Two serving-layer amortizations live in the installed handler:

* the **cost model** built by :func:`cost_model_from_database` is cached
  per (statistics version, query text) — repeated runs of the same query
  reuse it instead of re-reading the statistics catalog;
* with a ``plan_cache``, the completed decomposition itself is cached
  under a canonical template fingerprint, so isomorphic repetitions (same
  shape, different constants or aliases) skip the cost-k-decomp search
  entirely.  Failures are cached too: a template known to have no width-≤k
  decomposition goes straight to the built-in fallback.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.analysis.lockwitness import make_lock
from repro.errors import (
    DeadlineExceeded,
    DecompositionNotFound,
    InjectedFault,
    MemoryBudgetExceeded,
    WorkBudgetExceeded,
)
from repro.engine.dbms import OptimizerHandler, SimulatedDBMS
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.obs.insights.registry import NULL_INSIGHTS
from repro.obs.tracing import current_tracer
from repro.query.translate import TranslationResult
from repro.relational.relation import Relation
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.context import current_context
from repro.core.costmodel import DecompositionCostModel
from repro.core.evaluator import QHDEvaluator
from repro.core.memo import NodeMemo
from repro.core.optimizer import cost_model_from_database
from repro.core.pool import SubtreePool
from repro.core.qhd import q_hypertree_decomp

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.obs.insights.registry import InsightsRegistry, NullInsights
    from repro.service.metrics import ServiceMetrics
    from repro.service.plancache import PlanCache

_MODEL_CACHE_LIMIT = 256

#: Planning failures the degradation ladder absorbs.  Anything else (schema
#: errors, query errors, genuine bugs) propagates to the caller untouched.
_LADDER_ERRORS = (
    DecompositionNotFound,
    DeadlineExceeded,
    WorkBudgetExceeded,
    MemoryBudgetExceeded,
    InjectedFault,
)


class _InsightScope:
    """Per-query carrier between the handler body and its insights wrapper.

    The body knows the template key, the degradation step taken, and the
    serving span ids; the wrapper knows the end-to-end latency and the
    final outcome.  One mutable scope hands the former to the latter
    without re-computing the fingerprint.
    """

    __slots__ = ("key", "degraded_to", "span_ids")

    def __init__(self) -> None:
        self.key: Optional[str] = None
        self.degraded_to: Optional[str] = None
        self.span_ids: list = []


def _span_subtree(tracer, root_ids) -> list:
    """Finished-span records under the given serving span ids.

    The slow-query log's evidence capture: the ``serve.plan`` /
    ``serve.execute`` spans of one query plus every descendant
    (``decompose.*``, ``qhd.node``, ``exec.*``).  Runs only on slow-log
    admission — bounded by the log's top-K — never on the hot path.
    """
    roots = {span_id for span_id in root_ids if span_id}
    if not roots:
        return []
    spans = tracer.spans()
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    selected = []
    frontier = [span for span in spans if span.span_id in roots]
    while frontier:
        span = frontier.pop()
        selected.append(span)
        frontier.extend(children.get(span.span_id, ()))
    selected.sort(key=lambda span: span.span_id)
    return [span.to_record() for span in selected]


def install_structural_optimizer(
    dbms: SimulatedDBMS,
    max_width: int = 4,
    fallback_to_builtin: bool = True,
    optimize: bool = True,
    plan_cache: "Optional[PlanCache]" = None,
    metrics: "Optional[ServiceMetrics]" = None,
    breaker: "Optional[CircuitBreaker]" = None,
    parallel_workers: int = 0,
    insights: "Optional[Union[InsightsRegistry, NullInsights]]" = None,
) -> OptimizerHandler:
    """Replace the engine's optimizer handler with the structural pipeline.

    Args:
        dbms: the engine to couple with.
        max_width: the width bound k of cost-k-decomp.
        fallback_to_builtin: when no suitable decomposition exists, hand
            the query back to the built-in quantitative planner instead of
            failing (what a production coupling must do).
        optimize: run Procedure Optimize (disable for the Fig. 10 ablation).
        plan_cache: a :class:`repro.service.plancache.PlanCache`; when set,
            completed decompositions (and known failures) are cached under
            canonical template fingerprints and invalidated by statistics
            version.
        metrics: a :class:`repro.service.metrics.ServiceMetrics` receiving
            one planning event per handled query.
        breaker: a :class:`repro.resilience.breaker.CircuitBreaker` keyed
            by template fingerprint; templates whose planning keeps failing
            skip the cost-k-decomp search (straight to the ladder's
            fallback steps) until the cooldown elapses.
        parallel_workers: ``>= 2`` fans each decomposition's nodes out on
            a shared :class:`~repro.core.pool.SubtreePool` of that many
            workers, with a per-request :class:`~repro.core.memo.NodeMemo`;
            ``0``/``1`` folds them inline.  Rows, row order and work units
            are the same either way.
        insights: a per-template
            :class:`~repro.obs.insights.registry.InsightsRegistry`
            receiving one phase observation per planning/execution step
            (keyed by canonical template fingerprint), SLO outcomes, and
            slow-query captures with the query's span subtree; the
            default :data:`~repro.obs.insights.registry.NULL_INSIGHTS`
            makes every recording call a constant-time no-op with zero
            work-unit cost.

    The installed handler plans through a **degradation ladder**: (1) the
    cost-k-decomp search at ``max_width`` (cache-accelerated); on failure
    — no decomposition, deadline, work/memory budget, injected fault —
    (2) a cached structural plan at a *smaller* width bound (lookup +
    rename only, never a new search); (3) the built-in quantitative
    planner; (4) the original typed error.  Every step taken is recorded
    on the ``serve.plan`` span (``degraded_to``, ``breaker_open`` tags)
    and as a :class:`ServiceMetrics` counter.

    In parallel mode the ladder extends into *execution*: when evaluating
    the chosen decomposition fails with a ladder error, the handler
    retries once with a cached lower-width plan — passing the **same**
    per-request node memo, so every subtree the failed attempt already
    materialized (and the retry's tree shares) is reused instead of
    recomputed.  The memo never outlives the request, so plan-cache
    stats-version invalidation still governs freshness.

    Returns:
        The installed handler (also retained on the DBMS); call
        ``dbms.set_optimizer_handler(None)`` to uninstall and
        ``handler.close()`` to stop its worker pool
        (``parallel_workers >= 2``).
    """
    # Cost models are pure functions of (statistics version, query); cache
    # them so a repeated query re-reads the statistics catalog zero times.
    model_cache: dict = {}
    model_lock = make_lock("integration.model_cache")

    # One shared pool for every request the handler serves;
    # node tasks never wait on other node tasks, so requests interleave
    # on it without deadlock risk.
    pool = SubtreePool(parallel_workers) if parallel_workers >= 2 else None

    def _model_for(
        engine: SimulatedDBMS, translation: TranslationResult, use_stats: bool
    ) -> DecompositionCostModel:
        version = engine.database.stats_version
        key = (
            version,
            use_stats,
            str(translation.query),
            tuple(
                (alias, tuple(str(f) for f in filters))
                for alias, filters in sorted(translation.atom_filters.items())
            ),
        )
        with model_lock:
            model = model_cache.get(key)
            if model is not None:
                return model
        model = cost_model_from_database(translation, engine.database, use_stats)
        with model_lock:
            # A statistics refresh orphans every older-version entry; purge
            # them (and cap growth) instead of letting them accumulate.
            stale = [k for k in model_cache if k[0] != version]
            if stale or len(model_cache) >= _MODEL_CACHE_LIMIT:
                for k in stale or list(model_cache):
                    del model_cache[k]
            model_cache[key] = model
        return model

    def _fingerprint(
        engine: SimulatedDBMS,
        translation: TranslationResult,
        use_stats: bool,
        k: int,
    ):
        """The canonical template fingerprint for a given width bound."""
        from repro.service.fingerprint import fingerprint_translation, schema_digest

        context = (
            f"schema={schema_digest(engine.database)};k={k};"
            f"opt={optimize};stats={use_stats}"
        )
        return fingerprint_translation(translation, context=context)

    def _cached_lower_k(
        engine: SimulatedDBMS, translation: TranslationResult, use_stats: bool
    ):
        """Ladder step 2: a cached decomposition at a smaller width bound.

        Lookup + rename only — never triggers a new search, so this step is
        effectively free.  Returns ``(decomposition, k)`` or ``(None, None)``.
        """
        from repro.service.fingerprint import rename_hypertree

        if plan_cache is None or plan_cache.capacity == 0:
            return None, None
        stats_version = engine.database.stats_version
        for lower in range(max_width - 1, 0, -1):
            fingerprint = _fingerprint(engine, translation, use_stats, lower)
            entry = plan_cache.lookup(fingerprint, stats_version)
            if entry is None or entry.failure:
                continue
            decomposition = rename_hypertree(
                entry.tree,
                fingerprint.inverse_var_map(),
                fingerprint.inverse_atom_map(),
                hypergraph=translation.query.hypergraph(),
            )
            return decomposition, lower
        return None, None

    def _structural_plan(
        engine: SimulatedDBMS, translation: TranslationResult, use_stats: bool
    ):
        """The decomposition for this query: cached, renamed, or fresh.

        Returns ``(decomposition_or_None, cache_hit, plan_units, seconds)``
        where ``None`` means "no width-≤k decomposition exists".
        """
        from repro.service.fingerprint import rename_hypertree

        started = time.perf_counter()
        stats_version = engine.database.stats_version

        def build_fresh(fingerprint=None):
            plan_meter = WorkMeter()
            model = _model_for(engine, translation, use_stats)
            try:
                decomposition = q_hypertree_decomp(
                    translation.query,
                    max_width,
                    cost_model=model,
                    optimize=optimize,
                    meter=plan_meter,
                )
            except DecompositionNotFound:
                if plan_cache is not None and fingerprint is not None:
                    plan_cache.store(fingerprint, None, stats_version)
                raise
            if plan_cache is not None and fingerprint is not None:
                canonical = rename_hypertree(
                    decomposition, fingerprint.var_map, fingerprint.atom_map
                )
                plan_cache.store(fingerprint, canonical, stats_version)
            return (
                decomposition,
                False,
                plan_meter.total,
                time.perf_counter() - started,
            )

        if plan_cache is None or plan_cache.capacity == 0:
            # capacity 0 = caching disabled: skip fingerprinting and
            # single-flight coalescing, plan every query independently.
            return build_fresh()

        fingerprint = _fingerprint(engine, translation, use_stats, max_width)
        current_context().checkpoint("plancache.get")
        entry = plan_cache.lookup(fingerprint, stats_version)
        if entry is None:
            # Single-flight: concurrent misses on one template coalesce —
            # the first holder builds and stores, the rest re-check and hit.
            with plan_cache.build_lock(fingerprint.key):
                entry = plan_cache.lookup(fingerprint, stats_version)
                if entry is None:
                    return build_fresh(fingerprint)
        if entry.failure:
            raise DecompositionNotFound(
                f"cached: no width-≤{max_width} decomposition for "
                "this template",
                width=max_width,
            )
        decomposition = rename_hypertree(
            entry.tree,
            fingerprint.inverse_var_map(),
            fingerprint.inverse_atom_map(),
            hypergraph=translation.query.hypergraph(),
        )
        return decomposition, True, 0, time.perf_counter() - started

    sink = insights if insights is not None else NULL_INSIGHTS

    def _handle(
        engine: SimulatedDBMS,
        translation: TranslationResult,
        meter: WorkMeter,
        scope: Optional[_InsightScope],
    ) -> Tuple[Relation, str, str]:
        tracer = current_tracer()
        use_stats = engine.database.has_statistics()
        decomposition = None
        cache_hit = False
        lower_k = None
        failure: Optional[BaseException] = None
        breaker_key = None
        with tracer.span("serve.plan", query=translation.query.name) as span:
            # Ladder step 1: cost-k-decomp at max_width — unless this
            # template's breaker is open (repeated planning failures).
            skip_search = False
            if breaker is not None or scope is not None:
                breaker_key = _fingerprint(
                    engine, translation, use_stats, max_width
                ).key
                span.tag(template=breaker_key)
                if scope is not None:
                    scope.key = breaker_key
                    scope.span_ids.append(span.span_id)
                if breaker is not None and not breaker.allow(breaker_key):
                    skip_search = True
                    span.tag(breaker_open=True)
                    if metrics is not None:
                        metrics.record_breaker_skip()
                    if scope is not None:
                        sink.record_event(breaker_key, "breaker_open")
            if not skip_search:
                try:
                    decomposition, cache_hit, plan_units, plan_seconds = (
                        _structural_plan(engine, translation, use_stats)
                    )
                except _LADDER_ERRORS as exc:
                    failure = exc
                    span.tag(cache_hit=False, error=type(exc).__name__)
                    if breaker is not None:
                        breaker.record_failure(breaker_key)
                    if scope is not None and breaker_key is not None:
                        sink.record_event(
                            breaker_key, f"plan_error:{type(exc).__name__}"
                        )
                else:
                    span.tag(cache_hit=cache_hit, plan_units=plan_units)
                    if breaker is not None:
                        breaker.record_success(breaker_key)
                    if scope is not None and breaker_key is not None:
                        sink.record_phase(
                            breaker_key, "decompose", plan_seconds, plan_units
                        )
            if decomposition is None:
                # Ladder step 2: a cached plan at a smaller width bound.
                decomposition, lower_k = _cached_lower_k(
                    engine, translation, use_stats
                )
                if decomposition is not None:
                    span.tag(degraded_to=f"lower-k({lower_k})")
                    if scope is not None and breaker_key is not None:
                        scope.degraded_to = f"lower-k({lower_k})"
                        sink.record_event(breaker_key, "degraded:lower-k")
                elif fallback_to_builtin:
                    span.tag(degraded_to="builtin", fallback=True)
                    if scope is not None and breaker_key is not None:
                        scope.degraded_to = "builtin"
                        sink.record_event(breaker_key, "degraded:builtin")

        if decomposition is None:
            # Ladder step 3: the built-in quantitative planner; step 4: the
            # original typed error when fallback is disabled.
            if metrics is not None:
                metrics.record_plan(cache_hit=False, fallback=True)
            if not fallback_to_builtin:
                if failure is not None:
                    raise failure
                raise DecompositionNotFound(
                    "circuit breaker open for this template and no cached "
                    "lower-width plan available",
                    width=max_width,
                )
            answer, plan_text, label = engine.plan_and_join(
                translation, meter, use_stats, optimizer_enabled=True
            )
            return (
                answer,
                f"(builtin fallback: {label})\n{plan_text}",
                "builtin-fallback",
            )
        if metrics is not None:
            if lower_k is not None:
                metrics.record_plan(cache_hit=True)
                metrics.record_degradation("lower-k")
            else:
                metrics.record_plan(
                    cache_hit=cache_hit, units=plan_units, seconds=plan_seconds
                )
        def _evaluate(tree, memo):
            base = atom_relations(
                translation.query, engine.database, translation, meter
            )
            return QHDEvaluator(
                tree,
                translation.query,
                meter,
                spill=engine.spill_model,
                tracer=tracer,
                workers=parallel_workers,
                memo=memo,
                pool=pool,
            ).evaluate(base)

        exec_started = time.perf_counter() if scope is not None else 0.0
        exec_work_start = meter.total if scope is not None else 0
        with tracer.span(
            "serve.execute",
            meter=meter,
            query=translation.query.name,
            cache_hit=cache_hit,
        ) as span:
            if scope is not None and breaker_key is not None:
                span.tag(template=breaker_key)
                scope.span_ids.append(span.span_id)
            memo = NodeMemo() if parallel_workers >= 2 else None
            try:
                answer = _evaluate(decomposition, memo)
            except _LADDER_ERRORS:
                # Execution-level ladder rung (parallel mode only): retry
                # once with a cached lower-width plan, sharing the same
                # per-request memo so subtrees the failed attempt already
                # materialized are reused, not recomputed.
                if memo is None or lower_k is not None:
                    raise
                retry_tree, retry_k = _cached_lower_k(
                    engine, translation, use_stats
                )
                if retry_tree is None:
                    raise
                span.tag(exec_degraded_to=f"lower-k({retry_k})")
                if metrics is not None:
                    metrics.record_degradation("exec-lower-k")
                if scope is not None and breaker_key is not None:
                    scope.degraded_to = f"exec-lower-k({retry_k})"
                    sink.record_event(breaker_key, "degraded:exec-lower-k")
                answer = _evaluate(retry_tree, memo)
                decomposition, lower_k = retry_tree, retry_k
            if memo is not None:
                span.tag(memo_hits=memo.hits)
            span.tag(rows_out=len(answer))
        if scope is not None and breaker_key is not None:
            sink.record_phase(
                breaker_key,
                "execute",
                time.perf_counter() - exec_started,
                meter.total - exec_work_start,
            )
        if lower_k is not None:
            label = f"q-hd(k={lower_k})"
        else:
            label = "q-hd(cached)" if cache_hit else "q-hd"
        return answer, decomposition.render(), label

    def handler(
        engine: SimulatedDBMS, translation: TranslationResult, meter: WorkMeter
    ) -> Tuple[Relation, str, str]:
        if not sink.enabled:
            return _handle(engine, translation, meter, None)
        # Insights wrapper: end-to-end latency, SLO outcome, and (on
        # slow-log admission only) the expensive evidence capture.
        scope = _InsightScope()
        started = time.perf_counter()
        try:
            answer, plan_text, label = _handle(
                engine, translation, meter, scope
            )
        except Exception as exc:
            if scope.key is not None:
                seconds = time.perf_counter() - started
                sink.record_event(scope.key, f"error:{type(exc).__name__}")
                sink.record_outcome(scope.key, seconds, ok=False)
            raise
        seconds = time.perf_counter() - started
        if scope.key is not None:
            sink.record_outcome(scope.key, seconds, ok=True)
            if sink.qualifies_slow(scope.key, seconds):
                tracer = current_tracer()
                sink.record_slow(
                    scope.key,
                    seconds,
                    {
                        "query": translation.query.name,
                        "plan_label": label,
                        "degraded_to": scope.degraded_to,
                        "explain": plan_text,
                        "spans": _span_subtree(tracer, scope.span_ids),
                    },
                )
        return answer, plan_text, label

    dbms.set_optimizer_handler(handler)

    def close() -> None:
        """Stop the handler's worker pool (idempotent; a no-op without one)."""
        if pool is not None:
            pool.close()

    handler.close = close  # type: ignore[attr-defined]
    return handler

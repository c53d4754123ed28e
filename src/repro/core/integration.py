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
from repro.core.optimizer import cost_model_from_database
from repro.core.qhd import q_hypertree_decomp

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.obs.insights.registry import InsightsRegistry, NullInsights
    from repro.service.fingerprint import QueryFingerprint
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


def _span_subtree(tracer, root_id: int) -> list:
    """Finished-span records of one ``serve.query`` span and its subtree.

    The slow-query log's evidence capture: the query span, its
    ``serve.plan`` / ``serve.execute`` children and every descendant
    (``decompose.*``, ``qhd.node``, ``exec.*``).  Runs only on slow-log
    admission — bounded by the log's top-K — never on the hot path.
    """
    if not root_id:
        return []
    spans = tracer.spans()
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    selected = []
    frontier = [span for span in spans if span.span_id == root_id]
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
            fallback steps) until the cooldown elapses.  A search cut
            short by anything but a ladder error (cancellation, a bug)
            records no outcome: a half-open key goes back to waiting for
            its trial.
        insights: a per-template
            :class:`~repro.obs.insights.registry.InsightsRegistry`
            receiving one ``record_query`` per handled query (keyed by
            canonical template fingerprint) and slow-query captures with
            the query's span subtree; the default
            :data:`~repro.obs.insights.registry.NULL_INSIGHTS` makes every
            recording call a constant-time no-op with zero work-unit cost.

    The installed handler obtains the query's **template identity** at
    most once per operation — one canonicalisation (none when the
    translation carries its ``fingerprint``) and one cached schema digest
    when a plan cache (capacity > 0), a breaker or an enabled insights
    sink is configured, none otherwise — and derives the breaker key, the
    ``template=`` span tag, the insights key and the plan-cache key from
    it.

    It plans through one **degradation ladder**: (1) the cost-k-decomp
    search at ``max_width`` (cache-accelerated; skipped while the
    template's breaker is open); on failure — no decomposition, deadline,
    work/memory budget, injected fault — (2) the built-in quantitative
    planner; (3) the original typed error.
    The ladder is a planning ladder only: an error raised while
    *evaluating* the chosen plan reaches the caller as its typed error.
    Every rung taken is recorded on the span that took it
    (``degraded_to``, ``breaker_open`` tags), as a :class:`ServiceMetrics`
    counter and as an event.

    Each handled query is one ``serve.query`` span around ``serve.plan``
    and ``serve.execute`` (which also holds a built-in execution).  The
    query span carries ``template``, ``cache_hit`` (a plan from the cache)
    and ``events``; ``error`` on any span means that span
    raised (an absorbed planning failure is ``plan_error`` on
    ``serve.plan``).  The handler's one ``insights.record_query`` call
    reads those same values, so ``hdqo report`` replaying the spans
    rebuilds the live record.

    Returns:
        The installed handler (also retained on the DBMS); call
        ``dbms.set_optimizer_handler(None)`` to uninstall.
    """
    from repro.service.fingerprint import (
        fingerprint_translation,
        rename_hypertree,
        schema_digest,
    )

    sink = insights if insights is not None else NULL_INSIGHTS
    caching = plan_cache is not None and plan_cache.capacity > 0
    # Whoever keys on the template — plan cache, breaker, insights — makes
    # the handler canonicalise; an install with none of them never does.
    keyed = caching or breaker is not None or sink.enabled

    # Cost models are pure functions of (statistics version, query); cache
    # them so a repeated query re-reads the statistics catalog zero times.
    model_cache: dict = {}
    model_lock = make_lock("integration.model_cache")

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

    def _identity(
        engine: SimulatedDBMS, translation: TranslationResult, use_stats: bool
    ) -> "QueryFingerprint":
        """The operation's template identity, canonicalised once.

        Its ``key`` is the plan-cache key, the breaker key and the
        insights / ``template=`` tag.  A translation that arrives
        canonicalised (from the serving layer's text memo) is not
        canonicalised again.
        """
        canonical = translation.fingerprint
        if canonical is None:
            canonical = fingerprint_translation(translation)
        schema = f"schema={schema_digest(engine.database)}"
        flags = f"opt={optimize};stats={use_stats}"
        return canonical.with_context(f"{schema};k={max_width};{flags}")

    def _search(
        engine: SimulatedDBMS,
        translation: TranslationResult,
        use_stats: bool,
        fingerprint: "Optional[QueryFingerprint]",
    ):
        """Rung 1: the decomposition at ``max_width`` — cached or searched.

        Returns ``(decomposition, cache_hit, plan_units)``; raises
        :class:`DecompositionNotFound` when no width-≤k decomposition
        exists (a failure the cache remembers too).
        """
        stats_version = engine.database.stats_version

        def build():
            plan_meter = WorkMeter()
            decomposition = q_hypertree_decomp(
                translation.query,
                max_width,
                cost_model=_model_for(engine, translation, use_stats),
                optimize=optimize,
                meter=plan_meter,
            )
            return decomposition, False, plan_meter.total

        if not caching:
            # No lookup and no single-flight coalescing: every query is
            # planned independently.
            return build()
        current_context().checkpoint("plancache.get")
        entry = plan_cache.lookup(fingerprint, stats_version)
        if entry is None:
            # Single-flight: concurrent misses on one template coalesce —
            # the first holder builds and stores, the rest re-check and hit.
            with plan_cache.build_lock(fingerprint.key):
                try:
                    entry = plan_cache.lookup(fingerprint, stats_version)
                    if entry is None:
                        try:
                            built = build()
                        except DecompositionNotFound:
                            plan_cache.store(fingerprint, None, stats_version)
                            raise
                        canonical = rename_hypertree(
                            built[0], fingerprint.var_map, fingerprint.atom_map
                        )
                        plan_cache.store(fingerprint, canonical, stats_version)
                        return built
                finally:
                    plan_cache.release_build_lock(fingerprint.key)
        if entry.failure:
            raise DecompositionNotFound(
                f"cached: no width-≤{max_width} decomposition for "
                "this template",
                width=max_width,
            )
        named = rename_hypertree(
            entry.tree,
            fingerprint.inverse_var_map(),
            fingerprint.inverse_atom_map(),
            hypergraph=translation.query.hypergraph(),
        )
        return named, True, 0

    def handler(
        engine: SimulatedDBMS, translation: TranslationResult, meter: WorkMeter
    ) -> Tuple[Relation, str, str]:
        tracer = current_tracer()
        use_stats = engine.database.has_statistics()
        name = translation.query.name
        started = time.perf_counter()
        identity = key = None
        decomposition = failure = error = exec_started = None
        cache_hit = False
        plan_units, plan_seconds, exec_work_start = 0, 0.0, 0
        events: list = []
        with tracer.span("serve.query", query=name) as query_span:
            try:
                with tracer.span("serve.plan", query=name) as span:
                    if keyed:
                        identity = _identity(engine, translation, use_stats)
                        key = identity.key
                        query_span.tag(template=key)
                        span.tag(template=key)
                    # Rung 1: cost-k-decomp at max_width — unless this
                    # template's breaker is open (repeated planning failures).
                    if breaker is not None and not breaker.allow(key):
                        failure = DecompositionNotFound(
                            "circuit breaker open for this template",
                            width=max_width,
                        )
                        span.tag(breaker_open=True)
                        if metrics is not None:
                            metrics.record_breaker_skip()
                        events.append("breaker_open")
                    else:
                        try:
                            decomposition, cache_hit, plan_units = _search(
                                engine, translation, use_stats, identity
                            )
                        except _LADDER_ERRORS as exc:
                            failure = exc
                            span.tag(
                                cache_hit=False, plan_error=type(exc).__name__
                            )
                            events.append(f"plan_error:{type(exc).__name__}")
                        except BaseException:
                            # Cut short, not failed: the template proved
                            # nothing, so a half-open trial is handed back.
                            if breaker is not None:
                                breaker.release(key)
                            raise
                        else:
                            span.tag(cache_hit=cache_hit, plan_units=plan_units)
                        if breaker is not None:
                            if failure is None:
                                breaker.record_success(key)
                            else:
                                breaker.record_failure(key)
                    if decomposition is None and fallback_to_builtin:
                        span.tag(degraded_to="builtin", fallback=True)
                        events.append("degraded:builtin")
                plan_seconds = time.perf_counter() - started
                if metrics is not None:
                    # One planning event per handled query, whichever rung.
                    metrics.record_plan(
                        cache_hit=cache_hit,
                        units=plan_units,
                        seconds=plan_seconds if failure is None else 0.0,
                        fallback=decomposition is None,
                    )
                if decomposition is None and not fallback_to_builtin:
                    raise failure  # rung 3: the original typed error
                exec_started, exec_work_start = time.perf_counter(), meter.total
                with tracer.span(
                    "serve.execute",
                    meter=meter,
                    query=name,
                    cache_hit=cache_hit,
                ) as span:
                    if key is not None:
                        span.tag(template=key)
                    if decomposition is None:
                        # Rung 2: the built-in quantitative planner.
                        answer, plan_text, label = engine.plan_and_join(
                            translation, meter, use_stats, optimizer_enabled=True
                        )
                        plan_text = f"(builtin fallback: {label})\n{plan_text}"
                        label = "builtin-fallback"
                    else:
                        base = atom_relations(
                            translation.query, engine.database, translation, meter
                        )
                        answer = QHDEvaluator(
                            decomposition,
                            translation.query,
                            meter,
                            spill=engine.spill_model,
                            tracer=tracer,
                        ).evaluate(base)
                        plan_text = decomposition.render()
                        label = "q-hd(cached)" if cache_hit else "q-hd"
                    span.tag(rows_out=len(answer))
            except BaseException as exc:  # what Span.__exit__ tags as `error`
                error = type(exc).__name__
                raise
            finally:
                # The one insights record, from the values tagged on the
                # serve.query span and its serve.plan / serve.execute
                # children — what `hdqo report` replays.
                query_span.tag(cache_hit=cache_hit, events=tuple(events))
                if key is not None:
                    executed = exec_started is not None
                    sink.record_query(
                        key,
                        plan_seconds=plan_seconds,
                        plan_units=plan_units,
                        cache_hit=cache_hit,
                        execute_seconds=(
                            time.perf_counter() - exec_started
                            if executed
                            else None
                        ),
                        execute_work=(
                            meter.total - exec_work_start if executed else 0
                        ),
                        events=events,
                        error=error,
                    )
        # On slow-log admission only: the expensive evidence capture.
        seconds = time.perf_counter() - started
        if sink.qualifies_slow(key, seconds):
            sink.record_slow(
                key,
                seconds,
                {
                    "query": name,
                    "plan_label": label,
                    "degraded_to": "builtin" if decomposition is None else None,
                    "explain": plan_text,
                    "spans": _span_subtree(tracer, query_span.span_id),
                },
            )
        return answer, plan_text, label

    dbms.set_optimizer_handler(handler)
    return handler

"""Serving-layer metrics: latency, work units, planning effort, cache hits.

:class:`ServiceMetrics` is a façade over a per-instance
:class:`repro.obs.metrics.MetricsRegistry` — each counter/histogram is a
registered instrument (``service_*`` names), so the same numbers are
available three ways:

* :meth:`ServiceMetrics.snapshot` — the stable nested dict the CLI
  (``hdqo serve`` / ``bench-serve``), :mod:`repro.bench.serving` and the
  tests consume (unchanged shape);
* ``render_prometheus(ServiceMetrics().registry.export())`` —
  Prometheus-flavoured exposition (:mod:`repro.obs.metrics`);
* ``ServiceMetrics().registry`` — direct instrument access for anything
  else.

The registry is per-instance (not the process-global one) so concurrent
services — and tests — never share counters.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.analysis.lockwitness import make_lock
from repro.obs.histogram import is_snapshot, summarised, summary
from repro.obs.metrics import MetricsRegistry


class ServiceMetrics:
    """Thread-safe counters for a :class:`~repro.service.server.QueryService`.

    Three families:

    * **queries** — completed / did-not-finish / errored / rejected, with a
      wall-clock latency summary and total work units executed;
    * **planning** — structural plans built fresh vs served from the plan
      cache vs degraded to the built-in planner, with the deterministic
      ``"plan"`` work-unit effort and planning wall time;
    * **cache** — merged in from :meth:`PlanCache.snapshot` by the service.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        # One outer lock keeps multi-instrument updates (and snapshots)
        # mutually consistent; the instruments' own locks make each safe
        # for direct use too.
        self._lock = make_lock("ServiceMetrics._lock")
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._queries = reg.counter(
            "service_queries_submitted_total", help="Queries accepted"
        )
        self._finished = reg.counter(
            "service_queries_finished_total", help="Queries that completed"
        )
        self._dnf = reg.counter(
            "service_queries_dnf_total", help="Queries that exhausted the budget"
        )
        self._errors = reg.counter(
            "service_queries_errors_total", help="Queries that raised"
        )
        self._rejected = reg.counter(
            "service_queries_rejected_total", help="Queries rejected at admission"
        )
        self._work_units = reg.counter(
            "service_work_units_total", help="Execution work units charged"
        )
        self._latency = reg.histogram(
            "service_latency_seconds", help="Per-query wall-clock latency"
        )
        self._plans_built = reg.counter(
            "service_plans_built_total", help="Decompositions built fresh"
        )
        self._plans_cached = reg.counter(
            "service_plans_cached_total", help="Decompositions served from cache"
        )
        self._plan_fallbacks = reg.counter(
            "service_plan_fallbacks_total", help="Queries degraded to builtin"
        )
        self._planning_units = reg.counter(
            "service_planning_work_units_total",
            help='Deterministic "plan" work units spent searching',
        )
        self._planning_seconds = reg.counter(
            "service_planning_seconds_total", help="Wall-clock planning time"
        )
        self._degraded_lower_k = reg.counter(
            "service_degraded_lower_k_total",
            help="Queries served from a cached lower-width plan",
        )
        self._breaker_skips = reg.counter(
            "service_breaker_skips_total",
            help="Planning attempts skipped by an open circuit breaker",
        )
        self._deadline_misses = reg.counter(
            "service_deadline_misses_total",
            help="Queries aborted by an expired deadline",
        )
        self._cancellations = reg.counter(
            "service_cancellations_total", help="Queries aborted by cancellation"
        )
        self._memory_aborts = reg.counter(
            "service_memory_aborts_total",
            help="Queries aborted by the memory budget",
        )

    # -- the counters callers read directly --------------------------------

    @property
    def queries(self) -> int:
        return self._queries.value

    @property
    def rejected(self) -> int:
        return self._rejected.value

    @property
    def plans_built(self) -> int:
        return self._plans_built.value

    @property
    def plans_cached(self) -> int:
        return self._plans_cached.value

    @property
    def planning_units(self) -> int:
        return self._planning_units.value

    # ------------------------------------------------------------------

    def record_query(
        self, *, finished: bool, work: int, seconds: float
    ) -> None:
        with self._lock:
            self._queries.inc()
            if finished:
                self._finished.inc()
            else:
                self._dnf.inc()
            self._work_units.inc(work)
            self._latency.observe(seconds)

    def record_error(self) -> None:
        with self._lock:
            self._queries.inc()
            self._errors.inc()

    def record_rejection(self) -> None:
        with self._lock:
            self._rejected.inc()

    def record_plan(
        self,
        *,
        cache_hit: bool,
        units: int = 0,
        seconds: float = 0.0,
        fallback: bool = False,
    ) -> None:
        """One planning event from the structural optimizer handler.

        Args:
            cache_hit: the decomposition came from the plan cache.
            units: deterministic ``"plan"`` work units spent by the
                cost-k-decomp search (0 on a hit).
            seconds: wall-clock planning time (fingerprint + search/rename).
            fallback: the query degraded to the built-in planner.
        """
        with self._lock:
            if cache_hit:
                self._plans_cached.inc()
            else:
                self._plans_built.inc()
            if fallback:
                self._plan_fallbacks.inc()
            self._planning_units.inc(units)
            self._planning_seconds.inc(seconds)

    def record_degradation(self, step: str) -> None:
        """One degradation-ladder step taken.

        ``"lower-k"`` counts a query served from a cached plan at a smaller
        width bound; any other step name counts a builtin fallback (the
        ladder's last resort, shared with :meth:`record_plan`'s
        ``fallback``).
        """
        with self._lock:
            if step == "lower-k":
                self._degraded_lower_k.inc()
            else:
                self._plan_fallbacks.inc()

    def record_breaker_skip(self) -> None:
        with self._lock:
            self._breaker_skips.inc()

    def record_deadline_miss(self) -> None:
        with self._lock:
            self._deadline_misses.inc()

    def record_cancellation(self) -> None:
        with self._lock:
            self._cancellations.inc()

    def record_memory_abort(self) -> None:
        with self._lock:
            self._memory_aborts.inc()

    # ------------------------------------------------------------------

    def snapshot(
        self, cache: Optional[Dict[str, float]] = None
    ) -> Dict[str, object]:
        """A nested dict of every counter; pass the plan cache's snapshot
        to merge it under the ``"cache"`` key."""
        with self._lock:
            data: Dict[str, object] = {
                "queries": {
                    "submitted": self._queries.snapshot(),
                    "finished": self._finished.snapshot(),
                    "dnf": self._dnf.snapshot(),
                    "errors": self._errors.snapshot(),
                    "rejected": self._rejected.snapshot(),
                    "work_units": self._work_units.snapshot(),
                },
                "latency_seconds": summarised(self._latency.snapshot()),
                "planning": {
                    "built": self._plans_built.snapshot(),
                    "cache_hits": self._plans_cached.snapshot(),
                    "fallbacks": self._plan_fallbacks.snapshot(),
                    "work_units": self._planning_units.snapshot(),
                    "seconds": round(float(self._planning_seconds.value), 6),
                },
                "resilience": {
                    "deadline_misses": self._deadline_misses.snapshot(),
                    "cancellations": self._cancellations.snapshot(),
                    "memory_aborts": self._memory_aborts.snapshot(),
                    "degraded_lower_k": self._degraded_lower_k.snapshot(),
                    "breaker_skips": self._breaker_skips.snapshot(),
                },
            }
        if cache is not None:
            data["cache"] = cache
        return data


class SupervisorMetrics:
    """Cluster self-healing counters for a supervised shard router.

    Registry-backed like :class:`ServiceMetrics` (``shard_*`` instrument
    names), including a ``shard_recovery_seconds`` histogram of shard
    recovery times — the down-to-serving interval per restart — so
    availability reports can quote exact recovery percentiles even after
    cross-run merging.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = make_lock("SupervisorMetrics._lock")
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._worker_deaths = reg.counter(
            "shard_worker_deaths_total",
            help="Worker processes observed dead by the router",
        )
        self._restarts = reg.counter(
            "shard_worker_restarts_total",
            help="Worker processes respawned by the supervisor",
        )
        self._breaker_opens = reg.counter(
            "shard_breaker_opens_total",
            help="Shard restart budgets exhausted (breaker opened)",
        )
        self._failovers = reg.counter(
            "shard_failovers_total",
            help="In-flight queries re-dispatched to a failover shard",
        )
        self._unavailable = reg.counter(
            "shard_unavailable_total",
            help="Queries failed with ShardUnavailable (budgets exhausted)",
        )
        self._ring_epochs = reg.counter(
            "shard_ring_epochs_total",
            help="Ring epoch bumps (route-LRU invalidations)",
        )
        self._recovery = reg.histogram(
            "shard_recovery_seconds",
            help="Down-to-serving interval per shard restart",
        )

    @property
    def worker_deaths(self) -> int:
        return self._worker_deaths.value

    @property
    def restarts(self) -> int:
        return self._restarts.value

    @property
    def breaker_opens(self) -> int:
        return self._breaker_opens.value

    def record_worker_death(self) -> None:
        with self._lock:
            self._worker_deaths.inc()

    def record_restart(self) -> None:
        with self._lock:
            self._restarts.inc()

    def record_breaker_open(self) -> None:
        with self._lock:
            self._breaker_opens.inc()

    def record_failover(self) -> None:
        with self._lock:
            self._failovers.inc()

    def record_unavailable(self) -> None:
        with self._lock:
            self._unavailable.inc()

    def record_ring_epoch(self) -> None:
        with self._lock:
            self._ring_epochs.inc()

    def observe_recovery(self, seconds: float) -> None:
        with self._lock:
            self._recovery.observe(seconds)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "worker_deaths": self._worker_deaths.snapshot(),
                "restarts": self._restarts.snapshot(),
                "breaker_opens": self._breaker_opens.snapshot(),
                "failovers": self._failovers.snapshot(),
                "unavailable": self._unavailable.snapshot(),
                "ring_epochs": self._ring_epochs.snapshot(),
                "recovery_seconds": summarised(self._recovery.snapshot()),
            }


def plan_hit_rate(planning: Mapping[str, Any]) -> Optional[float]:
    """Plan-cache hit rate per *query* from a snapshot's ``planning``
    section (None before the first plan).

    ``cache_hits / (cache_hits + built)`` — not the cache's raw lookup
    stats: single-flight builds re-check the cache under the build lock,
    so lookup-level misses double-count every build (plus one more per
    thread that lost the race), which would make the rate depend on
    scheduling.  The planning counters count each served query exactly
    once.
    """
    hits = planning.get("cache_hits", 0)
    plans = hits + planning.get("built", 0)
    return hits / plans if plans else None


def render_snapshot(snapshot: Dict[str, object], indent: str = "") -> str:
    """Human-readable multi-line rendering of a metrics snapshot.

    A histogram prints as its summary lines (count, total, mean, extrema,
    quantiles), never as its bucket table: the wire snapshot under
    ``"hdr"`` is skipped, a bare one is summarised.
    """
    lines = []
    for key, value in snapshot.items():
        if key == "hdr" and is_snapshot(value):
            continue
        if is_snapshot(value):
            value = summary(value)
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_snapshot(value, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)

"""Serving-layer metrics: latency, work units, planning effort, cache hits.

:class:`ServiceMetrics` keeps plain counters and one latency
:class:`~repro.obs.histogram.Histogram` under one lock; its
:meth:`~ServiceMetrics.snapshot` (completed by
:meth:`QueryService.snapshot` with the plan cache, pool and text-memo
sections) is the one metrics record.  The CLI (``hdqo serve`` /
``top``), the ``perf/`` benchmark and the tests read it; shard workers
ship it and the router merges it
(:func:`repro.shard.aggregate.merge_metric_snapshots`);
:func:`repro.obs.metrics.render_prometheus` renders it for scraping.
:class:`SupervisorMetrics` is the same for a supervised cluster.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.analysis.lockwitness import make_lock
from repro.obs.histogram import Histogram, is_snapshot, summarised, summary


class ServiceMetrics:
    """Thread-safe counters for a :class:`~repro.service.server.QueryService`.

    Three families:

    * **queries** — completed / did-not-finish / errored / rejected, with a
      wall-clock latency summary and total work units executed;
    * **planning** — structural plans built fresh vs served from the plan
      cache vs degraded to the built-in planner, with the deterministic
      ``"plan"`` work-unit effort and planning wall time;
    * **resilience** — deadline misses, cancellations, memory aborts,
      and circuit-breaker skips.
    """

    def __init__(self) -> None:
        self._lock = make_lock("ServiceMetrics._lock")
        self._latency = Histogram()
        self._queries = self._finished = self._dnf = self._errors = 0
        self._rejected = self._work_units = 0
        self._plans_built = self._plans_cached = self._plan_fallbacks = 0
        self._planning_units = 0
        self._planning_seconds = 0.0
        self._deadline_misses = self._cancellations = self._memory_aborts = 0
        self._breaker_skips = 0

    # -- the counters callers read directly --------------------------------

    @property
    def queries(self) -> int:
        with self._lock:
            return self._queries

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def plans_built(self) -> int:
        with self._lock:
            return self._plans_built

    @property
    def plans_cached(self) -> int:
        with self._lock:
            return self._plans_cached

    @property
    def planning_units(self) -> int:
        with self._lock:
            return self._planning_units

    # ------------------------------------------------------------------

    def record_query(
        self, *, finished: bool, work: int, seconds: float
    ) -> None:
        with self._lock:
            self._queries += 1
            if finished:
                self._finished += 1
            else:
                self._dnf += 1
            self._work_units += work
            self._latency.observe(seconds)

    def record_error(self) -> None:
        with self._lock:
            self._queries += 1
            self._errors += 1

    def record_rejection(self) -> None:
        with self._lock:
            self._rejected += 1

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
                self._plans_cached += 1
            else:
                self._plans_built += 1
            if fallback:
                self._plan_fallbacks += 1
            self._planning_units += units
            self._planning_seconds += seconds

    def record_breaker_skip(self) -> None:
        with self._lock:
            self._breaker_skips += 1

    def record_deadline_miss(self) -> None:
        with self._lock:
            self._deadline_misses += 1

    def record_cancellation(self) -> None:
        with self._lock:
            self._cancellations += 1

    def record_memory_abort(self) -> None:
        with self._lock:
            self._memory_aborts += 1

    # ------------------------------------------------------------------

    def snapshot(
        self, cache: Optional[Dict[str, float]] = None
    ) -> Dict[str, object]:
        """A nested dict of every counter; pass the plan cache's snapshot
        to merge it under the ``"cache"`` key."""
        with self._lock:
            data: Dict[str, object] = {
                "queries": {
                    "submitted": self._queries,
                    "finished": self._finished,
                    "dnf": self._dnf,
                    "errors": self._errors,
                    "rejected": self._rejected,
                    "work_units": self._work_units,
                },
                "latency_seconds": summarised(self._latency.snapshot()),
                "planning": {
                    "built": self._plans_built,
                    "cache_hits": self._plans_cached,
                    "fallbacks": self._plan_fallbacks,
                    "work_units": self._planning_units,
                    "seconds": round(self._planning_seconds, 6),
                },
                "resilience": {
                    "deadline_misses": self._deadline_misses,
                    "cancellations": self._cancellations,
                    "memory_aborts": self._memory_aborts,
                    "breaker_skips": self._breaker_skips,
                },
            }
        if cache is not None:
            data["cache"] = cache
        return data


class SupervisorMetrics:
    """Cluster self-healing counters for a supervised shard router.

    Plain counters under one lock like :class:`ServiceMetrics`, plus a
    ``recovery_seconds`` histogram of shard recovery times — the
    down-to-serving interval per restart — so availability reports can
    quote exact recovery percentiles even after cross-run merging.
    """

    def __init__(self) -> None:
        self._lock = make_lock("SupervisorMetrics._lock")
        self._recovery = Histogram()
        self._worker_deaths = self._restarts = self._breaker_opens = 0
        self._failovers = self._unavailable = self._ring_epochs = 0

    @property
    def worker_deaths(self) -> int:
        with self._lock:
            return self._worker_deaths

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    @property
    def breaker_opens(self) -> int:
        with self._lock:
            return self._breaker_opens

    def record_worker_death(self) -> None:
        with self._lock:
            self._worker_deaths += 1

    def record_restart(self) -> None:
        with self._lock:
            self._restarts += 1

    def record_breaker_open(self) -> None:
        with self._lock:
            self._breaker_opens += 1

    def record_failover(self) -> None:
        with self._lock:
            self._failovers += 1

    def record_unavailable(self) -> None:
        with self._lock:
            self._unavailable += 1

    def record_ring_epoch(self) -> None:
        with self._lock:
            self._ring_epochs += 1

    def observe_recovery(self, seconds: float) -> None:
        with self._lock:
            self._recovery.observe(seconds)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "worker_deaths": self._worker_deaths,
                "restarts": self._restarts,
                "breaker_opens": self._breaker_opens,
                "failovers": self._failovers,
                "unavailable": self._unavailable,
                "ring_epochs": self._ring_epochs,
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

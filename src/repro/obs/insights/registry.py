"""The per-template insights registry: one record per template, one rule.

One :class:`InsightsRegistry` per serving process collects, keyed by the
**canonical template fingerprint** (the plan-cache/routing key, so every
insight lines up with cache and shard behaviour):

* per-template ``queries`` / ``errors`` / ``cache_hits`` counters and
  degradation-event counts;
* a latency :class:`~repro.obs.histogram.Histogram` and a work-unit
  histogram per (template, phase) — phases :data:`PHASES` — fixed
  memory, exactly mergeable across shards;
* the bounded :class:`~repro.obs.insights.slowlog.SlowQueryLog`.

A handled query enters the registry through exactly one call,
:meth:`InsightsRegistry.record_query`.  Its two feeders are the live
optimizer handler (``repro.core.integration``), once per query, and the
offline ``hdqo report`` replay
(:func:`~repro.obs.insights.report.analyze_spans`), once per
``serve.query`` span record — so the live and replayed records agree by
construction.

**Zero cost when disabled** (the PR 2 contract): the process default is
:data:`NULL_INSIGHTS`, whose every method is a constant no-op — no
allocation, no locking, no clock reads, and never a work-unit charge
(the registry never touches a :class:`~repro.metering.WorkMeter` at
all).

Snapshots are plain nested dicts of primitives — pickle-safe — merged
across shard processes by :func:`merge_insights_snapshots`, which is
exact for histograms and counters (sums) and re-ranks the slow log.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.lockwitness import make_lock
from repro.obs.histogram import (
    LATENCY_RANGE,
    WORK_RANGE,
    Histogram,
    merge_snapshots,
    quantile_from_snapshot,
)
from repro.obs.insights.slowlog import Entry, SlowQueryLog, merge_slow_entries

__all__ = [
    "InsightsRegistry",
    "NullInsights",
    "NULL_INSIGHTS",
    "PHASES",
    "merge_insights_snapshots",
    "render_insights_prometheus",
]

#: The phases of a handled query.  Procedure Optimize runs inside
#: ``decompose`` and charges no units of its own.
PHASES: Tuple[str, ...] = ("decompose", "execute")

#: Bound on distinct templates tracked; beyond it, new templates fold
#: into one overflow key so memory stays fixed under template churn.
_MAX_TEMPLATES = 512

_OVERFLOW_KEY = "(overflow)"


class _TemplateState:
    """Everything tracked for one template (created lazily)."""

    def __init__(self) -> None:
        #: phase -> (latency histogram, work histogram)
        self.phases: Dict[str, Tuple[Histogram, Histogram]] = {}
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.events: Dict[str, int] = {}

    def phase(self, name: str) -> Tuple[Histogram, Histogram]:
        """The phase's histogram pair (caller holds the registry lock)."""
        pair = self.phases.get(name)
        if pair is None:
            pair = self.phases[name] = (
                Histogram(index_range=LATENCY_RANGE),
                Histogram(index_range=WORK_RANGE),
            )
        return pair


class InsightsRegistry:
    """Per-template streaming telemetry for one serving process.

    Args:
        slow_k: slowest queries retained per template.
        max_events: error/degradation events retained.
        max_templates: distinct templates tracked before folding into
            an overflow bucket.
    """

    enabled = True

    def __init__(
        self,
        slow_k: int = 8,
        max_events: int = 256,
        max_templates: int = _MAX_TEMPLATES,
    ) -> None:
        self.slow_k = slow_k
        self.max_templates = max_templates
        self.slow_log = SlowQueryLog(top_k=slow_k, max_events=max_events)
        self._lock = make_lock("InsightsRegistry._lock")
        self._templates: Dict[str, _TemplateState] = {}

    # -- recording -------------------------------------------------------

    def record_query(
        self,
        template: str,
        *,
        plan_seconds: float,
        plan_units: int,
        cache_hit: bool,
        execute_seconds: Optional[float],
        execute_work: int,
        events: Sequence[str],
        error: Optional[str],
    ) -> None:
        """One handled query — the only way a query enters the registry.

        The rule: ``queries`` +1; ``errors`` +1 when the query raised
        (``error`` names the exception class and adds an
        ``error:<Name>`` event); ``cache_hits`` +1 when the plan came from
        the cache; each event counted and pushed to the
        slow-log ring; the ``decompose`` phase observed always, the
        ``execute`` phase whenever the query executed
        (``execute_seconds`` is not None), by q-HD or the built-in
        planner.
        """
        if error is not None:
            events = [*events, f"error:{error}"]
        with self._lock:
            template = self._fold_locked(template)
            state = self._templates.get(template)
            if state is None:
                state = self._templates[template] = _TemplateState()
            state.queries += 1
            state.errors += error is not None
            state.cache_hits += cache_hit
            for kind in events:
                state.events[kind] = state.events.get(kind, 0) + 1
            observations = [(state.phase("decompose"), plan_seconds, plan_units)]
            if execute_seconds is not None:
                observations.append(
                    (state.phase("execute"), execute_seconds, execute_work)
                )
        for (latency, work), seconds, units in observations:
            latency.observe(seconds)
            work.observe(units)
        for kind in events:
            self.slow_log.record_event(template, kind)

    def qualifies_slow(self, template: str, seconds: float) -> bool:
        """Cheap pre-check before building an expensive slow capture."""
        with self._lock:
            template = self._fold_locked(template)
        return self.slow_log.qualifies(template, seconds)

    def record_slow(
        self, template: str, seconds: float, payload: Entry
    ) -> bool:
        """Offer a fully-built capture to the template's top-K."""
        with self._lock:
            template = self._fold_locked(template)
        return self.slow_log.offer(template, seconds, lambda: payload)

    def _fold_locked(self, template: str) -> str:
        """The key ``template`` is recorded under — itself while tracked or
        while there is room, the overflow key beyond ``max_templates``
        (caller holds the lock).  Queries, events and slow captures all
        fold by this one rule."""
        if template in self._templates:
            return template
        if len(self._templates) < self.max_templates:
            return template
        return _OVERFLOW_KEY

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The full registry as a picklable nested dict.

        ``{"slow_k", "templates": {key: {"queries", "errors",
        "cache_hits", "events", "phases": {phase: {"latency", "work"}}}},
        "slow_log"}``
        """
        with self._lock:
            items = [
                (template, state.queries, state.errors, state.cache_hits,
                 dict(state.events), sorted(state.phases.items()))
                for template, state in sorted(self._templates.items())
            ]
        return {
            "slow_k": self.slow_k,
            "templates": {
                template: {
                    "queries": queries,
                    "errors": errors,
                    "cache_hits": cache_hits,
                    "events": events,
                    "phases": {
                        phase: {
                            "latency": latency.snapshot(),
                            "work": work.snapshot(),
                        }
                        for phase, (latency, work) in phases
                    },
                }
                for template, queries, errors, cache_hits, events, phases in items
            },
            "slow_log": self.slow_log.snapshot(),
        }


class NullInsights:
    """The disabled registry: every call is a constant-time no-op."""

    enabled = False

    def record_query(
        self,
        template: str,
        *,
        plan_seconds: float,
        plan_units: int,
        cache_hit: bool,
        execute_seconds: Optional[float],
        execute_work: int,
        events: Sequence[str],
        error: Optional[str],
    ) -> None:
        return None

    def qualifies_slow(self, template: str, seconds: float) -> bool:
        return False

    def record_slow(
        self, template: str, seconds: float, payload: Entry
    ) -> bool:
        return False

    def snapshot(self) -> Dict[str, object]:
        return {}


NULL_INSIGHTS = NullInsights()
"""Shared disabled registry — pass where insights are off."""


# ---------------------------------------------------------------------------
# Cross-shard merging
# ---------------------------------------------------------------------------


def merge_insights_snapshots(
    snapshots: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """One cluster insights snapshot from N per-shard snapshots.

    Histogram buckets and counters add **exactly** (each template lives
    on one shard under fingerprint routing, so this is usually a
    disjoint union — but overlapping keys merge correctly too, which is
    what makes the operation associative and commutative).  Slow-log
    outliers re-rank to the global top-K.
    """
    present = [s for s in snapshots if s]
    if not present:
        return {}
    slow_k = 8
    for snap in present:
        k = snap.get("slow_k")
        if isinstance(k, int):
            slow_k = k
            break
    template_keys: List[str] = []
    for snap in present:
        templates = snap.get("templates")
        if isinstance(templates, Mapping):
            for key in templates:
                if key not in template_keys:
                    template_keys.append(str(key))
    merged_templates: Dict[str, object] = {}
    for key in sorted(template_keys):
        sources = [
            t[key]
            for snap in present
            if isinstance(t := snap.get("templates"), Mapping) and key in t
        ]
        merged_templates[key] = _merge_template(
            [s for s in sources if isinstance(s, Mapping)]
        )
    return {
        "slow_k": slow_k,
        "templates": merged_templates,
        "slow_log": _merge_slow_logs(present, slow_k),
    }


def _merge_template(sources: List[Mapping[str, object]]) -> Dict[str, object]:
    events: Dict[str, int] = {}
    for source in sources:
        source_events = source.get("events")
        if isinstance(source_events, Mapping):
            for kind, n in source_events.items():
                if isinstance(n, int):
                    events[str(kind)] = events.get(str(kind), 0) + n
    phase_keys: List[str] = []
    for source in sources:
        phases = source.get("phases")
        if isinstance(phases, Mapping):
            for phase in phases:
                if phase not in phase_keys:
                    phase_keys.append(str(phase))
    merged_phases: Dict[str, object] = {}
    for phase in sorted(phase_keys):
        latency_snaps: List[Mapping[str, object]] = []
        work_snaps: List[Mapping[str, object]] = []
        for source in sources:
            phases = source.get("phases")
            if not isinstance(phases, Mapping) or phase not in phases:
                continue
            entry = phases[phase]
            if not isinstance(entry, Mapping):
                continue
            latency = entry.get("latency")
            work = entry.get("work")
            if isinstance(latency, Mapping) and latency:
                latency_snaps.append(latency)
            if isinstance(work, Mapping) and work:
                work_snaps.append(work)
        merged_phases[phase] = {
            "latency": merge_snapshots(latency_snaps),
            "work": merge_snapshots(work_snaps),
        }
    merged: Dict[str, object] = {
        counter: sum(_int(source.get(counter)) for source in sources)
        for counter in ("queries", "errors", "cache_hits")
    }
    merged["events"] = {kind: events[kind] for kind in sorted(events)}
    merged["phases"] = merged_phases
    return merged


def _merge_slow_logs(
    snapshots: Sequence[Mapping[str, object]], slow_k: int
) -> Dict[str, object]:
    per_template: Dict[str, List[List[Entry]]] = {}
    events: List[Entry] = []
    for snap in snapshots:
        log = snap.get("slow_log")
        if not isinstance(log, Mapping):
            continue
        outliers = log.get("outliers")
        if isinstance(outliers, Mapping):
            for template, entries in outliers.items():
                if isinstance(entries, list):
                    per_template.setdefault(str(template), []).append(
                        [dict(e) for e in entries if isinstance(e, Mapping)]
                    )
        log_events = log.get("events")
        if isinstance(log_events, list):
            events.extend(
                dict(e) for e in log_events if isinstance(e, Mapping)
            )
    return {
        "outliers": {
            template: merge_slow_entries(per_template[template], slow_k)
            for template in sorted(per_template)
        },
        "events": events,
    }


def _int(value: object) -> int:
    return value if isinstance(value, int) else 0


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def render_insights_prometheus(snapshot: Mapping[str, object]) -> str:
    """Labelled Prometheus lines for a (merged) insights snapshot.

    Per template: query/error totals and per-phase p50/p99 latency
    gauges.
    """
    lines: List[str] = [
        "# HELP hdqo_template_queries_total Queries observed per template",
        "# TYPE hdqo_template_queries_total counter",
        "# HELP hdqo_template_errors_total Typed errors per template",
        "# TYPE hdqo_template_errors_total counter",
        "# HELP hdqo_phase_latency_seconds Phase latency quantiles",
        "# TYPE hdqo_phase_latency_seconds gauge",
    ]
    templates = snapshot.get("templates")
    if not isinstance(templates, Mapping):
        return "\n".join(lines)
    for template in sorted(str(key) for key in templates):
        entry = templates[template]
        if not isinstance(entry, Mapping):
            continue
        label = template.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'hdqo_template_queries_total{{template="{label}"}} '
            f"{_int(entry.get('queries'))}"
        )
        lines.append(
            f'hdqo_template_errors_total{{template="{label}"}} '
            f"{_int(entry.get('errors'))}"
        )
        phases = entry.get("phases")
        if isinstance(phases, Mapping):
            for phase in sorted(str(p) for p in phases):
                data = phases[phase]
                if not isinstance(data, Mapping):
                    continue
                latency = data.get("latency")
                if not isinstance(latency, Mapping) or not latency:
                    continue
                for q_name, q in (("p50", 0.50), ("p99", 0.99)):
                    lines.append(
                        f'hdqo_phase_latency_seconds{{template="{label}",'
                        f'phase="{phase}",quantile="{q_name}"}} '
                        f"{quantile_from_snapshot(latency, q)}"
                    )
    return "\n".join(lines)

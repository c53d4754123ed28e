"""The per-template insights registry: histograms + slow log + SLO.

One :class:`InsightsRegistry` per serving process collects, keyed by the
**canonical template fingerprint** (the plan-cache/routing key, so every
insight lines up with cache and shard behaviour) and by **phase**
(``decompose`` / ``optimize`` / ``execute``):

* a latency :class:`~repro.obs.histogram.Histogram` and a work-unit
  histogram per (template, phase) — fixed memory, exactly mergeable
  across shards;
* per-template query/error counters and degradation-event counts;
* the bounded :class:`~repro.obs.insights.slowlog.SlowQueryLog`;
* a per-template :class:`~repro.obs.insights.slo.SLOTracker` with
  fast/slow burn-rate windows.

**Zero cost when disabled** (the PR 2 contract): the process default is
:data:`NULL_INSIGHTS`, whose every method is a constant no-op — no
allocation, no locking, no clock reads, and never a work-unit charge
(the registry never touches a :class:`~repro.metering.WorkMeter` at
all).  Instrumented code holds one reference and branches on
``insights.enabled`` exactly once per call site.

Snapshots are plain nested dicts of primitives — pickle-safe — merged
across shard processes by :func:`merge_insights_snapshots`, which is
exact for histograms and counters (sums), re-ranks the slow log, and is
conservative (worst-shard) for windowed burn rates.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.lockwitness import make_lock
from repro.obs.histogram import (
    LATENCY_RANGE,
    WORK_RANGE,
    Histogram,
    merge_snapshots,
    quantile_from_snapshot,
)
from repro.obs.insights.slo import (
    DEFAULT_SLO,
    Clock,
    SLOPolicy,
    SLOTracker,
    merge_slo_snapshots,
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

#: The canonical phase keys (free-form keys are accepted too).
PHASES: Tuple[str, ...] = ("decompose", "optimize", "execute")

#: Bound on distinct templates tracked; beyond it, new templates fold
#: into one overflow key so memory stays fixed under template churn.
_MAX_TEMPLATES = 512

_OVERFLOW_KEY = "(overflow)"


class _TemplateState:
    """Everything tracked for one template (created lazily)."""

    def __init__(self, policy: SLOPolicy, clock: Clock) -> None:
        self.phase_latency: Dict[str, Histogram] = {}
        self.phase_work: Dict[str, Histogram] = {}
        self.queries = 0
        self.errors = 0
        self.events: Dict[str, int] = {}
        self.slo = SLOTracker(policy, clock=clock)


class InsightsRegistry:
    """Per-template streaming telemetry for one serving process.

    Args:
        slow_k: slowest queries retained per template.
        max_events: error/degradation events retained.
        slo: the SLO policy applied to every template.
        clock: monotonic clock injected into the SLO windows (tests
            pass a fake; production uses :func:`time.monotonic`).
        max_templates: distinct templates tracked before folding into
            an overflow bucket.
    """

    enabled = True

    def __init__(
        self,
        slow_k: int = 8,
        max_events: int = 256,
        slo: SLOPolicy = DEFAULT_SLO,
        clock: Clock = time.monotonic,
        max_templates: int = _MAX_TEMPLATES,
    ) -> None:
        self.slow_k = slow_k
        self.slo_policy = slo
        self._clock = clock
        self.max_templates = max_templates
        self.slow_log = SlowQueryLog(top_k=slow_k, max_events=max_events)
        self._lock = make_lock("InsightsRegistry._lock")
        self._templates: Dict[str, _TemplateState] = {}

    # -- template bookkeeping -------------------------------------------

    def _state(self, template: str) -> _TemplateState:
        """The template's state (caller holds no lock; we take it)."""
        with self._lock:
            state = self._templates.get(template)
            if state is None:
                if (
                    len(self._templates) >= self.max_templates
                    and template != _OVERFLOW_KEY
                ):
                    return self._state_overflow_locked()
                state = _TemplateState(self.slo_policy, self._clock)
                self._templates[template] = state
            return state

    def _state_overflow_locked(self) -> _TemplateState:
        state = self._templates.get(_OVERFLOW_KEY)
        if state is None:
            state = _TemplateState(self.slo_policy, self._clock)
            self._templates[_OVERFLOW_KEY] = state
        return state

    # -- recording -------------------------------------------------------

    def record_phase(
        self, template: str, phase: str, seconds: float, work: int = 0
    ) -> None:
        """One phase observation: wall-clock seconds + work units."""
        state = self._state(template)
        with self._lock:
            latency = state.phase_latency.get(phase)
            if latency is None:
                latency = Histogram(index_range=LATENCY_RANGE)
                state.phase_latency[phase] = latency
            work_hist = state.phase_work.get(phase)
            if work_hist is None:
                work_hist = Histogram(index_range=WORK_RANGE)
                state.phase_work[phase] = work_hist
        latency.observe(seconds)
        work_hist.observe(work)

    def record_outcome(
        self, template: str, seconds: float, ok: bool
    ) -> None:
        """One finished query: feeds counters and the SLO windows."""
        state = self._state(template)
        with self._lock:
            state.queries += 1
            if not ok:
                state.errors += 1
        state.slo.record(seconds, ok)

    def record_event(
        self,
        template: str,
        kind: str,
        detail: Optional[Mapping[str, object]] = None,
    ) -> None:
        """One degradation/typed-error event (counted + slow-logged)."""
        state = self._state(template)
        with self._lock:
            state.events[kind] = state.events.get(kind, 0) + 1
        self.slow_log.record_event(template, kind, detail)

    def qualifies_slow(self, template: str, seconds: float) -> bool:
        """Cheap pre-check before building an expensive slow capture."""
        return self.slow_log.qualifies(template, seconds)

    def record_slow(
        self, template: str, seconds: float, payload: Entry
    ) -> bool:
        """Offer a fully-built capture to the template's top-K."""
        return self.slow_log.offer(template, seconds, lambda: payload)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The full registry as a picklable nested dict.

        ``{"slow_k", "templates": {key: {"queries", "errors", "events",
        "phases": {phase: {"latency", "work"}}, "slo"}}, "slow_log"}``
        """
        with self._lock:
            items = sorted(self._templates.items())
        templates: Dict[str, object] = {}
        for template, state in items:
            with self._lock:
                phases = sorted(
                    set(state.phase_latency) | set(state.phase_work)
                )
                queries, errors = state.queries, state.errors
                events = dict(state.events)
            templates[template] = {
                "queries": queries,
                "errors": errors,
                "events": events,
                "phases": {
                    phase: {
                        "latency": (
                            state.phase_latency[phase].snapshot()
                            if phase in state.phase_latency
                            else {}
                        ),
                        "work": (
                            state.phase_work[phase].snapshot()
                            if phase in state.phase_work
                            else {}
                        ),
                    }
                    for phase in phases
                },
                "slo": state.slo.snapshot(),
            }
        return {
            "slow_k": self.slow_k,
            "templates": templates,
            "slow_log": self.slow_log.snapshot(),
        }


class NullInsights:
    """The disabled registry: every call is a constant-time no-op."""

    enabled = False

    def record_phase(
        self, template: str, phase: str, seconds: float, work: int = 0
    ) -> None:
        return None

    def record_outcome(
        self, template: str, seconds: float, ok: bool
    ) -> None:
        return None

    def record_event(
        self,
        template: str,
        kind: str,
        detail: Optional[Mapping[str, object]] = None,
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
    outliers re-rank to the global top-K; windowed burn rates take the
    worst shard.
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
    slo_snaps = [
        dict(slo)
        for source in sources
        if isinstance(slo := source.get("slo"), Mapping)
    ]
    return {
        "queries": sum(_int(source.get("queries")) for source in sources),
        "errors": sum(_int(source.get("errors")) for source in sources),
        "events": {kind: events[kind] for kind in sorted(events)},
        "phases": merged_phases,
        "slo": merge_slo_snapshots(slo_snaps),
    }


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

    Per template: query/error totals, SLO good/bad totals, fast/slow
    burn-rate gauges, and per-phase p50/p99 latency gauges — the
    exposition the ISSUE's burn-rate alerting consumes.
    """
    lines: List[str] = [
        "# HELP hdqo_template_queries_total Queries observed per template",
        "# TYPE hdqo_template_queries_total counter",
        "# HELP hdqo_template_errors_total Typed errors per template",
        "# TYPE hdqo_template_errors_total counter",
        "# HELP hdqo_slo_burn_rate Error-budget burn rate per window",
        "# TYPE hdqo_slo_burn_rate gauge",
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
        slo = entry.get("slo")
        if isinstance(slo, Mapping):
            for window in ("fast", "slow"):
                rate = slo.get(f"{window}_burn_rate")
                if isinstance(rate, (int, float)):
                    lines.append(
                        f'hdqo_slo_burn_rate{{template="{label}",'
                        f'window="{window}"}} {rate}'
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

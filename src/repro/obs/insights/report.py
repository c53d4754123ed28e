"""``hdqo report`` — offline trace analytics over exported span JSONL.

The post-hoc twin of the live registry: given a ``spans.jsonl`` exported
by the Tracer (the CI serving artifact, or any ad-hoc capture), the
analyzer reconstructs the per-template latency/work distributions the
live :class:`~repro.obs.insights.registry.InsightsRegistry` would have
held — by feeding the span durations and work-unit deltas through the
**same** :class:`~repro.obs.histogram.Histogram` — and
checks two things:

* **consistency** — the records pass
  :func:`repro.obs.tracing.validate_span_records`, parse as JSON, and
  the serving spans carry template attribution; any problem here is a
  broken trace pipeline and fails the CI step;
* **regressions** — with ``--baseline BENCH_*.json``, deterministic
  signals from the trace are compared against the recorded bench
  trajectory: an error burst where the baseline recorded none, lost
  plan-cache amortization, and a p99 blow-up beyond a generous tolerance
  factor (wall-clock comparisons across machines need slack; the factor
  is configurable and sized so an honest run never trips it while a
  seeded regression — a 10×+ tail — always does).

Phase attribution: ``serve.plan`` spans are the **decompose** phase
(work = the ``plan_units`` tag, the deterministic search effort),
``decompose.optimize`` spans roll up to the enclosing ``serve.plan``'s
template as the **optimize** phase, and ``serve.execute`` spans are the
**execute** phase (work = the span's meter delta).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.histogram import (
    LATENCY_RANGE,
    WORK_RANGE,
    Histogram,
    merge_snapshots,
    quantile_from_snapshot,
)
from repro.obs.tracing import validate_span_records

__all__ = [
    "load_span_records",
    "analyze_spans",
    "check_baseline",
    "render_report",
    "DEFAULT_TOLERANCE",
]

#: Allowed ratio between the trace's reconstructed p99 and the baseline's
#: recorded p99 before a latency regression is flagged.  Wall-clock
#: numbers cross machines here, so the bar is deliberately loose — an
#: honest run sits far under it, a seeded tail blows far past it.
DEFAULT_TOLERANCE = 10.0

Record = Dict[str, Any]


def load_span_records(path: str) -> Tuple[List[Record], List[str]]:
    """Parse a span JSONL file; returns ``(records, problems)``."""
    records: List[Record] = []
    problems: List[str] = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    problems.append(f"line {number}: invalid JSON ({exc})")
                    continue
                if not isinstance(record, dict) or "span_id" not in record:
                    problems.append(f"line {number}: not a span record")
                    continue
                records.append(record)
    except OSError as exc:
        problems.append(f"cannot read {path}: {exc}")
    return records, problems


def _template_of(record: Record) -> Optional[str]:
    tags = record.get("tags")
    if isinstance(tags, dict):
        template = tags.get("template")
        if isinstance(template, str) and template:
            return template
        query = tags.get("query")
        if isinstance(query, str) and query:
            return query
    return None


class _Phase:
    def __init__(self) -> None:
        self.latency = Histogram(index_range=LATENCY_RANGE)
        self.work = Histogram(index_range=WORK_RANGE)


class _Template:
    def __init__(self) -> None:
        self.phases: Dict[str, _Phase] = {}
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.plans = 0

    def phase(self, name: str) -> _Phase:
        found = self.phases.get(name)
        if found is None:
            found = self.phases[name] = _Phase()
        return found


def analyze_spans(records: List[Record]) -> Dict[str, Any]:
    """Reconstruct per-template phase distributions from span records.

    Returns ``{"templates": {template: {"queries", "errors",
    "cache_hits", "plans", "phases": {phase: {"latency", "work"}}}},
    "spans", "problems"}`` — the phase entries are
    :class:`Histogram` snapshots, directly comparable (and
    mergeable) with live registry exports.
    """
    # An offline file carries no retention metadata, so an unknown parent
    # may be a legitimately dropped span — dropped=1 keeps every other
    # check (duplicates, negative durations/work) while skipping that one.
    problems = list(validate_span_records(records, dropped=1))
    by_id = {record.get("span_id"): record for record in records}
    templates: Dict[str, _Template] = {}

    def state(template: str) -> _Template:
        found = templates.get(template)
        if found is None:
            found = templates[template] = _Template()
        return found

    def ancestor_template(record: Record) -> Optional[str]:
        seen = 0
        current: Optional[Record] = record
        while current is not None and seen < 64:
            seen += 1
            if current.get("name") in ("serve.plan", "serve.execute"):
                return _template_of(current)
            parent_id = current.get("parent_id")
            current = by_id.get(parent_id) if parent_id is not None else None
        return None

    serving = [
        record
        for record in records
        if record.get("name") in ("serve.plan", "serve.execute")
    ]
    untagged = sum(1 for record in serving if _template_of(record) is None)
    if serving and untagged:
        problems.append(
            f"{untagged} of {len(serving)} serving span(s) lack template "
            f"attribution (no 'template'/'query' tag)"
        )

    for record in records:
        name = record.get("name")
        duration = record.get("duration")
        work_units = record.get("work_units")
        duration = float(duration) if isinstance(duration, (int, float)) else 0.0
        work = int(work_units) if isinstance(work_units, int) else 0
        tags = record.get("tags")
        tags = tags if isinstance(tags, dict) else {}
        if name == "serve.plan":
            template = _template_of(record)
            if template is None:
                continue
            entry = state(template)
            plan_units = tags.get("plan_units")
            phase = entry.phase("decompose")
            phase.latency.observe(duration)
            phase.work.observe(
                int(plan_units) if isinstance(plan_units, int) else 0
            )
            entry.plans += 1
            if tags.get("cache_hit") is True:
                entry.cache_hits += 1
            if "error" in tags:
                entry.errors += 1
        elif name == "serve.execute":
            template = _template_of(record)
            if template is None:
                continue
            entry = state(template)
            phase = entry.phase("execute")
            phase.latency.observe(duration)
            phase.work.observe(work)
            entry.queries += 1
            if "error" in tags:
                entry.errors += 1
        elif name == "decompose.optimize":
            template = ancestor_template(record)
            if template is None:
                continue
            phase = state(template).phase("optimize")
            phase.latency.observe(duration)
            phase.work.observe(work)

    return {
        "spans": len(records),
        "problems": problems,
        "templates": {
            template: {
                "queries": entry.queries,
                "errors": entry.errors,
                "cache_hits": entry.cache_hits,
                "plans": entry.plans,
                "phases": {
                    phase_name: {
                        "latency": phase.latency.snapshot(),
                        "work": phase.work.snapshot(),
                    }
                    for phase_name, phase in sorted(entry.phases.items())
                },
            }
            for template, entry in sorted(templates.items())
        },
    }


def _overall_quantile(
    analysis: Mapping[str, Any], phase: str, q: float
) -> float:
    """The q-th quantile of one phase's latency across all templates."""
    snapshots: List[Mapping[str, object]] = []
    templates = analysis.get("templates")
    if isinstance(templates, Mapping):
        for entry in templates.values():
            if not isinstance(entry, Mapping):
                continue
            phases = entry.get("phases")
            if not isinstance(phases, Mapping):
                continue
            data = phases.get(phase)
            if isinstance(data, Mapping):
                latency = data.get("latency")
                if isinstance(latency, Mapping) and latency:
                    snapshots.append(latency)
    return quantile_from_snapshot(merge_snapshots(snapshots), q)


def check_baseline(
    analysis: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Regression flags (and non-fatal warnings) vs a bench record.

    Returns ``(flags, warnings)``.  Flags are regressions; warnings note
    baseline-side quirks (unstamped record, unhealthy baseline run).
    """
    from repro.bench.record import validate_record

    flags: List[str] = []
    warnings: List[str] = []

    schema_problems = validate_record(baseline, require_stamp=False)
    if schema_problems:
        warnings.extend(f"baseline schema: {p}" for p in schema_problems)
    if "recorded_at" not in baseline or "git_sha" not in baseline:
        warnings.append(
            "baseline record is unstamped (no git_sha/recorded_at); "
            "re-record with hdqo bench-serve --shards N --record"
        )

    templates = analysis.get("templates")
    templates = templates if isinstance(templates, Mapping) else {}
    total_queries = sum(
        entry.get("queries", 0)
        for entry in templates.values()
        if isinstance(entry, Mapping)
    )
    total_errors = sum(
        entry.get("errors", 0)
        for entry in templates.values()
        if isinstance(entry, Mapping)
    )
    total_hits = sum(
        entry.get("cache_hits", 0)
        for entry in templates.values()
        if isinstance(entry, Mapping)
    )

    sharded = baseline.get("sharded")
    sharded = sharded if isinstance(sharded, Mapping) else {}
    baseline_errors = sharded.get("errors")
    if (
        isinstance(baseline_errors, int)
        and baseline_errors == 0
        and isinstance(total_errors, int)
        and total_errors > 0
    ):
        flags.append(
            f"error regression: trace has {total_errors} errored serving "
            f"span(s); baseline recorded 0 errors"
        )

    baseline_hits = sharded.get("cache_hits_total")
    if (
        isinstance(baseline_hits, int)
        and baseline_hits > 0
        and isinstance(total_queries, int)
        and total_queries > 0
        and total_hits == 0
    ):
        flags.append(
            "cache amortization lost: baseline recorded "
            f"{baseline_hits} plan-cache hits; trace shows none"
        )

    baseline_p99_ms = sharded.get("latency_p99_ms")
    if isinstance(baseline_p99_ms, (int, float)) and baseline_p99_ms > 0:
        trace_p99_ms = _overall_quantile(analysis, "execute", 0.99) * 1000.0
        if trace_p99_ms > tolerance * float(baseline_p99_ms):
            flags.append(
                f"latency regression: execute p99 {trace_p99_ms:.1f} ms "
                f"exceeds {tolerance:g}x the baseline p99 "
                f"{float(baseline_p99_ms):.1f} ms"
            )

    parity = baseline.get("parity")
    if isinstance(parity, Mapping) and parity.get("identical") is False:
        warnings.append("baseline run itself failed parity; comparisons weak")
    return flags, warnings


def render_report(
    analysis: Mapping[str, Any],
    flags: Optional[List[str]] = None,
    warnings: Optional[List[str]] = None,
) -> str:
    """Human-readable report text for an analysis (+ baseline results)."""
    template_count = analysis.get("templates")
    template_count = (
        len(template_count) if isinstance(template_count, Mapping) else 0
    )
    lines = [
        f"hdqo report — {analysis.get('spans', 0)} span(s), "
        f"{template_count} template(s)",
        "",
        f"{'TEMPLATE':<25} {'PHASE':<10} {'N':>6} {'P50(ms)':>9} "
        f"{'P99(ms)':>9} {'WORK-P50':>9} {'WORK-TOT':>10}",
    ]
    templates = analysis.get("templates")
    templates = templates if isinstance(templates, Mapping) else {}
    for template in sorted(str(key) for key in templates):
        entry = templates[template]
        if not isinstance(entry, Mapping):
            continue
        phases = entry.get("phases")
        phases = phases if isinstance(phases, Mapping) else {}
        shown = template if len(template) <= 24 else template[:23] + "…"
        for phase_name in sorted(str(p) for p in phases):
            data = phases[phase_name]
            if not isinstance(data, Mapping):
                continue
            latency = data.get("latency")
            work = data.get("work")
            latency = latency if isinstance(latency, Mapping) else {}
            work = work if isinstance(work, Mapping) else {}
            count = latency.get("count")
            count = count if isinstance(count, int) else 0
            work_total = work.get("total")
            work_total = (
                float(work_total)
                if isinstance(work_total, (int, float))
                else 0.0
            )
            lines.append(
                f"{shown:<25} {phase_name:<10} {count:>6} "
                f"{quantile_from_snapshot(latency, 0.5) * 1000:>9.2f} "
                f"{quantile_from_snapshot(latency, 0.99) * 1000:>9.2f} "
                f"{quantile_from_snapshot(work, 0.5):>9.0f} "
                f"{work_total:>10.0f}"
            )
            shown = ""
    problems = analysis.get("problems")
    if isinstance(problems, list) and problems:
        lines.append("")
        lines.append("TRACE PROBLEMS:")
        lines.extend(f"  {problem}" for problem in problems)
    if warnings:
        lines.append("")
        lines.extend(f"warning: {warning}" for warning in warnings)
    if flags:
        lines.append("")
        lines.append("REGRESSIONS FLAGGED:")
        lines.extend(f"  {flag}" for flag in flags)
    elif flags is not None:
        lines.append("")
        lines.append("baseline comparison: clean")
    return "\n".join(lines)

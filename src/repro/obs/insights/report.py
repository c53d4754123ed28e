"""``hdqo report`` — offline trace analytics over exported span JSONL.

The post-hoc twin of the live registry, by construction: given a
``spans.jsonl`` exported by the Tracer (the CI serving artifact, or any
ad-hoc capture), :func:`analyze_spans` replays every ``serve.query``
span record into a fresh
:class:`~repro.obs.insights.registry.InsightsRegistry` through the same
:meth:`~repro.obs.insights.registry.InsightsRegistry.record_query` the
live optimizer handler calls — the query span's ``template``,
``cache_hit``, ``events`` and ``error`` tags, its ``serve.plan`` child's
duration and ``plan_units`` (decompose), its ``serve.execute`` child's
duration and work delta (execute).  The replay then checks two things:

* **consistency** — the records pass
  :func:`repro.obs.tracing.validate_span_records`, parse as JSON, and
  the ``serve.query`` spans carry template attribution; any problem here
  is a broken trace pipeline and fails the CI step;
* **regressions** — with ``--baseline BASE``, an earlier span export
  analysed by the same rule, deterministic signals are compared side by
  side: queries that raised where the baseline trace had none, lost
  plan-cache amortization, and an execute-phase p99 blow-up beyond
  :data:`DEFAULT_TOLERANCE` times the baseline's execute p99 (the two
  exports may come from different machines or topologies, so the bar is
  sized so an honest run never trips it while a seeded regression — a
  10×+ tail — always does).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.histogram import merge_snapshots, quantile_from_snapshot
from repro.obs.insights.registry import InsightsRegistry
from repro.obs.tracing import validate_span_records

__all__ = [
    "load_span_records",
    "analyze_spans",
    "check_baseline",
    "render_report",
    "replay_mismatches",
    "DEFAULT_TOLERANCE",
]

#: Allowed ratio between the trace's execute p99 and the baseline trace's
#: execute p99 before a latency regression is flagged.  Wall-clock
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


def _tags(record: Optional[Record]) -> Dict[str, Any]:
    tags = record.get("tags") if record is not None else None
    return tags if isinstance(tags, dict) else {}


def _template_of(record: Record) -> Optional[str]:
    tags = _tags(record)
    for name in ("template", "query"):
        value = tags.get(name)
        if isinstance(value, str) and value:
            return value
    return None


def _number(record: Optional[Record], field: str) -> float:
    value = record.get(field) if record is not None else None
    return value if isinstance(value, (int, float)) else 0


def analyze_spans(records: List[Record]) -> Dict[str, Any]:
    """Replay ``serve.query`` span records into a fresh registry.

    Returns the registry's snapshot (``{"slow_k", "templates",
    "slow_log"}``, the live shape — directly comparable and mergeable
    with live exports) plus ``"spans"`` (records read) and
    ``"problems"``.
    """
    # An offline file carries no retention metadata, so an unknown parent
    # may be a legitimately dropped span — dropped=1 keeps every other
    # check (duplicates, negative durations/work) while skipping that one.
    problems = list(validate_span_records(records, dropped=1))
    children: Dict[Any, Dict[str, Record]] = {}
    for record in records:
        if record.get("name") in ("serve.plan", "serve.execute"):
            children.setdefault(record.get("parent_id"), {})[
                record["name"]
            ] = record
    queries = [r for r in records if r.get("name") == "serve.query"]
    untagged = sum(1 for record in queries if _template_of(record) is None)
    if untagged:
        problems.append(
            f"{untagged} of {len(queries)} serve.query span(s) lack template "
            f"attribution (no 'template'/'query' tag)"
        )

    registry = InsightsRegistry()
    for record in queries:
        template = _template_of(record)
        if template is None:
            continue
        tags = _tags(record)
        phases = children.get(record["span_id"], {})
        plan, execute = phases.get("serve.plan"), phases.get("serve.execute")
        events = tags.get("events")
        error = tags.get("error")
        registry.record_query(
            template,
            plan_seconds=_number(plan, "duration"),
            plan_units=int(_number(_tags(plan), "plan_units")),
            cache_hit=tags.get("cache_hit") is True,
            execute_seconds=(
                None if execute is None else _number(execute, "duration")
            ),
            execute_work=int(_number(execute, "work_units")),
            events=[e for e in events if isinstance(e, str)]
            if isinstance(events, list)
            else [],
            error=error if isinstance(error, str) else None,
        )
    return {**registry.snapshot(), "spans": len(records), "problems": problems}


def _comparable(entry: Mapping[str, Any]) -> Dict[str, Any]:
    flat = {
        field: entry[field]
        for field in ("queries", "errors", "cache_hits", "events")
    }
    flat["phases"] = sorted(entry["phases"])
    for phase, data in entry["phases"].items():
        flat[f"{phase}.latency.count"] = data["latency"]["count"]
        flat[f"{phase}.work"] = data["work"]
    return flat


def replay_mismatches(
    live: Mapping[str, Any], replayed: Mapping[str, Any]
) -> List[str]:
    """Where a span replay's per-template records differ from the live ones.

    Compares, per template, what both feeders fill exactly: ``queries``,
    ``errors``, ``cache_hits``, ``events``, the phase set, each phase's
    latency count and each phase's work histogram.  (Latencies are two
    clocks' readings of one interval, so only their counts must agree.)
    Empty when the records match.
    """
    ours, theirs = (
        {
            key: _comparable(entry)
            for key, entry in (side.get("templates") or {}).items()
        }
        for side in (live, replayed)
    )
    mismatches: List[str] = []
    for key in sorted(set(ours) | set(theirs)):
        a, b = ours.get(key), theirs.get(key)
        if a is None or b is None:
            where = "replay" if a is None else "live registry"
            mismatches.append(f"template {key}: only in the {where}")
            continue
        mismatches.extend(
            f"template {key}: {field} live={a.get(field)!r} "
            f"replayed={b.get(field)!r}"
            for field in sorted(set(a) | set(b))
            if a.get(field) != b.get(field)
        )
    return mismatches


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


def _totals(analysis: Mapping[str, Any]) -> Tuple[int, ...]:
    """``(queries, errors, cache_hits)`` summed over every template."""
    templates = analysis.get("templates")
    entries = [
        entry
        for entry in (templates.values() if isinstance(templates, Mapping) else ())
        if isinstance(entry, Mapping)
    ]
    return tuple(
        sum(int(_number(entry, counter)) for entry in entries)
        for counter in ("queries", "errors", "cache_hits")
    )


def check_baseline(
    analysis: Mapping[str, Any], baseline: Mapping[str, Any]
) -> Tuple[List[str], List[str]]:
    """Regression flags (and non-fatal warnings) vs an earlier trace.

    Both arguments are :func:`analyze_spans` results.  Returns ``(flags,
    warnings)``: flags are regressions; warnings are the baseline trace's
    own problems, which weaken the comparison but do not fail it.
    """
    flags: List[str] = []
    problems = baseline.get("problems")
    warnings = [
        f"baseline trace: {problem}"
        for problem in (problems if isinstance(problems, list) else ())
    ]
    total_queries, total_errors, total_hits = _totals(analysis)
    _, baseline_errors, baseline_hits = _totals(baseline)

    if baseline_errors == 0 and total_errors > 0:
        flags.append(
            f"error regression: {total_errors} traced quer(y/ies) raised; "
            f"the baseline trace has 0 errors"
        )
    if baseline_hits > 0 and total_queries > 0 and total_hits == 0:
        flags.append(
            f"cache amortization lost: the baseline trace has "
            f"{baseline_hits} plan-cache hits; this trace has none"
        )
    baseline_p99_ms = _overall_quantile(baseline, "execute", 0.99) * 1000.0
    if baseline_p99_ms > 0:
        trace_p99_ms = _overall_quantile(analysis, "execute", 0.99) * 1000.0
        if trace_p99_ms > DEFAULT_TOLERANCE * baseline_p99_ms:
            flags.append(
                f"latency regression: execute p99 {trace_p99_ms:.1f} ms "
                f"exceeds {DEFAULT_TOLERANCE:g}x the baseline execute p99 "
                f"{baseline_p99_ms:.1f} ms"
            )
    return flags, warnings


def render_report(
    analysis: Mapping[str, Any],
    flags: Optional[List[str]] = None,
    warnings: Optional[List[str]] = None,
) -> str:
    """Human-readable report text for an analysis (+ baseline results).

    ``analysis`` has the registry's snapshot shape (what
    :func:`analyze_spans` returns).
    """
    templates = analysis.get("templates") or {}
    lines = [
        f"hdqo report — {analysis.get('spans', 0)} span(s), "
        f"{len(templates)} template(s)",
        "",
        f"{'TEMPLATE':<25} {'PHASE':<10} {'N':>6} {'P50(ms)':>9} "
        f"{'P99(ms)':>9} {'WORK-P50':>9} {'WORK-TOT':>10}",
    ]
    for template, entry in sorted(templates.items()):
        shown = template if len(template) <= 24 else template[:23] + "…"
        for phase_name, data in sorted(entry["phases"].items()):
            latency, work = data["latency"], data["work"]
            lines.append(
                f"{shown:<25} {phase_name:<10} {latency['count']:>6} "
                f"{quantile_from_snapshot(latency, 0.5) * 1000:>9.2f} "
                f"{quantile_from_snapshot(latency, 0.99) * 1000:>9.2f} "
                f"{quantile_from_snapshot(work, 0.5):>9.0f} "
                f"{work['total']:>10.0f}"
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

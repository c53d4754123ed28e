"""Rendering experiment results as the paper's figures (ASCII form).

Each figure in the paper plots execution time against a swept parameter
for several systems.  :func:`render_series_table` prints the same series
as a table: one row per x-axis point, one column per system, with ``DNF``
for runs that exceeded the budget — the paper's "> 10 minutes" marks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bench.harness import DNF, ExperimentResult, RunRecord


def _format_value(record: Optional[RunRecord], metric: str) -> str:
    if record is None:
        return "-"
    if not record.finished:
        return DNF
    value = getattr(record, metric)
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_series_table(
    result: ExperimentResult,
    metric: str = "work",
    point_label: str = "x",
) -> str:
    """A per-point × per-system table of the chosen metric.

    Args:
        result: the experiment to render.
        metric: ``"work"`` (default, machine-independent),
            ``"simulated_seconds"`` or ``"elapsed_seconds"``.
        point_label: heading of the x-axis column.
    """
    systems = result.systems()
    header = [point_label] + systems
    rows: List[List[str]] = []
    for point in result.points():
        row = [str(point)]
        for system in systems:
            row.append(_format_value(result.record_for(system, point), metric))
        rows.append(row)

    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def fmt(values: Sequence[str]) -> str:
        return "  ".join(value.rjust(widths[i]) for i, value in enumerate(values))

    lines = [result.title, fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    if result.notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in result.notes)
    return "\n".join(lines)


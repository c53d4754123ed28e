"""Exporting experiment results: CSV, JSON, and Markdown tables.

``scripts/generate_experiments_md.py`` builds ``EXPERIMENTS.md`` from real
runs with :func:`render_markdown_table`; the CSV/JSON writers make the raw
series available to external plotting tools.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.bench.harness import DNF, ExperimentResult

PathLike = Union[str, Path]


def result_to_rows(result: ExperimentResult) -> List[Dict[str, object]]:
    """Flatten an experiment into one dict per record."""
    rows = []
    for record in result.records:
        phases = record.phase_work
        rows.append(
            {
                "experiment": result.experiment_id,
                "system": record.system,
                "point": record.point,
                "work": record.work,
                "simulated_seconds": record.simulated_seconds,
                "elapsed_seconds": record.elapsed_seconds,
                "finished": record.finished,
                "answer_rows": record.answer_rows,
                "work_decompose": phases.get("decompose"),
                "work_optimize": phases.get("optimize"),
                "work_execute": phases.get("execute"),
            }
        )
    return rows


def write_csv(results: Sequence[ExperimentResult], path: PathLike) -> None:
    """Write all records of several experiments to one CSV file."""
    fieldnames = [
        "experiment",
        "system",
        "point",
        "work",
        "simulated_seconds",
        "elapsed_seconds",
        "finished",
        "answer_rows",
        "work_decompose",
        "work_optimize",
        "work_execute",
    ]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for result in results:
            writer.writerows(result_to_rows(result))


def write_json(results: Sequence[ExperimentResult], path: PathLike) -> None:
    """Write experiments as a JSON document (records + notes)."""
    doc = [
        {
            "experiment": result.experiment_id,
            "title": result.title,
            "notes": result.notes,
            "records": result_to_rows(result),
        }
        for result in results
    ]
    Path(path).write_text(json.dumps(doc, indent=2))


def render_markdown_table(
    result: ExperimentResult,
    metric: str = "work",
    point_label: str = "x",
) -> str:
    """One experiment as a GitHub-flavoured Markdown table."""
    systems = result.systems()
    lines = [
        "| " + " | ".join([point_label] + systems) + " |",
        "|" + "---|" * (len(systems) + 1),
    ]
    for point in result.points():
        cells = [str(point)]
        for system in systems:
            record = result.record_for(system, point)
            if record is None:
                cells.append("–")
            elif not record.finished:
                cells.append(DNF)
            else:
                value = getattr(record, metric)
                cells.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


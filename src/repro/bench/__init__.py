"""Experiment harness reproducing every figure of the paper's §6.

* :mod:`repro.bench.harness` — run records, sweep runner, DNF handling;
* :mod:`repro.bench.reporting` — ASCII series/tables in the shape of the
  paper's figures;
* :mod:`repro.bench.experiments` — one entry point per paper figure
  (fig7a–d, fig8a–b, fig9, fig10) plus the §6.1 overhead comparison.
"""

from repro.bench.harness import ExperimentResult, RunRecord, run_with_budget
from repro.bench.reporting import render_series_table
from repro.bench.export import (
    render_markdown_table,
    write_csv,
    write_json,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_overhead,
)

__all__ = [
    "RunRecord",
    "ExperimentResult",
    "run_with_budget",
    "render_series_table",
    "render_markdown_table",
    "write_csv",
    "write_json",
    "EXPERIMENTS",
    "run_experiment",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_overhead",
]

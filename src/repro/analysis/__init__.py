"""Domain-aware static analysis for the reproduction's own source.

PRs 1–3 grew the codebase into a concurrent serving stack whose
correctness rests on *conventions*: row loops checkpoint cooperatively,
operators charge the :class:`~repro.metering.WorkMeter`, shared state is
touched only under its lock, metered paths never read the wall clock or
unseeded randomness, and broad exception handlers never swallow the
cooperative-abort errors.  This package turns those conventions into
machine-checked rules:

* :mod:`repro.analysis.base` — the :class:`~repro.analysis.base.Rule`
  protocol (``check(model)``), :class:`~repro.analysis.base.Finding`
  records, severity levels, and ``# hdqo: ignore[rule-id]`` suppressions;
* :mod:`repro.analysis.interproc` — the program model every rule checks
  and the three whole-program analyses over its call graph;
* :mod:`repro.analysis.rules` — the per-file rules and the one catalogue
  (:data:`repro.analysis.rules.ALL_RULES`);
* :mod:`repro.analysis.driver` — the one pass: parse once, run the
  selected rules, apply the inline suppressions;
* :mod:`repro.analysis.report` — text and JSON reporters (the ``hdqo
  lint`` CLI output);
* :mod:`repro.analysis.lockwitness` — the complementary *dynamic* check:
  an opt-in instrumented lock (``HDQO_LOCKCHECK=1``) that records
  per-thread lock-acquisition graphs and reports ordering cycles.

Run it with ``hdqo lint [--format json] [--select rules] [--graphs-out
dir] [paths]``.
"""

from __future__ import annotations

from repro.analysis.base import ERROR, WARNING, FileRule, FileSource, Finding, Rule
from repro.analysis.driver import AnalysisReport, run_analysis
from repro.analysis.lockwitness import (
    GLOBAL_WITNESS,
    LockWitness,
    WitnessLock,
    lockcheck_enabled,
    make_lock,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ERROR",
    "WARNING",
    "FileRule",
    "FileSource",
    "Finding",
    "Rule",
    "AnalysisReport",
    "run_analysis",
    "render_json",
    "render_text",
    "ALL_RULES",
    "GLOBAL_WITNESS",
    "LockWitness",
    "WitnessLock",
    "lockcheck_enabled",
    "make_lock",
]

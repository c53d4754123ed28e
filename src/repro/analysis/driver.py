"""The analysis driver: one pass from paths to an :class:`AnalysisReport`.

:func:`run_analysis` parses every file once into the
:class:`~repro.analysis.interproc.model.ProgramModel`, runs the selected
rules of the one catalogue (:data:`repro.analysis.rules.ALL_RULES`) over
it, and filters every finding — whichever rule produced it — through one
mechanism: **inline suppressions**, ``# hdqo: ignore[rule-id]`` comments
resolved against the finding's source line, each carrying its one-line
justification beside the code it accepts.  The driver also writes the two
graph artifacts CI uploads: the call graph and the static lock-order
graph, as plain JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.base import ERROR, Finding, Rule
from repro.analysis.interproc.lockorder import build_lock_graph
from repro.analysis.interproc.model import (
    ProgramModel,
    index_program,
    resolve_program,
)
from repro.analysis.rules import ALL_RULES

@dataclass
class AnalysisReport:
    """Aggregated result of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    #: Findings hidden by an inline ``# hdqo: ignore`` comment.
    suppressed: int = 0
    #: The program the rules checked (graph artifacts are derived from it).
    model: Optional[ProgramModel] = None

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity != ERROR)

    @property
    def ok(self) -> bool:
        return self.errors == 0


def resolve_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """The rules to run: the whole catalogue, or the ``select``-ed ids."""
    if select is None:
        return list(ALL_RULES)
    wanted = {name.strip() for name in select if name.strip()}
    unknown = wanted - {rule.rule_id for rule in ALL_RULES}
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(r.rule_id for r in ALL_RULES))}"
        )
    return [rule for rule in ALL_RULES if rule.rule_id in wanted]


def filter_findings(model: ProgramModel, raw: Sequence[Finding]) -> AnalysisReport:
    """The report for ``raw``, less the inline-suppressed findings."""
    report = AnalysisReport(
        files=len(model.modules) + len(model.unparsed), model=model
    )
    sources = {m.source.path: m.source for m in model.modules.values()}
    for finding in raw:
        source = sources.get(finding.path)
        if source is not None and source.suppressed(finding.rule_id, finding.line):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings.sort(key=Finding.sort_key)
    return report


def run_analysis(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Run the selected rules over ``paths``.

    ``select`` filters the catalogue by rule id (unknown ids raise
    ``ValueError``).
    """
    battery = resolve_rules(select)
    model = index_program(paths)
    raw: List[Finding] = list(model.unparsed)
    for rule in battery:
        raw.extend(rule.check(model))
    return filter_findings(model, raw)


def call_graph_json(model: ProgramModel) -> Dict[str, object]:
    """The call graph as a plain-JSON artifact (CI uploads this)."""
    resolve_program(model)
    edges = sorted(
        (caller, callee)
        for caller, callees in model.callees.items()
        for callee in callees
    )
    unresolved = sum(
        1
        for fn in model.functions.values()
        for site in fn.calls
        if not site.resolved and site.name
    )
    return {
        "functions": len(model.functions),
        "classes": len(model.classes),
        "modules": len(model.modules),
        "thread_roots": sorted(model.thread_roots),
        "edges": [[caller, callee] for caller, callee in edges],
        "unresolved_calls": unresolved,
    }


def write_graphs(model: ProgramModel, directory: str) -> List[str]:
    """Write ``call-graph.json`` and ``lock-graph.json``; returns the paths."""
    graphs = {
        "call-graph": call_graph_json(model),
        "lock-graph": build_lock_graph(model).to_json(),
    }
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for name, payload in sorted(graphs.items()):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


__all__ = [
    "AnalysisReport",
    "call_graph_json",
    "filter_findings",
    "resolve_rules",
    "run_analysis",
    "write_graphs",
]

"""The analysis driver: one pass from paths to an :class:`AnalysisReport`.

:func:`run_analysis` parses every file once into the
:class:`~repro.analysis.interproc.model.ProgramModel`, runs the selected
rules of the one catalogue (:data:`repro.analysis.rules.ALL_RULES`) over
it, and filters every finding — whichever rule produced it — through the
same two mechanisms:

* **inline suppressions** — ``# hdqo: ignore[rule-id]`` comments,
  resolved against the finding's source line;
* **the baseline file** — a committed JSON file of *accepted* findings,
  matched by ``(rule, key)`` (stable identities, not line numbers), each
  carrying a one-line justification.  Baselined findings don't fail the
  run; stale baseline entries (matching nothing) are themselves reported
  as warnings so the file cannot rot silently.

Suppressions are applied first, so an inline comment never needs a
baseline entry too.  The driver also writes the two graph artifacts CI
uploads: the call graph and the static lock-order graph, as plain JSON.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import ERROR, WARNING, Finding, Rule
from repro.analysis.interproc.lockorder import build_lock_graph
from repro.analysis.interproc.model import (
    ProgramModel,
    index_program,
    resolve_program,
)
from repro.analysis.rules import ALL_RULES

#: The default baseline filename, discovered by walking up from the
#: analyzed paths (so ``hdqo lint src/repro`` finds the repo's file).
BASELINE_FILENAME = "lint-baseline.json"

_BASELINE_RULE = "interproc-baseline"

#: A baseline entry's identity: ``(rule id, finding key)``.
BaselineKey = Tuple[str, str]


@dataclass
class AnalysisReport:
    """Aggregated result of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    #: Findings hidden by an inline ``# hdqo: ignore`` comment.
    suppressed: int = 0
    #: Findings accepted by the baseline file (not failures).
    baselined: int = 0
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


def load_baseline(path: str) -> List[BaselineKey]:
    """The ``(rule, key)`` entries of a baseline file.

    Raises ``ValueError`` when the file cannot be read or is malformed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    raw_entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(raw_entries, list):
        raise ValueError(f"{path}: baseline must be an object with an 'entries' list")
    entries: List[BaselineKey] = []
    for raw in raw_entries:
        rule = raw.get("rule") if isinstance(raw, dict) else None
        key = raw.get("key") if isinstance(raw, dict) else None
        if not isinstance(rule, str) or not isinstance(key, str) or not key:
            raise ValueError(
                f"{path}: baseline entries need string 'rule' and 'key'"
            )
        entries.append((rule, key))
    return entries


def find_baseline(paths: Sequence[str]) -> Optional[str]:
    """Walk up from the first analyzed path looking for the baseline."""
    for start in paths:
        current = os.path.abspath(start)
        if os.path.isfile(current):
            current = os.path.dirname(current)
        while True:
            candidate = os.path.join(current, BASELINE_FILENAME)
            if os.path.isfile(candidate):
                return candidate
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
    return None


def filter_findings(
    model: ProgramModel,
    raw: Sequence[Finding],
    baseline: Sequence[BaselineKey],
    baseline_path: str,
) -> AnalysisReport:
    """The report for ``raw``: inline suppressions, then the baseline,
    then one warning per baseline entry that matched nothing."""
    report = AnalysisReport(
        files=len(model.modules) + len(model.unparsed), model=model
    )
    sources = {m.source.path: m.source for m in model.modules.values()}
    accepted = set(baseline)
    matched: Set[BaselineKey] = set()
    for finding in raw:
        source = sources.get(finding.path)
        identity = (finding.rule_id, finding.key)
        if source is not None and source.suppressed(finding.rule_id, finding.line):
            report.suppressed += 1
        elif finding.key and identity in accepted:
            matched.add(identity)
            report.baselined += 1
        else:
            report.findings.append(finding)
    for rule, key in baseline:
        if (rule, key) not in matched:
            report.findings.append(
                Finding(
                    rule_id=_BASELINE_RULE,
                    severity=WARNING,
                    path=baseline_path,
                    line=1,
                    column=0,
                    message=(
                        f"stale baseline entry: rule={rule!r} "
                        f"key={key!r} matched no finding — remove it"
                    ),
                    key=f"baseline-stale:{rule}:{key}",
                )
            )
    report.findings.sort(key=Finding.sort_key)
    return report


def run_analysis(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    baseline_path: Optional[str] = None,
) -> AnalysisReport:
    """Run the selected rules over ``paths``.

    ``select`` filters the catalogue by rule id (unknown ids raise
    ``ValueError``).  ``baseline_path`` names an accepted-findings file;
    when given it must be readable (``ValueError`` otherwise) — callers
    wanting the optional default pass :func:`find_baseline`'s result.
    Entries of catalogue rules that are not selected are ignored: they
    can match nothing, and cannot be judged stale.  An entry naming a rule
    the catalogue does not have (a typo, a removed rule) is always stale.
    """
    battery = resolve_rules(select)
    skipped = {r.rule_id for r in ALL_RULES} - {r.rule_id for r in battery}
    baseline: List[BaselineKey] = []
    if baseline_path is not None:
        baseline = [
            e for e in load_baseline(baseline_path) if e[0] not in skipped
        ]
    model = index_program(paths)
    raw: List[Finding] = list(model.unparsed)
    for rule in battery:
        raw.extend(rule.check(model))
    return filter_findings(
        model, raw, baseline, baseline_path or BASELINE_FILENAME
    )


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
    "BASELINE_FILENAME",
    "call_graph_json",
    "filter_findings",
    "find_baseline",
    "load_baseline",
    "resolve_rules",
    "run_analysis",
    "write_graphs",
]

"""Span balance: tracer spans must be context-managed.

:meth:`repro.obs.tracing.Tracer.span` returns a context manager; the span
is only finished (duration recorded, parent restored) by ``__exit__``.  A
bare ``tracer.span("x")`` call — or a manually stored span that is never
closed — leaks an open span: children attach to the wrong parent and the
trace tree that EXPLAIN ANALYZE renders is corrupted.  The rule therefore
requires every ``*.span(…)`` call to appear directly as a ``with`` item.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.base import FileRule, FileSource, Finding, call_method_name


class SpanBalanceRule(FileRule):
    """``tracer.span()`` calls must be ``with``-managed."""

    rule_id = "span-balance"
    description = (
        "every tracer .span() call must be used as a context manager"
        " (`with tracer.span(...):`); unmanaged spans never close"
    )
    scopes = ("repro/",)

    def check_file(self, source: FileSource) -> List[Finding]:
        managed: Set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_method_name(node) != "span":
                continue
            if id(node) in managed:
                continue
            findings.append(
                self.finding(
                    source,
                    node,
                    ".span() call is not a `with` item; the span is never "
                    "closed and the trace tree around it is corrupted",
                )
            )
        return findings

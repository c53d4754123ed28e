"""Checkpoint coverage and work-charging parity for operator row loops.

The resilience layer (PR 3) relies on *cooperative* aborts: a deadline or
cancellation is only observed when the running code calls
``context.checkpoint(site)``.  The metering layer
(the paper's machine-independent cost accounting) relies on every physical
operator charging the :class:`~repro.metering.WorkMeter` for each tuple it
touches.  The two contracts meet in row loops:

* **checkpoint-coverage** — a ``for``/``while`` loop that charges work
  units is, by definition, a row loop on a hot path; if no loop in its
  enclosing loop nest ever calls ``checkpoint``, a pathological
  input wedges the worker until the loop ends, and deadlines, drains and
  fault injection are all blind to it.
* **work-charging** — an operator that accepts a ``meter`` parameter but
  neither charges it nor forwards it to a callee produces rows that are
  invisible to budgets, benchmarks and the paper's figures.  (Accepting
  the meter and dropping it is precisely how silent cost leaks start.)
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.base import (
    FileRule,
    FileSource,
    Finding,
    call_method_name,
    iter_functions,
    iter_scope_nodes,
)

_LOOP_TYPES = (ast.For, ast.AsyncFor, ast.While)
_CHECKPOINT_NAMES = frozenset({"checkpoint"})


def _loop_has_checkpoint(loop: ast.AST) -> bool:
    for node in iter_scope_nodes(loop):
        if isinstance(node, ast.Call):
            name = call_method_name(node)
            if name in _CHECKPOINT_NAMES:
                return True
            if isinstance(node.func, ast.Name) and node.func.id in _CHECKPOINT_NAMES:
                return True
    return False


class CheckpointCoverageRule(FileRule):
    """Row loops that charge work units must hit a cooperative checkpoint."""

    rule_id = "checkpoint-coverage"
    description = (
        "a loop that charges WorkMeter units must call context.checkpoint()"
        " somewhere in its loop nest"
    )
    scopes = (
        "repro/engine/",
        "repro/relational/",
        "repro/core/",
        "repro/parallel/",
    )

    def check_file(self, source: FileSource) -> List[Finding]:
        findings: List[Finding] = []
        for function in iter_functions(source.tree):
            findings.extend(self._check_scope(source, function))
        return findings

    def _check_scope(self, source: FileSource, root: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[int] = set()
        loop_stack: List[ast.AST] = []
        checkpointed: Dict[int, bool] = {}

        def covered(stack: List[ast.AST]) -> bool:
            for loop in stack:
                key = id(loop)
                if key not in checkpointed:
                    checkpointed[key] = _loop_has_checkpoint(loop)
                if checkpointed[key]:
                    return True
            return False

        def visit(node: ast.AST) -> None:
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                return
            if isinstance(node, ast.Call) and call_method_name(node) == "charge":
                if loop_stack and not covered(loop_stack):
                    innermost = loop_stack[-1]
                    if id(innermost) not in reported:
                        reported.add(id(innermost))
                        findings.append(
                            self.finding(
                                source,
                                node,
                                "work-charging row loop (line "
                                f"{getattr(innermost, 'lineno', '?')}) never "
                                "reaches context.checkpoint(); a "
                                "deadline or cancellation cannot interrupt it",
                            )
                        )
            if isinstance(node, _LOOP_TYPES):
                loop_stack.append(node)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                loop_stack.pop()
            else:
                for child in ast.iter_child_nodes(node):
                    visit(child)

        for child in ast.iter_child_nodes(root):
            visit(child)
        return findings


class WorkChargingRule(FileRule):
    """Operators that accept a WorkMeter must charge it or forward it."""

    rule_id = "work-charging"
    description = (
        "a function with a `meter` parameter must reference it (charge or"
        " forward); accepting and dropping the meter leaks work accounting"
    )
    scopes = (
        "repro/engine/",
        "repro/relational/",
        "repro/core/",
        "repro/parallel/",
    )

    def check_file(self, source: FileSource) -> List[Finding]:
        findings: List[Finding] = []
        for function in iter_functions(source.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._has_meter_param(function):
                continue
            if not self._uses_meter(function):
                findings.append(
                    self.finding(
                        source,
                        function,
                        f"{function.name}() accepts a WorkMeter but never "
                        "charges or forwards it — the rows it touches are "
                        "invisible to work budgets",
                    )
                )
        return findings

    @staticmethod
    def _has_meter_param(function: ast.AST) -> bool:
        args = function.args  # type: ignore[attr-defined]
        every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        return any(arg.arg == "meter" for arg in every)

    @staticmethod
    def _uses_meter(function: ast.AST) -> bool:
        for node in ast.walk(function):  # nested defs count: closures forward
            if isinstance(node, ast.Name) and node.id == "meter":
                if isinstance(node.ctx, (ast.Load, ast.Store)):
                    # parameter occurrences are ast.arg, not Name, so any
                    # Name hit is a genuine body reference.
                    return True
        return False

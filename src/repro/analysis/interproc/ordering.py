"""Determinism analysis: unordered-set iteration flowing into ordered sinks.

The reproduction's central contract is byte-identical parity: the same
query produces the same plan, the same rows in the same order, the same
wire bytes — across runs, interpreter hash seeds, and shard layouts.
``set``/``frozenset`` iteration order is the classic way to break that:
it depends on element hashes, which for strings vary per process unless
``PYTHONHASHSEED`` is pinned.

This analysis flags **escaping iteration** over set-typed values inside
functions whose results can reach a determinism-sensitive *sink* — plan
construction, ring routing, or wire-message assembly:

* sinks are identified by module basename (``costkdecomp``, ``qhd``,
  ``optimizer``, ``plan``, ``hashring``, ``messages``, ``router``, …);
* a function is in scope when it *is* a sink or can reach one through
  the call graph (its outputs may feed plan/wire construction);
* set-typed values are tracked through literals, ``set()`` /
  ``frozenset()`` constructors, set operators and methods, annotations
  (``Set[...]`` on parameters and return types), and function returns;
* only *order-escaping* uses are flagged: ``for x in s``, comprehension
  generators, and ``list`` / ``tuple`` / ``enumerate`` / ``iter`` /
  ``join`` conversions.  ``sorted(s)``, ``min``/``max``/``sum``/``len``,
  membership tests, and set-to-set operations impose or need no order
  and pass clean.

``dict`` iteration is *not* flagged: CPython dicts iterate in insertion
order, which is deterministic whenever insertions are — and the sweep
holding that invariant is exactly what the per-file determinism rules
and the parity tests enforce.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Set

from repro.analysis.base import Finding, Rule
from repro.analysis.interproc.model import (
    FunctionInfo,
    ProgramModel,
    _Resolver,
    resolve_program,
)

RULE_ID = "interproc-determinism"

#: Module basenames whose functions build plans, route queries, or
#: assemble wire messages — the determinism-sensitive sinks.
DEFAULT_SINK_BASENAMES: FrozenSet[str] = frozenset(
    {
        "costkdecomp",
        "detkdecomp",
        "qhd",
        "normalform",
        "hypertree",
        "jointree",
        "views",
        "optimizer",
        "plan",
        "fingerprint",
        "hashring",
        "messages",
        "router",
    }
)

#: Calls whose argument's iteration order escapes into the result.
_ESCAPING_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "join"})

#: Calls that impose an order or are order-insensitive: anything passed
#: directly to them (including comprehensions over sets) is fine.
_ORDER_SAFE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
     "Counter"}
)


def sink_functions(
    model: ProgramModel, basenames: FrozenSet[str]
) -> Set[str]:
    return {
        qualname
        for qualname, fn in model.functions.items()
        if fn.module.split(".")[-1] in basenames
    }


def functions_reaching(model: ProgramModel, sinks: Set[str]) -> Set[str]:
    """Functions that are sinks or can reach one through the call graph."""
    reaching = set(sinks)
    changed = True
    while changed:
        changed = False
        for qualname, callees in model.callees.items():
            if qualname in reaching:
                continue
            if callees & reaching:
                reaching.add(qualname)
                changed = True
    return reaching


class DeterminismAnalysis(Rule):
    """Flag set-ordered iteration feeding plan/routing/wire construction."""

    rule_id = RULE_ID
    description = (
        "iteration order over set/frozenset values must not flow into "
        "plan construction, ring routing, or wire messages — sort first"
    )

    def check(self, model: ProgramModel) -> List[Finding]:
        resolver = resolve_program(model)
        sinks = sink_functions(model, DEFAULT_SINK_BASENAMES)
        in_scope = functions_reaching(model, sinks)
        findings: List[Finding] = []
        for qualname in sorted(in_scope):
            fn = model.functions.get(qualname)
            if fn is None:
                continue
            findings.extend(self._check_function(resolver, fn))
        findings.sort(key=Finding.sort_key)
        return findings

    def _check_function(
        self, resolver: _Resolver, fn: FunctionInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        ordinal = 0
        attr_sets = self._set_attrs(resolver, fn)
        own_nodes = _own_nodes(fn.node)
        # Arguments of order-safe consumers (``min(... for v in s)``,
        # ``sorted(s)``) never leak their iteration order.
        order_safe: Set[int] = set()
        for node in own_nodes:
            if isinstance(node, ast.Call) and _call_name(node) in _ORDER_SAFE_CALLS:
                for arg in node.args:
                    order_safe.add(id(arg))
        for node in own_nodes:
            if id(node) in order_safe:
                continue
            iter_exprs: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                # Only the *first* generator's order escapes into the
                # element order of a list/generator result; a SetComp
                # result is itself unordered and handled at its own use.
                if not isinstance(node, ast.SetComp) and node.generators:
                    iter_exprs.append(node.generators[0].iter)
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in _ESCAPING_CALLS and node.args:
                    iter_exprs.append(node.args[0])
            for expr in iter_exprs:
                if not self._is_set_valued(resolver, fn, expr, attr_sets):
                    continue
                ordinal += 1
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        severity=self.severity,
                        path=fn.source.path,
                        line=int(getattr(node, "lineno", fn.line)),
                        column=int(getattr(node, "col_offset", 0)),
                        message=(
                            f"iteration over a set-ordered value in "
                            f"{fn.name}() — its order can flow into plan "
                            f"construction / routing / wire messages; "
                            f"iterate sorted(...) instead"
                        ),
                        key=f"set-order:{fn.qualname}#{ordinal}",
                    )
                )
        return findings

    def _is_set_valued(
        self,
        resolver: _Resolver,
        fn: FunctionInfo,
        expr: ast.expr,
        attr_sets: Set[str],
    ) -> bool:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in attr_sets
        ):
            return True
        return resolver.eval_expr(expr, fn).is_set

    def _set_attrs(self, resolver: _Resolver, fn: FunctionInfo) -> Set[str]:
        """Attributes of ``self`` known to hold sets."""
        if fn.cls is None:
            return set()
        attrs: Set[str] = set()
        for info in resolver.model.mro(fn.cls):
            for attr, value in info.attr_values.items():
                if value.is_set:
                    attrs.add(attr)
        return attrs


def _own_nodes(root: ast.AST) -> List[ast.AST]:
    collected: List[ast.AST] = []
    body = (
        [root.body] if isinstance(root, ast.Lambda) else list(ast.iter_child_nodes(root))
    )
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        collected.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return collected


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


__all__ = [
    "DEFAULT_SINK_BASENAMES",
    "DeterminismAnalysis",
    "RULE_ID",
    "functions_reaching",
    "sink_functions",
]

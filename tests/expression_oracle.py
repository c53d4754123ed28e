"""The closure-tree expression evaluator, kept as the compiler's oracle.

Compiles :mod:`repro.query.ast` expressions into plain Python closures
evaluated one row at a time — one call per AST node per row — the way
expressions were evaluated before :mod:`repro.engine.expressions` compiled
each one to a list comprehension.  ``tests/test_expressions.py`` compares
the two over random expressions and rows; ``tests/test_scans.py``'s
``reference_scan`` filters with it.

Errors are the old ones: a comparison wraps a ``TypeError`` as
``ExecutionError("type error evaluating …")``; arithmetic outside a
comparison raises the bare Python error.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Tuple

from repro.engine.expressions import like_regex
from repro.errors import ExecutionError
from repro.query import ast

Row = Tuple[object, ...]
Resolver = Callable[[ast.ColumnRef], int]


def _sql_like(value: object, pattern: object) -> bool:
    """``value LIKE pattern``; false unless both are strings."""
    return isinstance(value, str) and bool(like_regex(pattern).fullmatch(value))


_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "like": _sql_like,
}

_ARITHMETIC: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def compile_scalar(
    expression: ast.Expression, resolve: Resolver
) -> Callable[[Row], object]:
    """Compile a scalar expression into a ``row -> value`` closure.

    Aggregate function calls are rejected — aggregates are computed by
    :meth:`repro.relational.relation.Relation.group_aggregate`, not per-row.
    """
    if isinstance(expression, ast.Literal):
        value = expression.value
        return lambda _row: value
    if isinstance(expression, ast.ColumnRef):
        index = resolve(expression)
        return lambda row: row[index]
    if isinstance(expression, ast.BinaryOp):
        left = compile_scalar(expression.left, resolve)
        right = compile_scalar(expression.right, resolve)
        apply = _ARITHMETIC.get(expression.op)
        if apply is None:
            raise ExecutionError(f"unsupported arithmetic operator {expression.op!r}")
        return lambda row: apply(left(row), right(row))
    if isinstance(expression, ast.FuncCall):
        if expression.name in ast.AGGREGATE_FUNCTIONS:
            raise ExecutionError(
                f"aggregate {expression.name!r} cannot be evaluated per-row; "
                "use group_aggregate"
            )
        raise ExecutionError(f"unsupported function {expression.name!r}")
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' is not a scalar expression")
    raise ExecutionError(f"unknown expression node {expression!r}")


def compile_predicate(
    comparison: ast.Comparison, resolve: Resolver
) -> Callable[[Row], bool]:
    """Compile a comparison into a ``row -> bool`` closure."""
    compare = _COMPARATORS.get(comparison.op)
    if compare is None:
        raise ExecutionError(f"unsupported comparison operator {comparison.op!r}")
    left = compile_scalar(comparison.left, resolve)
    right = compile_scalar(comparison.right, resolve)
    if comparison.op == "like" and isinstance(comparison.right, ast.Literal):
        # A literal pattern is compiled here, once, not once per row.
        like = like_regex(comparison.right.value).fullmatch
        compare = lambda value, _pattern: isinstance(value, str) and bool(like(value))

    def predicate(row: Row) -> bool:
        try:
            return compare(left(row), right(row))
        except TypeError as exc:
            raise ExecutionError(
                f"type error evaluating {comparison}: {exc}"
            ) from exc

    return predicate


def compile_filter(
    predicate: "ast.Comparison | ast.InList", resolve: Resolver
) -> Callable[[Row], bool]:
    """Compile any supported filter predicate (comparison or IN list)."""
    if isinstance(predicate, ast.InList):
        tested = compile_scalar(predicate.expr, resolve)
        values = frozenset(predicate.values)
        return lambda row: tested(row) in values
    if isinstance(predicate, ast.Comparison):
        return compile_predicate(predicate, resolve)
    raise ExecutionError(f"unsupported filter predicate {predicate!r}")


def conjunction(
    predicates: "list[Callable[[Row], bool]]",
) -> Callable[[Row], bool]:
    """AND-combine compiled predicates (empty list = always true)."""
    if not predicates:
        return lambda _row: True
    if len(predicates) == 1:
        return predicates[0]

    def combined(row: Row) -> bool:
        return all(predicate(row) for predicate in predicates)

    return combined

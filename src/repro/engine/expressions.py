"""Row expressions, compiled to one list comprehension each.

A filter predicate, or a list of scalar expressions, plus a *resolver*
mapping a :class:`repro.query.ast.ColumnRef` to a row index compiles to one
function from a row list to a row list, with the expression inlined::

    compile_filter(d >= '1995-03-01')        [r for r in rows if (r[6] >= c0)]
    compile_rows([a * (1 - b)], extend=True) [r + ((r[1] * (c0 - r[2])), ) for r in rows]
    compile_rows([a, b])                     [(r[0], r[1], ) for r in rows]

The resolver is what lets one compiler serve a base scan's filters (columns
of one stored relation), the un-pushed baseline's residual filters and
post-processing (columns named by CQ variables of a join result).

The generated source holds only ``int`` indices from the resolver, operators
from the two tables below and the parameter names ``c0…cN``.  Every literal
is bound as a parameter — a LIKE pattern as its compiled ``fullmatch``, an
IN list as a ``frozenset`` — and never appears as source text.  ``eval``
runs in :func:`_factory` alone, cached on (parameter count, body), so each
distinct body is compiled once per process.

One error policy: a ``TypeError`` or ``ArithmeticError`` raised while
evaluating is an :class:`~repro.errors.ExecutionError` naming the
expression.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple, Union

from repro.errors import ExecutionError
from repro.query import ast

Rows = List[Tuple[object, ...]]
Resolver = Callable[[ast.ColumnRef], int]
Predicate = Union[ast.Comparison, ast.InList]
RowsFunction = Callable[[Rows], Rows]


def like_regex(pattern: object) -> "re.Pattern[str]":
    """SQL LIKE ``pattern`` compiled for ``fullmatch`` on string values: % is
    any run, _ any one character (newlines too), the rest literal.  A
    non-string pattern matches nothing."""
    if not isinstance(pattern, str):
        return re.compile("(?!)")
    return re.compile(
        re.escape(pattern).replace("%", ".*").replace("_", "."), re.DOTALL
    )


def _sql_like(value: object, pattern: object) -> bool:
    """``value LIKE pattern``; false unless both are strings."""
    return isinstance(value, str) and bool(like_regex(pattern).fullmatch(value))


_COMPARISONS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*", "/": "/"}

#: All the generated code can name besides its parameters.
_NAMESPACE = {"__builtins__": {}, "isinstance": isinstance, "str": str}


@lru_cache(maxsize=1024)
def _factory(parameters: int, body: str) -> Callable[..., RowsFunction]:
    """``(c0, …, cN) -> (rows -> body)``: this module's one ``eval``."""
    names = "".join(f"c{i}, " for i in range(parameters))
    return eval(f"lambda {names}: lambda rows: {body}", _NAMESPACE)


def _bind(parameters: List[object], value: object) -> str:
    parameters.append(value)
    return f"c{len(parameters) - 1}"


def _scalar(
    expression: ast.Expression, resolve: Resolver, parameters: List[object]
) -> str:
    """Source for one scalar expression over the row ``r``.

    Aggregate function calls are rejected — aggregates are computed by
    :meth:`repro.relational.relation.Relation.group_aggregate`, not per-row.
    """
    if isinstance(expression, ast.Literal):
        return _bind(parameters, expression.value)
    if isinstance(expression, ast.ColumnRef):
        return f"r[{int(resolve(expression))}]"
    if isinstance(expression, ast.BinaryOp):
        left = _scalar(expression.left, resolve, parameters)
        right = _scalar(expression.right, resolve, parameters)
        op = _ARITHMETIC.get(expression.op)
        if op is None:
            raise ExecutionError(f"unsupported arithmetic operator {expression.op!r}")
        return f"({left} {op} {right})"
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


def _test(predicate: Predicate, resolve: Resolver, parameters: List[object]) -> str:
    """Source for one filter predicate over the row ``r``."""
    if isinstance(predicate, ast.InList):
        tested = _scalar(predicate.expr, resolve, parameters)
        return f"({tested} in {_bind(parameters, frozenset(predicate.values))})"
    if not isinstance(predicate, ast.Comparison):
        raise ExecutionError(f"unsupported filter predicate {predicate!r}")
    left = _scalar(predicate.left, resolve, parameters)
    if predicate.op == "like" and isinstance(predicate.right, ast.Literal):
        # A literal pattern is compiled here, once, not once per row.
        like = _bind(parameters, like_regex(predicate.right.value).fullmatch)
        return f"(isinstance({left}, str) and {like}({left}))"
    right = _scalar(predicate.right, resolve, parameters)
    if predicate.op == "like":
        return f"{_bind(parameters, _sql_like)}({left}, {right})"
    op = _COMPARISONS.get(predicate.op)
    if op is None:
        raise ExecutionError(f"unsupported comparison operator {predicate.op!r}")
    return f"({left} {op} {right})"


def _build(
    body: str, parameters: List[object], subject: Sequence[object]
) -> RowsFunction:
    """The compiled ``body``, raising errors that name ``subject``'s items."""
    run = _factory(len(parameters), body)(*parameters)

    def evaluate(rows: Rows) -> Rows:
        try:
            return run(rows)
        except (TypeError, ArithmeticError) as exc:
            kind = "type" if isinstance(exc, TypeError) else "arithmetic"
            text = ", ".join(str(item) for item in subject)
            raise ExecutionError(f"{kind} error evaluating {text}: {exc}") from exc

    return evaluate


def compile_filter(predicate: Predicate, resolve: Resolver) -> RowsFunction:
    """``rows -> the rows that pass predicate``, in order, in one pass."""
    parameters: List[object] = []
    test = _test(predicate, resolve, parameters)
    return _build(f"[r for r in rows if {test}]", parameters, [predicate])


def compile_rows(
    expressions: Sequence[ast.Expression], resolve: Resolver, extend: bool = False
) -> RowsFunction:
    """``rows -> one tuple of the expressions' values per row``, in order;
    with ``extend``, each row with those values appended."""
    parameters: List[object] = []
    items = "".join(f"{_scalar(e, resolve, parameters)}, " for e in expressions)
    row = f"r + ({items})" if extend else f"({items})"
    return _build(f"[{row} for r in rows]", parameters, expressions)

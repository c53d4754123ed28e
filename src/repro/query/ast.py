"""Abstract syntax tree for the SQL subset of the paper.

The paper's optimizer handles SELECT/FROM/WHERE queries without nesting,
whose WHERE clause is a conjunction of comparisons; equality comparisons
between columns are join conditions, everything else is a per-relation
filter.  Aggregates, GROUP BY and ORDER BY appear in the experiments
(TPC-H Q5) and are applied after the conjunctive core is evaluated (step 4
of the paper's pipeline), so they are first-class in the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import QueryError

# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """A (possibly qualified) column reference such as ``c.nationkey``."""

    table: Optional[str]  # alias or table name; None when unqualified
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    """A constant: number, string, or date (dates are ISO strings)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic expression ``left op right`` with op in ``+ - * /``."""

    op: str
    left: "Expression"
    right: "Expression"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class FuncCall:
    """An aggregate or scalar function call, e.g. ``sum(expr)``.

    ``distinct`` models ``count(DISTINCT x)``.
    """

    name: str
    args: Tuple["Expression", ...]
    distinct: bool = False

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class Star:
    """The ``*`` argument of ``count(*)`` or a bare ``SELECT *``."""

    def __str__(self) -> str:
        return "*"


Expression = Union[ColumnRef, Literal, BinaryOp, FuncCall, Star]

AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "min", "max", "avg"})


def column_refs(expression: Expression) -> List[ColumnRef]:
    """All column references appearing in an expression, in textual order."""
    if isinstance(expression, ColumnRef):
        return [expression]
    if isinstance(expression, Literal) or isinstance(expression, Star):
        return []
    if isinstance(expression, BinaryOp):
        return column_refs(expression.left) + column_refs(expression.right)
    if isinstance(expression, FuncCall):
        refs: List[ColumnRef] = []
        for arg in expression.args:
            refs.extend(column_refs(arg))
        return refs
    raise QueryError(f"unknown expression node: {expression!r}")


def contains_aggregate(expression: Expression) -> bool:
    """True if the expression contains an aggregate function call."""
    if isinstance(expression, FuncCall):
        if expression.name.lower() in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(a) for a in expression.args)
    if isinstance(expression, BinaryOp):
        return contains_aggregate(expression.left) or contains_aggregate(
            expression.right
        )
    return False


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">=", "like"})


@dataclass(frozen=True)
class Comparison:
    """A comparison predicate ``left op right``.

    ``column = column`` comparisons are join conditions; everything else is
    a selection filter.
    """

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise QueryError(f"unsupported comparison operator: {self.op!r}")

    @property
    def is_equijoin(self) -> bool:
        """True when this is a column = column equality (a join condition)."""
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BetweenPredicate:
    """``expr BETWEEN low AND high`` — sugar for two comparisons."""

    expr: Expression
    low: Expression
    high: Expression

    def as_comparisons(self) -> Tuple[Comparison, Comparison]:
        return (
            Comparison(">=", self.expr, self.low),
            Comparison("<=", self.expr, self.high),
        )

    def __str__(self) -> str:
        return f"{self.expr} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList:
    """``expr IN (v₁, …, vₙ)`` over constant values — a selection filter."""

    expr: Expression
    values: Tuple[object, ...]

    @property
    def is_equijoin(self) -> bool:
        return False

    @property
    def left(self) -> Expression:
        """Filter-shape compatibility: the tested expression."""
        return self.expr

    def __str__(self) -> str:
        inner = ", ".join(str(Literal(v)) for v in self.values)
        return f"{self.expr} IN ({inner})"


@dataclass(frozen=True)
class InSubquery:
    """``expr IN (SELECT …)`` — flattened to :class:`InList` before
    translation (see :mod:`repro.query.subqueries`); only *uncorrelated*
    subqueries are supported, matching the paper's future-work scope."""

    expr: Expression
    subquery: "SelectQuery"

    @property
    def is_equijoin(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"{self.expr} IN ({self.subquery.to_sql()})"


@dataclass(frozen=True)
class ExistsSubquery:
    """``EXISTS (SELECT …)`` — uncorrelated only; flattened to a constant
    truth value before translation."""

    subquery: "SelectQuery"

    @property
    def is_equijoin(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"EXISTS ({self.subquery.to_sql()})"


Predicate = Union[Comparison, BetweenPredicate, InList, InSubquery, ExistsSubquery]


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause entry: relation name plus effective alias."""

    relation: str
    alias: str

    def __str__(self) -> str:
        if self.alias != self.relation:
            return f"{self.relation} {self.alias}"
        return self.relation


@dataclass(frozen=True)
class SelectItem:
    """One projection in the SELECT list with an optional output alias."""

    expr: Expression
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        """The column name in the answer relation."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return str(self.expr)

    def __str__(self) -> str:
        if self.alias:
            return f"{self.expr} AS {self.alias}"
        return str(self.expr)


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: an expression (or output alias) and a direction."""

    expr: Expression
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expr} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class SelectQuery:
    """A parsed SQL query in the supported subset.

    Attributes:
        select_items: projections (columns, aggregates, arithmetic).
        tables: FROM entries, in clause order.
        predicates: the WHERE conjunction, flattened (BETWEEN desugared).
        group_by: GROUP BY column references.
        order_by: ORDER BY keys.
        distinct: SELECT DISTINCT flag.
        limit: LIMIT value or None.
    """

    select_items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    predicates: Tuple[Comparison, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    distinct: bool = False
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.select_items:
            raise QueryError("SELECT list must not be empty")
        if not self.tables:
            raise QueryError("FROM clause must not be empty")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise QueryError("duplicate table alias in FROM clause")

    @property
    def has_aggregates(self) -> bool:
        return any(contains_aggregate(item.expr) for item in self.select_items)

    def to_sql(self) -> str:
        """Render the query back to SQL text (used by the view builder)."""
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(item) for item in self.select_items))
        parts.append("FROM " + ", ".join(str(t) for t in self.tables))
        if self.predicates:
            parts.append(
                "WHERE " + " AND ".join(str(p) for p in self.predicates)
            )
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_sql()

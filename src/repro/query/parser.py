"""Recursive-descent parser for the SQL subset of the paper.

Grammar (conjunctive WHERE clause, no nesting — §2 of the paper):

    query      := SELECT [DISTINCT] select_list FROM table_list
                  [WHERE conjunction] [GROUP BY columns]
                  [ORDER BY order_list] [LIMIT number] [';']
    select_list:= '*' | select_item (',' select_item)*
    select_item:= expr [[AS] ident]
    table_list := table_ref (',' table_ref)*
    table_ref  := ident [[AS] ident]
    conjunction:= predicate (AND predicate)*
    predicate  := expr comparison_op expr | expr BETWEEN expr AND expr
    expr       := additive arithmetic over primaries
    primary    := column | literal | func '(' args ')' | '(' expr ')'
    literal    := number | string | date_literal [± interval]
    date_literal := DATE string
    interval   := INTERVAL string (YEAR | MONTH | DAY)

``date '…' + interval '1' year`` is constant-folded to an ISO date literal,
so downstream code only ever sees plain values (TPC-H Q5 needs this).
LIKE patterns, ``IN (constants…)``, and *uncorrelated* ``IN (SELECT …)`` /
``EXISTS (SELECT …)`` subqueries are supported (the latter are flattened by
:mod:`repro.query.subqueries` before translation).  OR, NOT, IS NULL,
correlated subqueries and FROM-clause sub-selects are rejected with clear
errors — the conjunctive subset stays honest about its boundaries.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from repro.errors import SqlSyntaxError
from repro.query import ast
from repro.query.lexer import Token, TokenKind, tokenize


def _shift_date(iso_date: str, amount: int, unit: str) -> str:
    """Add ``amount`` units (year/month/day) to an ISO date string."""
    try:
        date = datetime.date.fromisoformat(iso_date)
    except ValueError as exc:
        raise SqlSyntaxError(f"invalid date literal {iso_date!r}") from exc
    unit = unit.lower()
    if unit == "day":
        date = date + datetime.timedelta(days=amount)
    else:
        months = amount * 12 if unit == "year" else amount
        total = date.year * 12 + (date.month - 1) + months
        year, month = divmod(total, 12)
        month += 1
        # Clamp the day to the target month's length (SQL semantics).
        for day in range(date.day, 0, -1):
            try:
                date = datetime.date(year, month, day)
                break
            except ValueError:
                continue
    return date.isoformat()


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers."""

    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.index = 0

    # -- cursor helpers -------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def accept(self, kind: TokenKind, value: "str | None" = None) -> Optional[Token]:
        if self.current.matches(kind, value):
            return self.advance()
        return None

    def accept_keyword(self, word: str) -> Optional[Token]:
        return self.accept(TokenKind.KEYWORD, word)

    def expect(self, kind: TokenKind, value: "str | None" = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            want = value if value is not None else kind.value
            raise SqlSyntaxError(
                f"expected {want!r} but found {self.current.value!r}",
                position=self.current.position,
            )
        return token

    def fail(self, message: str) -> "None":
        raise SqlSyntaxError(message, position=self.current.position)

    # -- grammar --------------------------------------------------------

    def parse_query(self) -> ast.SelectQuery:
        query = self.parse_select_statement()
        self.accept(TokenKind.PUNCT, ";")
        if self.current.kind is not TokenKind.EOF:
            self.fail(f"unexpected trailing input: {self.current.value!r}")
        return query

    def parse_select_statement(self) -> ast.SelectQuery:
        """One SELECT statement; stops before ')', ';' or EOF — reused for
        IN (SELECT …) subqueries."""
        self.expect(TokenKind.KEYWORD, "select")
        distinct = self.accept_keyword("distinct") is not None
        select_items = self.parse_select_list()
        self.expect(TokenKind.KEYWORD, "from")
        tables = self.parse_table_list()
        predicates: Tuple[ast.Comparison, ...] = ()
        if self.accept_keyword("where"):
            predicates = self.parse_conjunction()
        group_by: Tuple[ast.ColumnRef, ...] = ()
        if self.accept_keyword("group"):
            self.expect(TokenKind.KEYWORD, "by")
            group_by = self.parse_column_list()
        order_by: Tuple[ast.OrderItem, ...] = ()
        if self.accept_keyword("order"):
            self.expect(TokenKind.KEYWORD, "by")
            order_by = self.parse_order_list()
        limit: Optional[int] = None
        if self.accept_keyword("limit"):
            token = self.expect(TokenKind.NUMBER)
            if not token.value.isdecimal():
                raise SqlSyntaxError(
                    f"LIMIT takes a whole number of rows, found {token.value!r}",
                    position=token.position,
                )
            limit = int(token.value)
        return ast.SelectQuery(
            select_items=select_items,
            tables=tables,
            predicates=predicates,
            group_by=group_by,
            order_by=order_by,
            distinct=distinct,
            limit=limit,
        )

    def parse_select_list(self) -> Tuple[ast.SelectItem, ...]:
        if self.accept(TokenKind.OPERATOR, "*"):
            return (ast.SelectItem(ast.Star()),)
        items = [self.parse_select_item()]
        while self.accept(TokenKind.PUNCT, ","):
            items.append(self.parse_select_item())
        return tuple(items)

    def parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect(TokenKind.IDENT).value
        else:
            token = self.accept(TokenKind.IDENT)
            if token is not None:
                alias = token.value
        return ast.SelectItem(expr, alias)

    def parse_table_list(self) -> Tuple[ast.TableRef, ...]:
        tables = [self.parse_table_ref()]
        while self.accept(TokenKind.PUNCT, ","):
            tables.append(self.parse_table_ref())
        return tuple(tables)

    def parse_table_ref(self) -> ast.TableRef:
        if self.accept(TokenKind.PUNCT, "("):
            self.fail("nested sub-selects are not supported (future work in the paper)")
        name = self.expect(TokenKind.IDENT).value
        alias = name
        if self.accept_keyword("as"):
            alias = self.expect(TokenKind.IDENT).value
        else:
            token = self.accept(TokenKind.IDENT)
            if token is not None:
                alias = token.value
        return ast.TableRef(relation=name.lower(), alias=alias.lower())

    def parse_conjunction(self) -> Tuple[ast.Comparison, ...]:
        predicates: List[ast.Comparison] = []
        predicates.extend(self.parse_predicate())
        while self.accept_keyword("and"):
            predicates.extend(self.parse_predicate())
        if self.current.matches(TokenKind.KEYWORD, "or"):
            self.fail("OR is not supported: the WHERE clause must be a conjunction")
        return tuple(predicates)

    def parse_predicate(self) -> Tuple[ast.Comparison, ...]:
        if self.current.matches(TokenKind.KEYWORD, "not"):
            self.fail("NOT is not supported in the conjunctive subset")
        if self.accept_keyword("exists"):
            self.expect(TokenKind.PUNCT, "(")
            subquery = self.parse_select_statement()
            self.expect(TokenKind.PUNCT, ")")
            return (ast.ExistsSubquery(subquery),)
        left = self.parse_expression()
        if self.accept_keyword("between"):
            low = self.parse_expression()
            self.expect(TokenKind.KEYWORD, "and")
            high = self.parse_expression()
            return ast.BetweenPredicate(left, low, high).as_comparisons()
        if self.accept_keyword("like"):
            pattern = self.expect(TokenKind.STRING)
            return (ast.Comparison("like", left, ast.Literal(pattern.value)),)
        if self.accept_keyword("in"):
            return (self.parse_in_predicate(left),)
        if self.current.matches(TokenKind.KEYWORD, "is"):
            self.fail("IS NULL is not supported in the conjunctive subset")
        op_token = self.current
        if op_token.kind is not TokenKind.OPERATOR or op_token.value not in ast.COMPARISON_OPS:
            self.fail(f"expected a comparison operator, found {op_token.value!r}")
        self.advance()
        right = self.parse_expression()
        return (ast.Comparison(op_token.value, left, right),)

    def parse_in_predicate(self, left: ast.Expression):
        """``IN (SELECT …)`` or ``IN (literal, …)`` after the IN keyword."""
        self.expect(TokenKind.PUNCT, "(")
        if self.current.matches(TokenKind.KEYWORD, "select"):
            subquery = self.parse_select_statement()
            self.expect(TokenKind.PUNCT, ")")
            return ast.InSubquery(left, subquery)
        values: List[object] = [self.parse_in_value()]
        while self.accept(TokenKind.PUNCT, ","):
            values.append(self.parse_in_value())
        self.expect(TokenKind.PUNCT, ")")
        return ast.InList(left, tuple(values))

    def parse_in_value(self) -> object:
        """One constant of an IN list (literals only)."""
        expression = self.parse_expression()
        if not isinstance(expression, ast.Literal):
            self.fail("IN lists may contain only constant values")
        return expression.value

    def parse_column_list(self) -> Tuple[ast.ColumnRef, ...]:
        columns = [self.parse_column_ref()]
        while self.accept(TokenKind.PUNCT, ","):
            columns.append(self.parse_column_ref())
        return tuple(columns)

    def parse_column_ref(self) -> ast.ColumnRef:
        first = self.expect(TokenKind.IDENT).value
        if self.accept(TokenKind.PUNCT, "."):
            second = self.expect(TokenKind.IDENT).value
            return ast.ColumnRef(first.lower(), second.lower())
        return ast.ColumnRef(None, first.lower())

    def parse_order_list(self) -> Tuple[ast.OrderItem, ...]:
        items = [self.parse_order_item()]
        while self.accept(TokenKind.PUNCT, ","):
            items.append(self.parse_order_item())
        return tuple(items)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return ast.OrderItem(expr, descending)

    # -- expressions ----------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self.parse_additive()

    def parse_additive(self) -> ast.Expression:
        expr = self.parse_multiplicative()
        while True:
            if self.accept(TokenKind.OPERATOR, "+"):
                right = self.parse_interval_or_multiplicative()
                expr = self._fold_date_shift(expr, right, +1)
            elif self.accept(TokenKind.OPERATOR, "-"):
                right = self.parse_interval_or_multiplicative()
                expr = self._fold_date_shift(expr, right, -1)
            else:
                return expr

    def parse_interval_or_multiplicative(self) -> ast.Expression:
        interval = self.try_parse_interval()
        if interval is not None:
            return interval
        return self.parse_multiplicative()

    def try_parse_interval(self) -> Optional[ast.Expression]:
        if not self.current.matches(TokenKind.KEYWORD, "interval"):
            return None
        self.advance()
        amount_token = self.expect(TokenKind.STRING)
        try:
            amount = int(amount_token.value)
        except ValueError:
            raise SqlSyntaxError(
                f"interval amount must be an integer, got {amount_token.value!r}",
                position=amount_token.position,
            ) from None
        unit_token = self.current
        if unit_token.kind is TokenKind.KEYWORD and unit_token.value.lower() in (
            "year",
            "month",
            "day",
        ):
            self.advance()
            return _Interval(amount, unit_token.value.lower())
        self.fail("expected YEAR, MONTH or DAY after INTERVAL amount")
        return None  # pragma: no cover

    def _fold_date_shift(
        self, left: ast.Expression, right: ast.Expression, sign: int
    ) -> ast.Expression:
        if isinstance(right, _Interval):
            if not (isinstance(left, ast.Literal) and isinstance(left.value, str)):
                self.fail("INTERVAL arithmetic is only supported on date literals")
            shifted = _shift_date(left.value, sign * right.amount, right.unit)
            return ast.Literal(shifted)
        op = "+" if sign > 0 else "-"
        return ast.BinaryOp(op, left, right)

    def parse_multiplicative(self) -> ast.Expression:
        expr = self.parse_unary()
        while True:
            if self.accept(TokenKind.OPERATOR, "*"):
                expr = ast.BinaryOp("*", expr, self.parse_unary())
            elif self.accept(TokenKind.OPERATOR, "/"):
                expr = ast.BinaryOp("/", expr, self.parse_unary())
            else:
                return expr

    def parse_unary(self) -> ast.Expression:
        if self.accept(TokenKind.OPERATOR, "-"):
            inner = self.parse_unary()
            if isinstance(inner, ast.Literal) and isinstance(
                inner.value, (int, float)
            ):
                return ast.Literal(-inner.value)
            return ast.BinaryOp("-", ast.Literal(0), inner)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expression:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            value = float(token.value) if "." in token.value or "e" in token.value.lower() else int(token.value)
            return ast.Literal(value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.matches(TokenKind.KEYWORD, "date"):
            self.advance()
            literal = self.expect(TokenKind.STRING)
            # Validate eagerly so bad dates fail at parse time.
            _shift_date(literal.value, 0, "day")
            return ast.Literal(literal.value)
        if token.kind is TokenKind.PUNCT and token.value == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect(TokenKind.PUNCT, ")")
            return expr
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.accept(TokenKind.PUNCT, "("):
                return self.parse_call(token.value)
            if self.accept(TokenKind.PUNCT, "."):
                column = self.expect(TokenKind.IDENT).value
                return ast.ColumnRef(token.value.lower(), column.lower())
            return ast.ColumnRef(None, token.value.lower())
        self.fail(f"unexpected token {token.value!r} in expression")
        raise AssertionError  # pragma: no cover

    def parse_call(self, name: str) -> ast.Expression:
        distinct = self.accept_keyword("distinct") is not None
        if self.accept(TokenKind.OPERATOR, "*"):
            self.expect(TokenKind.PUNCT, ")")
            return ast.FuncCall(name.lower(), (ast.Star(),), distinct=distinct)
        args: List[ast.Expression] = []
        if not self.current.matches(TokenKind.PUNCT, ")"):
            args.append(self.parse_expression())
            while self.accept(TokenKind.PUNCT, ","):
                args.append(self.parse_expression())
        self.expect(TokenKind.PUNCT, ")")
        return ast.FuncCall(name.lower(), tuple(args), distinct=distinct)


class _Interval(ast.Literal):
    """Internal marker for a parsed INTERVAL; folded away before returning."""

    def __init__(self, amount: int, unit: str):
        super().__init__((amount, unit))
        object.__setattr__(self, "amount", amount)
        object.__setattr__(self, "unit", unit)


def parse_sql(sql: str) -> ast.SelectQuery:
    """Parse ``sql`` into a :class:`repro.query.ast.SelectQuery`.

    Raises:
        SqlSyntaxError: on lexical or syntactic errors, with the character
            position of the failure.
    """
    return _Parser(sql).parse_query()

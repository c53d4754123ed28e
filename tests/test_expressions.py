"""Tests for the row-expression compiler, against the closure-tree oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import expressions
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.engine.expressions import compile_filter, compile_rows
from repro.errors import ExecutionError, ReproError
from repro.query import ast
from repro.relational import AttributeType, Database, RelationSchema
from repro.service.server import QueryService
from tests import expression_oracle as oracle


def resolver(mapping):
    return lambda ref: mapping[ref.column]


def value_of(expression, row, mapping):
    """One expression over one row, compiled; the oracle must agree."""
    resolve = resolver(mapping)
    [(value,)] = compile_rows([expression], resolve)([row])
    assert value == oracle.compile_scalar(expression, resolve)(row)
    return value


def keeps(predicate, row, mapping):
    """Whether one compiled filter keeps ``row``; the oracle must agree."""
    resolve = resolver(mapping)
    kept = compile_filter(predicate, resolve)([row]) == [row]
    assert kept is bool(oracle.compile_filter(predicate, resolve)(row))
    return kept


class TestScalar:
    def test_literal(self):
        assert value_of(ast.Literal(42), (), {}) == 42

    def test_column(self):
        assert value_of(ast.ColumnRef(None, "a"), (10, 20), {"a": 1}) == 20

    def test_arithmetic(self):
        # a * (1 - b)
        expr = ast.BinaryOp(
            "*",
            ast.ColumnRef(None, "a"),
            ast.BinaryOp("-", ast.Literal(1), ast.ColumnRef(None, "b")),
        )
        assert value_of(expr, (100.0, 0.1), {"a": 0, "b": 1}) == pytest.approx(90.0)

    def test_division(self):
        expr = ast.BinaryOp("/", ast.ColumnRef(None, "a"), ast.Literal(4))
        assert value_of(expr, (10,), {"a": 0}) == 2.5

    def test_aggregate_rejected(self):
        expr = ast.FuncCall("sum", (ast.ColumnRef(None, "a"),))
        with pytest.raises(ExecutionError, match="aggregate"):
            compile_rows([expr], resolver({"a": 0}))

    def test_unknown_function_rejected(self):
        expr = ast.FuncCall("sqrt", (ast.Literal(4),))
        with pytest.raises(ExecutionError):
            compile_rows([expr], resolver({}))

    def test_star_rejected(self):
        with pytest.raises(ExecutionError):
            compile_rows([ast.Star()], resolver({}))


class TestPredicate:
    def test_all_comparisons(self):
        for op, expected in [
            ("=", False), ("<>", True), ("<", True),
            ("<=", True), (">", False), (">=", False),
        ]:
            comparison = ast.Comparison(op, ast.ColumnRef(None, "a"), ast.Literal(5))
            assert keeps(comparison, (3,), {"a": 0}) is expected

    def test_column_to_column(self):
        comparison = ast.Comparison(
            "=", ast.ColumnRef(None, "a"), ast.ColumnRef(None, "b")
        )
        assert keeps(comparison, (7, 7), {"a": 0, "b": 1})
        assert not keeps(comparison, (7, 8), {"a": 0, "b": 1})

    def test_type_error_wrapped(self):
        keep = compile_filter(
            ast.Comparison("<", ast.ColumnRef(None, "a"), ast.Literal(5)),
            resolver({"a": 0}),
        )
        with pytest.raises(ExecutionError, match="type error"):
            keep([("string",)])

    # The oracle's conjunction: how ``reference_scan`` ANDs a row's filters.

    def test_conjunction(self):
        p1 = lambda row: row[0] > 1
        p2 = lambda row: row[0] < 5
        combined = oracle.conjunction([p1, p2])
        assert combined((3,))
        assert not combined((7,))

    def test_empty_conjunction_is_true(self):
        assert oracle.conjunction([])(())

    def test_single_conjunction_is_identity(self):
        p = lambda row: False
        assert oracle.conjunction([p]) is p


class TestLike:
    CASES = [
        # (value, pattern, matches)
        ("abc\n", "abc", False),  # a trailing newline is a character
        ("a\nb", "%", True),  # % spans newlines
        ("a\nb", "a_b", True),  # _ is any one character, newline included
        ("abc", "a%", True),
        ("abc", "%c", True),
        ("abc", "a_c", True),
        ("abc", "a_", False),
        ("", "%", True),
        ("", "_", False),
        ("a.c", "a.c", True),
        ("abc", "a.c", False),  # regex metacharacters are literal
        ("a*", "a*", True),
        ("aaa", "a*", False),
        ("(x)[y]", "(x)[y]", True),
        ("a\\b", "a\\b", True),
        (7, "%", False),
        (None, "%", False),
        ("7", 7, False),
    ]

    @pytest.mark.parametrize("value, pattern, matches", CASES)
    def test_literal_pattern(self, value, pattern, matches):
        comparison = ast.Comparison(
            "like", ast.ColumnRef(None, "a"), ast.Literal(pattern)
        )
        assert keeps(comparison, (value,), {"a": 0}) is matches

    @pytest.mark.parametrize("value, pattern, matches", CASES)
    def test_pattern_from_a_column(self, value, pattern, matches):
        comparison = ast.Comparison(
            "like", ast.ColumnRef(None, "a"), ast.ColumnRef(None, "p")
        )
        assert keeps(comparison, (value, pattern), {"a": 0, "p": 1}) is matches

    def test_literal_pattern_compiled_once(self, monkeypatch):
        import re

        compiled = []
        real_compile = re.compile
        monkeypatch.setattr(
            re, "compile", lambda *args: compiled.append(args) or real_compile(*args)
        )
        keep = compile_filter(
            ast.Comparison("like", ast.ColumnRef(None, "a"), ast.Literal("a%")),
            resolver({"a": 0}),
        )
        assert keep([("ab",), ("b",), ("a",)]) == [("ab",), ("a",)]
        assert len(compiled) == 1


class TestGeneratedSource:
    """The source handed to ``eval`` holds indices, fixed operators and
    parameter names only; literals travel as parameters."""

    @staticmethod
    def _bodies(monkeypatch):
        bodies = []
        factory = expressions._factory

        def spy(parameters, body):
            bodies.append(body)
            return factory(parameters, body)

        monkeypatch.setattr(expressions, "_factory", spy)
        return bodies

    HOSTILE = "'); import os; ('"

    def test_a_literal_is_a_value_never_source(self, monkeypatch):
        bodies = self._bodies(monkeypatch)
        a = ast.ColumnRef(None, "a")
        hostile = ast.Literal(self.HOSTILE)
        rows = [(self.HOSTILE,), ("x",)]
        assert compile_rows([hostile, a], resolver({"a": 0}))(rows[:1]) == [
            (self.HOSTILE, self.HOSTILE)
        ]
        for predicate in (
            ast.Comparison("=", a, hostile),
            ast.Comparison("like", a, hostile),
            ast.InList(a, (self.HOSTILE, 3)),
        ):
            assert compile_filter(predicate, resolver({"a": 0}))(rows) == rows[:1]
        assert len(bodies) == 4
        assert not any("import" in body or "'" in body for body in bodies)

    def test_one_body_is_compiled_once(self):
        a = ast.ColumnRef(None, "a")
        compile_filter(ast.Comparison("<", a, ast.Literal(1)), resolver({"a": 0}))
        before = expressions._factory.cache_info()
        for value in (2, "x", None):
            compile_filter(ast.Comparison("<", a, ast.Literal(value)), resolver({"a": 0}))
        after = expressions._factory.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)

    def test_source_shapes(self, monkeypatch):
        bodies = self._bodies(monkeypatch)
        a, b = ast.ColumnRef(None, "a"), ast.ColumnRef(None, "b")
        resolve = resolver({"a": 6, "b": 2})
        compile_filter(ast.Comparison("=", a, ast.Literal(1)), resolve)
        derived = ast.BinaryOp("*", a, ast.BinaryOp("-", ast.Literal(1), b))
        compile_rows([derived], resolve, extend=True)
        compile_rows([a, b], resolve)
        assert bodies == [
            "[r for r in rows if (r[6] == c0)]",
            "[r + ((r[6] * (c0 - r[2])), ) for r in rows]",
            "[(r[6], r[2], ) for r in rows]",
        ]


# ---------------------------------------------------------------------------
# The compiler against the oracle, over random expressions and rows
# ---------------------------------------------------------------------------

COLUMNS = ("a", "b", "s", "t")
VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-12, 12).map(lambda n: n / 4),
    st.sampled_from(["", "ab", "a%", "a\nb", "x_y", "abc"]),
)
PATTERNS = st.sampled_from(["%", "a%", "_b", "a_b", "abc", "", "%\n%", 3])


def _column(draw):
    return ast.ColumnRef(None, draw(st.sampled_from(COLUMNS)))


@st.composite
def scalars(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.booleans()):
            return _column(draw)
        return ast.Literal(draw(VALUES))
    return ast.BinaryOp(
        draw(st.sampled_from(["+", "-", "*", "/"])),
        draw(scalars(depth=depth - 1)),
        draw(scalars(depth=depth - 1)),
    )


@st.composite
def predicates(draw):
    shape = draw(st.sampled_from(["compare", "like-literal", "like-computed", "in"]))
    left = draw(scalars())
    if shape == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return ast.Comparison(op, left, draw(scalars()))
    if shape == "like-literal":
        return ast.Comparison("like", left, ast.Literal(draw(PATTERNS)))
    if shape == "like-computed":
        return ast.Comparison("like", left, draw(scalars()))
    return ast.InList(left, tuple(draw(st.lists(VALUES, max_size=4))))


ROWS = st.lists(st.tuples(*(VALUES for _ in COLUMNS)), max_size=8)
RESOLVE = resolver({column: i for i, column in enumerate(COLUMNS)})


def _root(exc):
    """The Python error under an ``ExecutionError`` wrapper."""
    return type(exc.__cause__) if isinstance(exc, ExecutionError) else type(exc)


def _outcome(run):
    try:
        return "ok", run()
    except (ExecutionError, TypeError, ArithmeticError) as exc:
        return "error", _root(exc)


class TestAgainstTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(predicate=predicates(), rows=ROWS)
    def test_filter(self, predicate, rows):
        keep = oracle.compile_filter(predicate, RESOLVE)
        expected = _outcome(lambda: [r for r in rows if keep(r)])
        assert _outcome(lambda: compile_filter(predicate, RESOLVE)(rows)) == expected

    @settings(max_examples=400, deadline=None)
    @given(
        items=st.lists(scalars(), max_size=3), rows=ROWS, extend=st.booleans()
    )
    def test_rows(self, items, rows, extend):
        values = [oracle.compile_scalar(item, RESOLVE) for item in items]

        def reference():
            out = [tuple(value(r) for value in values) for r in rows]
            return [r + v for r, v in zip(rows, out)] if extend else out

        got = _outcome(lambda: compile_rows(items, RESOLVE, extend)(rows))
        assert got == _outcome(reference)
        if got[0] == "error":
            with pytest.raises(ExecutionError, match=" error evaluating "):
                compile_rows(items, RESOLVE, extend)(rows)


# ---------------------------------------------------------------------------
# One error policy, end to end
# ---------------------------------------------------------------------------


@pytest.fixture()
def numbers_service():
    database = Database("numbers")
    database.create_table(
        RelationSchema.of("n", {"k": AttributeType.INT, "name": AttributeType.STRING}),
        [(1, "one"), (2, "two")],
    )
    with QueryService(SimulatedDBMS(database, COMMDB_PROFILE), workers=1) as service:
        yield service


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT k FROM n WHERE k / 0 = 1", "arithmetic error evaluating (k / 0) = 1"),
        ("SELECT sum(k / (k - k)) FROM n", "arithmetic error evaluating (k / (k - k))"),
        ("SELECT name - 1 FROM n", "type error evaluating (name - 1)"),
        ("SELECT sum(name - 1) FROM n", "type error evaluating (name - 1)"),
    ],
)
def test_evaluation_errors_are_typed_through_the_service(numbers_service, sql, message):
    with pytest.raises(ReproError) as caught:
        numbers_service.execute(sql)
    assert isinstance(caught.value, ExecutionError)
    assert str(caught.value).startswith(message), str(caught.value)
    assert numbers_service.execute("SELECT k FROM n").finished

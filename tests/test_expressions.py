"""Tests for scalar/predicate compilation."""

import pytest

from repro.errors import ExecutionError
from repro.engine.expressions import (
    compile_filter,
    compile_predicate,
    compile_scalar,
    conjunction,
)
from repro.query import ast


def resolver(mapping):
    return lambda ref: mapping[ref.column]


class TestScalar:
    def test_literal(self):
        fn = compile_scalar(ast.Literal(42), resolver({}))
        assert fn(()) == 42

    def test_column(self):
        fn = compile_scalar(ast.ColumnRef(None, "a"), resolver({"a": 1}))
        assert fn((10, 20)) == 20

    def test_arithmetic(self):
        # a * (1 - b)
        expr = ast.BinaryOp(
            "*",
            ast.ColumnRef(None, "a"),
            ast.BinaryOp("-", ast.Literal(1), ast.ColumnRef(None, "b")),
        )
        fn = compile_scalar(expr, resolver({"a": 0, "b": 1}))
        assert fn((100.0, 0.1)) == pytest.approx(90.0)

    def test_division(self):
        expr = ast.BinaryOp("/", ast.ColumnRef(None, "a"), ast.Literal(4))
        assert compile_scalar(expr, resolver({"a": 0}))((10,)) == 2.5

    def test_aggregate_rejected(self):
        expr = ast.FuncCall("sum", (ast.ColumnRef(None, "a"),))
        with pytest.raises(ExecutionError, match="aggregate"):
            compile_scalar(expr, resolver({"a": 0}))

    def test_unknown_function_rejected(self):
        expr = ast.FuncCall("sqrt", (ast.Literal(4),))
        with pytest.raises(ExecutionError):
            compile_scalar(expr, resolver({}))

    def test_star_rejected(self):
        with pytest.raises(ExecutionError):
            compile_scalar(ast.Star(), resolver({}))


class TestPredicate:
    def test_all_comparisons(self):
        for op, expected in [
            ("=", False), ("<>", True), ("<", True),
            ("<=", True), (">", False), (">=", False),
        ]:
            pred = compile_predicate(
                ast.Comparison(op, ast.ColumnRef(None, "a"), ast.Literal(5)),
                resolver({"a": 0}),
            )
            assert pred((3,)) is expected

    def test_column_to_column(self):
        pred = compile_predicate(
            ast.Comparison("=", ast.ColumnRef(None, "a"), ast.ColumnRef(None, "b")),
            resolver({"a": 0, "b": 1}),
        )
        assert pred((7, 7))
        assert not pred((7, 8))

    def test_type_error_wrapped(self):
        pred = compile_predicate(
            ast.Comparison("<", ast.ColumnRef(None, "a"), ast.Literal(5)),
            resolver({"a": 0}),
        )
        with pytest.raises(ExecutionError, match="type error"):
            pred(("string",))

    def test_conjunction(self):
        p1 = lambda row: row[0] > 1
        p2 = lambda row: row[0] < 5
        combined = conjunction([p1, p2])
        assert combined((3,))
        assert not combined((7,))

    def test_empty_conjunction_is_true(self):
        assert conjunction([])(())

    def test_single_conjunction_is_identity(self):
        p = lambda row: False
        assert conjunction([p]) is p


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
        pred = compile_filter(
            ast.Comparison("like", ast.ColumnRef(None, "a"), ast.Literal(pattern)),
            resolver({"a": 0}),
        )
        assert pred((value,)) is matches

    @pytest.mark.parametrize("value, pattern, matches", CASES)
    def test_pattern_from_a_column(self, value, pattern, matches):
        pred = compile_filter(
            ast.Comparison("like", ast.ColumnRef(None, "a"), ast.ColumnRef(None, "p")),
            resolver({"a": 0, "p": 1}),
        )
        assert pred((value, pattern)) is matches

    def test_literal_pattern_compiled_once(self, monkeypatch):
        import re

        compiled = []
        real_compile = re.compile
        monkeypatch.setattr(
            re, "compile", lambda *args: compiled.append(args) or real_compile(*args)
        )
        pred = compile_filter(
            ast.Comparison("like", ast.ColumnRef(None, "a"), ast.Literal("a%")),
            resolver({"a": 0}),
        )
        assert [pred((v,)) for v in ("ab", "b", "a")] == [True, False, True]
        assert len(compiled) == 1

"""Tests for the SQL parser."""

import pytest

from repro.errors import SqlSyntaxError
from repro.query import ast
from repro.query.parser import parse_sql


class TestBasicQueries:
    def test_minimal(self):
        q = parse_sql("SELECT a FROM t")
        assert len(q.select_items) == 1
        assert q.tables == (ast.TableRef("t", "t"),)
        assert q.predicates == ()

    def test_star(self):
        q = parse_sql("SELECT * FROM t")
        assert isinstance(q.select_items[0].expr, ast.Star)

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_aliases(self):
        q = parse_sql("SELECT n1.n_name FROM nation n1, nation AS n2")
        assert q.tables == (
            ast.TableRef("nation", "n1"),
            ast.TableRef("nation", "n2"),
        )

    def test_select_alias_forms(self):
        q = parse_sql("SELECT a AS x, b y FROM t")
        assert q.select_items[0].alias == "x"
        assert q.select_items[1].alias == "y"

    def test_qualified_columns(self):
        q = parse_sql("SELECT t.a FROM t WHERE t.a = t.b")
        assert q.select_items[0].expr == ast.ColumnRef("t", "a")

    def test_trailing_semicolon(self):
        assert parse_sql("SELECT a FROM t;").tables[0].relation == "t"

    def test_limit(self):
        assert parse_sql("SELECT a FROM t LIMIT 10").limit == 10


class TestWhere:
    def test_conjunction_flattened(self):
        q = parse_sql("SELECT a FROM t WHERE a = b AND b = c AND c > 5")
        assert len(q.predicates) == 3

    def test_equijoin_detection(self):
        q = parse_sql("SELECT a FROM t, s WHERE t.a = s.b AND t.c = 1")
        assert [p.is_equijoin for p in q.predicates] == [True, False]

    def test_between_desugars(self):
        q = parse_sql("SELECT a FROM t WHERE a BETWEEN 1 AND 5")
        assert len(q.predicates) == 2
        assert q.predicates[0].op == ">="
        assert q.predicates[1].op == "<="

    def test_or_rejected(self):
        with pytest.raises(SqlSyntaxError, match="OR"):
            parse_sql("SELECT a FROM t WHERE a = 1 OR a = 2")

    def test_in_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t WHERE a IN b")

    def test_not_rejected(self):
        with pytest.raises(SqlSyntaxError, match="NOT"):
            parse_sql("SELECT a FROM t WHERE NOT a = 1")

    def test_like_supported(self):
        q = parse_sql("SELECT a FROM t WHERE a LIKE 'x%'")
        assert q.predicates[0].op == "like"
        assert q.predicates[0].right == ast.Literal("x%")
        assert not q.predicates[0].is_equijoin

    def test_nested_select_rejected(self):
        with pytest.raises(SqlSyntaxError, match="nested"):
            parse_sql("SELECT a FROM (SELECT a FROM t) s")

    def test_string_comparison(self):
        q = parse_sql("SELECT a FROM t WHERE name = 'ASIA'")
        assert q.predicates[0].right == ast.Literal("ASIA")


class TestDatesAndIntervals:
    def test_date_literal(self):
        q = parse_sql("SELECT a FROM t WHERE d >= date '1994-01-01'")
        assert q.predicates[0].right == ast.Literal("1994-01-01")

    def test_invalid_date_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t WHERE d >= date 'not-a-date'")

    def test_interval_year_folded(self):
        q = parse_sql(
            "SELECT a FROM t WHERE d < date '1994-01-01' + interval '1' year"
        )
        assert q.predicates[0].right == ast.Literal("1995-01-01")

    def test_interval_month_folded(self):
        q = parse_sql(
            "SELECT a FROM t WHERE d < date '1994-11-15' + interval '3' month"
        )
        assert q.predicates[0].right == ast.Literal("1995-02-15")

    def test_interval_day_subtraction(self):
        q = parse_sql(
            "SELECT a FROM t WHERE d < date '1994-01-01' - interval '1' day"
        )
        assert q.predicates[0].right == ast.Literal("1993-12-31")

    def test_interval_clamps_month_end(self):
        q = parse_sql(
            "SELECT a FROM t WHERE d < date '1994-01-31' + interval '1' month"
        )
        assert q.predicates[0].right == ast.Literal("1994-02-28")

    def test_interval_on_non_date_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t WHERE d < a + interval '1' year")


class TestExpressions:
    def test_arithmetic_precedence(self):
        q = parse_sql("SELECT a + b * c FROM t")
        expr = q.select_items[0].expr
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_parentheses(self):
        q = parse_sql("SELECT (a + b) * c FROM t")
        expr = q.select_items[0].expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus_folds_literals(self):
        q = parse_sql("SELECT -5 FROM t")
        assert q.select_items[0].expr == ast.Literal(-5)

    def test_aggregate_call(self):
        q = parse_sql("SELECT sum(a * (1 - b)) AS revenue FROM t")
        expr = q.select_items[0].expr
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "sum"
        assert q.select_items[0].output_name == "revenue"

    def test_count_star(self):
        q = parse_sql("SELECT count(*) FROM t")
        expr = q.select_items[0].expr
        assert expr.name == "count"
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        q = parse_sql("SELECT count(DISTINCT a) FROM t")
        assert q.select_items[0].expr.distinct

    def test_float_literal(self):
        q = parse_sql("SELECT a FROM t WHERE x > 0.05")
        assert q.predicates[0].right == ast.Literal(0.05)


class TestGroupOrder:
    def test_group_by(self):
        q = parse_sql("SELECT a, count(*) FROM t GROUP BY a")
        assert q.group_by == (ast.ColumnRef(None, "a"),)
        assert q.has_aggregates

    def test_order_by_directions(self):
        q = parse_sql("SELECT a, b FROM t ORDER BY a DESC, b ASC, a")
        assert [o.descending for o in q.order_by] == [True, False, False]

    def test_full_tpch_q5_parses(self):
        from repro.workloads.tpch_queries import query_q5

        q = parse_sql(query_q5())
        assert len(q.tables) == 6
        assert len(q.predicates) == 9  # 6 joins + 3 filters (date folded)
        assert q.group_by
        assert q.order_by[0].descending

    def test_full_tpch_q8_parses(self):
        from repro.workloads.tpch_queries import query_q8

        q = parse_sql(query_q8())
        assert len(q.tables) == 8
        aliases = [t.alias for t in q.tables]
        assert "n1" in aliases and "n2" in aliases


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a")

    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse_sql("SELECT a FROM t 42 42")

    def test_empty_input(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("")

    def test_missing_comparison(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t WHERE a")

    def test_duplicate_alias(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            parse_sql("SELECT a FROM t x, s x")

    @pytest.mark.parametrize("count", ["1.5", "1e3", "2.0"])
    def test_limit_takes_a_whole_number(self, count):
        sql = f"SELECT a FROM t LIMIT {count}"
        with pytest.raises(SqlSyntaxError, match=f"LIMIT .*{count!r}") as caught:
            parse_sql(sql)
        assert caught.value.position == sql.index(count)

    def test_non_integer_limit_is_a_typed_error_through_the_service(
        self, chain_db, chain_sql
    ):
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
        from repro.errors import ReproError
        from repro.service.server import QueryService

        with QueryService(SimulatedDBMS(chain_db, COMMDB_PROFILE), workers=1) as svc:
            for count in ("1.5", "1e3"):
                with pytest.raises(ReproError, match=repr(count)) as caught:
                    svc.execute(f"{chain_sql} LIMIT {count}")
                assert isinstance(caught.value, SqlSyntaxError)
            assert svc.execute(f"{chain_sql} LIMIT 1").finished


class TestRoundTrip:
    def test_to_sql_reparses(self):
        original = parse_sql(
            "SELECT a, sum(b) AS total FROM t, s WHERE t.a = s.a AND b > 3 "
            "GROUP BY a ORDER BY total DESC LIMIT 5"
        )
        again = parse_sql(original.to_sql())
        assert again == original

"""Tests for SQL post-processing (step 4 of the paper's pipeline)."""

import pytest

from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import SimulatedDBMS
from repro.engine.postprocess import apply_sql_semantics
from repro.errors import QueryError
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, Relation, RelationSchema

SCHEMA = {"emp": ["dept", "salary", "bonus"]}


def make_answer(tr, rows):
    """An answer relation over the translation's output variables."""
    return Relation(list(tr.query.output), rows)


def translate(sql):
    return sql_to_conjunctive(parse_sql(sql), SCHEMA)


class TestPlainSelect:
    def test_column_selection_and_aliasing(self):
        tr = translate("SELECT dept AS d, salary FROM emp")
        answer = make_answer(tr, [("eng", 100), ("sales", 200)])
        out = apply_sql_semantics(answer, tr)
        assert out.attributes == ("d", "salary")

    def test_arithmetic(self):
        tr = translate("SELECT salary * 2 AS dbl FROM emp")
        answer = make_answer(tr, [(100,), (150,)])
        out = apply_sql_semantics(answer, tr)
        assert sorted(out.tuples) == [(200,), (300,)]

    def test_star_passthrough(self):
        tr = translate("SELECT * FROM emp")
        answer = make_answer(tr, [("eng", 1, 2)])
        out = apply_sql_semantics(answer, tr)
        assert len(out.attributes) == 3

    def test_duplicate_output_names_deduped(self):
        tr = translate("SELECT salary, salary FROM emp")
        answer = make_answer(tr, [(100,)])
        out = apply_sql_semantics(answer, tr)
        assert len(set(out.attributes)) == 2

    @pytest.mark.parametrize(
        "items, expected",
        [
            ("dept AS a, dept AS a, salary AS a_1", ("a", "a_2", "a_1")),
            ("salary AS a_1, dept AS a, dept AS a", ("a_1", "a", "a_2")),
            ("dept AS a, dept AS a, dept AS a", ("a", "a_1", "a_2")),
            ("dept AS a, salary AS a_1, bonus AS a_2, dept AS a", ("a", "a_1", "a_2", "a_3")),
        ],
    )
    def test_a_renamed_duplicate_takes_a_free_suffix(self, items, expected):
        tr = translate(f"SELECT {items} FROM emp")
        answer = make_answer(tr, [tuple(range(len(tr.query.output)))])
        assert apply_sql_semantics(answer, tr).attributes == expected


class TestAggregates:
    def test_sum_of_expression(self):
        tr = translate(
            "SELECT dept, sum(salary * (1 - bonus)) AS rev FROM emp GROUP BY dept"
        )
        answer = make_answer(tr, [("eng", 100, 0.1), ("eng", 200, 0.5)])
        out = apply_sql_semantics(answer, tr)
        assert out.tuples == [("eng", pytest.approx(190.0))]

    def test_global_aggregate(self):
        tr = translate("SELECT sum(salary) AS total FROM emp")
        answer = make_answer(tr, [(100,), (200,)])
        out = apply_sql_semantics(answer, tr)
        assert out.tuples == [(300,)]

    def test_selected_column_must_be_grouped(self):
        tr = translate("SELECT dept, sum(salary) FROM emp GROUP BY bonus")
        answer = Relation(list(tr.query.output), [])
        with pytest.raises(QueryError, match="GROUP BY"):
            apply_sql_semantics(answer, tr)

    def test_complex_select_item_rejected(self):
        tr = translate("SELECT salary + 1, sum(bonus) FROM emp GROUP BY salary")
        answer = Relation(list(tr.query.output), [])
        with pytest.raises(QueryError):
            apply_sql_semantics(answer, tr)

    def test_multiple_aggregates(self):
        tr = translate(
            "SELECT dept, min(salary) AS lo, max(salary) AS hi FROM emp GROUP BY dept"
        )
        answer = make_answer(tr, [("eng", 100), ("eng", 300), ("sales", 50)])
        out = apply_sql_semantics(answer, tr)
        rows = {r[0]: r[1:] for r in out.tuples}
        assert rows["eng"] == (100, 300)
        assert rows["sales"] == (50, 50)


class TestOrderLimit:
    def test_order_by_output_alias(self):
        tr = translate("SELECT dept, sum(salary) AS total FROM emp GROUP BY dept ORDER BY total DESC")
        answer = make_answer(tr, [("a", 10), ("b", 30), ("c", 20)])
        out = apply_sql_semantics(answer, tr)
        assert [r[1] for r in out.tuples] == [30, 20, 10]

    def test_order_by_column(self):
        tr = translate("SELECT dept, salary FROM emp ORDER BY salary")
        answer = make_answer(tr, [("a", 3), ("b", 1), ("c", 2)])
        out = apply_sql_semantics(answer, tr)
        assert [r[1] for r in out.tuples] == [1, 2, 3]

    def test_limit(self):
        tr = translate("SELECT salary FROM emp ORDER BY salary LIMIT 2")
        answer = make_answer(tr, [(3,), (1,), (2,)])
        out = apply_sql_semantics(answer, tr)
        assert out.tuples == [(1,), (2,)]

    def test_distinct(self):
        tr = translate("SELECT DISTINCT dept FROM emp")
        answer = make_answer(tr, [("a",), ("a",), ("b",)])
        out = apply_sql_semantics(answer, tr)
        assert len(out) == 2

    @pytest.mark.parametrize(
        "sql, rows, expected",
        [
            (
                "SELECT DISTINCT emp.dept FROM emp ORDER BY emp.dept",
                [("b",), ("c",), ("a",)],
                [("a",), ("b",), ("c",)],
            ),
            (
                "SELECT emp.dept, count(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
                [("b",), ("a",)],
                [("a", 1), ("b", 1)],
            ),
            (
                "SELECT DISTINCT emp.dept AS x FROM emp ORDER BY emp.dept DESC",
                [("a",), ("c",), ("b",)],
                [("c",), ("b",), ("a",)],
            ),
            (
                "SELECT emp.salary AS a, emp.dept AS a FROM emp ORDER BY emp.dept",
                [(1, "b"), (2, "a")],
                [(2, "a"), (1, "b")],
            ),
        ],
    )
    def test_order_by_a_qualified_selected_column(self, sql, rows, expected):
        tr = translate(sql)
        assert apply_sql_semantics(make_answer(tr, rows), tr).tuples == expected

    def test_order_by_an_unselected_column_is_rejected(self):
        tr = translate("SELECT emp.salary FROM emp ORDER BY emp.dept")
        with pytest.raises(QueryError, match="not part of the SELECT output"):
            apply_sql_semantics(make_answer(tr, [(1,)]), tr)

    def test_engine_and_qhd_order_alike(self):
        db = Database("emp")
        db.create_table(
            RelationSchema.of("emp", {"dept": AttributeType.STRING, "salary": AttributeType.INT}),
            [("b", 1), ("a", 2), ("c", 3), ("a", 4)],
        )
        db.analyze()
        sql = "SELECT emp.dept, count(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept DESC"
        engine = SimulatedDBMS(db).run_sql(sql).relation.tuples
        qhd = HybridOptimizer(db).optimize(sql).execute().relation.tuples
        assert engine == qhd == [("c", 1), ("b", 1), ("a", 1)]

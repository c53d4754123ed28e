"""Tests for the cardinality estimator both optimizers share."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import DecompositionCostModel
from repro.core.optimizer import cost_model_from_database
from repro.engine.cost import (
    DEFAULT_DISTINCT,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    UNIFORM_DISTINCT,
    Estimate,
    atom_estimates,
    filters_selectivity,
    join,
)
from repro.query import ast
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, RelationSchema


def make_database(s_rows=50):
    database = Database("est")
    database.create_table(
        RelationSchema.of("t", {"a": AttributeType.INT, "b": AttributeType.INT}),
        [(i % 10, i) for i in range(100)],
    )
    database.create_table(
        RelationSchema.of("s", {"b": AttributeType.INT, "c": AttributeType.INT}),
        [(i, i % 5) for i in range(s_rows)],
    )
    return database


@pytest.fixture()
def db():
    database = make_database()
    database.analyze()
    return database


def translation_for(db, sql):
    return sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())


def rows_for(db, sql):
    """The engine's estimate of the one atom ``t`` of ``sql``."""
    return atom_estimates(translation_for(db, sql), db, True)["t"].rows


class TestAtomEstimates:
    def test_with_statistics(self, db):
        tr = translation_for(db, "SELECT t.a FROM t, s WHERE t.b = s.b")
        estimates = atom_estimates(tr, db, use_statistics=True)
        assert estimates["t"].rows == 100
        assert estimates["s"].rows == 50

    def test_without_statistics_knows_physical_size(self, db):
        # Like a real DBMS before ANALYZE: relpages give row counts, but
        # distincts fall back to defaults.
        tr = translation_for(db, "SELECT t.a FROM t, s WHERE t.b = s.b")
        estimates = atom_estimates(tr, db, use_statistics=False)
        assert estimates["t"].rows == 100
        # The default clamped to the 100 rows, not the true 10.
        assert estimates["t"].distinct[tr.variable_for("t", "a")] == 100.0

    def test_filters_reduce_estimate(self, db):
        # equality on a (10 distinct) → 100/10 = 10 rows
        assert rows_for(db, "SELECT t.b FROM t WHERE t.a = 3") == pytest.approx(10.0)


class TestPartialStatistics:
    """``t`` analyzed, ``s`` not: the two optimizers fall back differently."""

    SQL = "SELECT t.a, s.c FROM t, s WHERE t.b = s.b AND t.a = 3"

    @pytest.fixture()
    def half_analyzed(self):
        database = make_database(s_rows=500)
        database.analyze("t")
        return database

    def test_engine_falls_back_per_atom(self, half_analyzed):
        tr = translation_for(half_analyzed, self.SQL)
        a, b, c = (tr.variable_for(*ref) for ref in (("t", "a"), ("t", "b"), ("s", "c")))
        estimates = atom_estimates(tr, half_analyzed, True)
        # t keeps its statistics: 100 rows at 1/10 for t.a = 3, true
        # distincts clamped to the 10 rows.
        assert estimates["t"].rows == 10.0
        assert estimates["t"].distinct == {a: 10.0, b: 10.0}
        # s alone falls back: physical row count, the default distinct.
        assert estimates["s"].rows == 500.0
        assert estimates["s"].distinct == {b: DEFAULT_DISTINCT, c: DEFAULT_DISTINCT}

    def test_decomposition_model_falls_back_for_the_whole_query(self, half_analyzed):
        tr = translation_for(half_analyzed, self.SQL)
        uniform = DecompositionCostModel.uniform(tr.query).atom_estimates
        model = cost_model_from_database(tr, half_analyzed, True)
        assert model.atom_estimates == uniform
        half_analyzed.analyze("s")
        model = cost_model_from_database(tr, half_analyzed, True)
        assert model.atom_estimates != uniform
        assert model.atom_estimates["t"].rows == 10.0


class TestFilterSelectivity:
    def test_equality_with_stats(self, db):
        stats = db.stats_for("t")
        comp = ast.Comparison("=", ast.ColumnRef(None, "a"), ast.Literal(1))
        assert filters_selectivity((comp,), stats) == pytest.approx(0.1)

    def test_equality_without_stats(self):
        comp = ast.Comparison("=", ast.ColumnRef(None, "a"), ast.Literal(1))
        assert filters_selectivity((comp,), None) == DEFAULT_EQ_SELECTIVITY

    def test_inequality(self, db):
        stats = db.stats_for("t")
        comp = ast.Comparison("<>", ast.ColumnRef(None, "a"), ast.Literal(1))
        assert filters_selectivity((comp,), stats) == pytest.approx(0.9)

    def test_numeric_range_interpolation(self, db):
        stats = db.stats_for("t")
        # b ranges over 0..99; b < 25 → ~25%
        comp = ast.Comparison("<", ast.ColumnRef(None, "b"), ast.Literal(25))
        sel = filters_selectivity((comp,), stats)
        assert 0.2 < sel < 0.3

    @pytest.mark.parametrize(
        "literal_left, column_left, rows",
        [
            ("90 < t.b", "t.b > 90", 100 * 9 / 99),
            ("90 <= t.b", "t.b >= 90", 100 * 9 / 99),
            ("10 > t.b", "t.b < 10", 100 * 10 / 99),
            ("10 >= t.b", "t.b <= 10", 100 * 10 / 99),
        ],
        ids=["<", "<=", ">", ">="],
    )
    def test_literal_on_the_left_mirrors_the_operator(
        self, db, literal_left, column_left, rows
    ):
        # b ranges over 0..99: the estimate keeps the filter's direction.
        got = rows_for(db, f"SELECT t.a FROM t WHERE {literal_left}")
        assert got == rows_for(db, f"SELECT t.a FROM t WHERE {column_left}")
        assert got == pytest.approx(rows)

    def test_in_list_counts_distinct_constants(self, db):
        # a has 10 distinct values: one constant, however often, is 1/10.
        once = rows_for(db, "SELECT t.b FROM t WHERE t.a IN (3)")
        assert once == pytest.approx(10.0)
        assert rows_for(db, "SELECT t.b FROM t WHERE t.a IN (3, 3, 3, 3)") == once
        assert rows_for(db, "SELECT t.b FROM t WHERE t.a IN (3, 4, 3)") == 2 * once

    def test_range_without_stats_uses_default(self):
        comp = ast.Comparison(">", ast.ColumnRef(None, "b"), ast.Literal(25))
        assert filters_selectivity((comp,), None) == DEFAULT_RANGE_SELECTIVITY

    def test_date_range(self):
        from repro.relational.statistics import AttributeStatistics, TableStatistics

        stats = TableStatistics(
            "o",
            1000,
            {
                "d": AttributeStatistics(
                    n_distinct=365,
                    min_value="1994-01-01",
                    max_value="1994-12-31",
                )
            },
        )
        comp = ast.Comparison(
            ">=", ast.ColumnRef(None, "d"), ast.Literal("1994-07-01")
        )
        sel = filters_selectivity((comp,), stats)
        assert 0.3 < sel < 0.7

    def test_combined_filters_multiply(self, db):
        stats = db.stats_for("t")
        comp = ast.Comparison("=", ast.ColumnRef(None, "a"), ast.Literal(1))
        assert filters_selectivity((comp, comp), stats) == pytest.approx(0.01)


def textbook_join(left, right, shared_variables):
    """The reference for :func:`join`: the textbook formula with builtin
    ``min``/``max`` and the dict order spelled out — left's variables, then
    right's unseen ones."""

    def clamped(estimate, variable):
        value = estimate.distinct.get(variable, UNIFORM_DISTINCT)
        return max(min(value, estimate.rows), 1.0)

    rows = left.rows * right.rows
    for variable in shared_variables:
        rows /= max(clamped(left, variable), clamped(right, variable))
    rows = max(rows, 0.0)
    distinct = {}
    for variable in list(left.distinct) + [
        v for v in right.distinct if v not in left.distinct
    ]:
        if variable in left.distinct and variable in right.distinct:
            value = min(left.distinct[variable], right.distinct[variable])
        else:
            value = left.distinct.get(variable, right.distinct.get(variable))
        distinct[variable] = max(min(value, rows), 1.0)
    return Estimate(rows, distinct)


size_estimates = st.builds(
    Estimate,
    st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e9, allow_nan=False)),
    st.dictionaries(
        st.sampled_from(["o_orderkey", "c_custkey", "n_name", "x", "y", "z"]),
        st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e9, allow_nan=False)),
        max_size=6,
    ),
)


class TestJoinEstimates:
    @settings(max_examples=300, deadline=None)
    @given(left=size_estimates, right=size_estimates, data=st.data())
    def test_join_floats_and_dict_order_are_hash_independent(
        self, left, right, data
    ):
        # Bit for bit against the reference: rows, distinct values and the
        # order of ``distinct`` — what a later product multiplies in, so it
        # must be insertion order, not a set's (string hashing).  Shared
        # variables an estimate lacks take the default.
        shared = tuple(
            data.draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True))
        )
        got = join(left, right, shared)
        want = textbook_join(left, right, shared)
        assert float(got.rows).hex() == float(want.rows).hex()
        assert [(v, float(d).hex()) for v, d in got.distinct.items()] == [
            (v, float(d).hex()) for v, d in want.distinct.items()
        ]

    def test_textbook_formula(self):
        left = Estimate(100, {"x": 10})
        right = Estimate(200, {"x": 20})
        joined = join(left, right, ("x",))
        assert joined.rows == pytest.approx(100 * 200 / 20)

    def test_cross_product(self):
        left = Estimate(10, {})
        right = Estimate(20, {})
        assert join(left, right, ()).rows == 200

    def test_distincts_propagate_min(self):
        left = Estimate(100, {"x": 10, "y": 50})
        right = Estimate(100, {"x": 30})
        joined = join(left, right, ("x",))
        assert joined.distinct["x"] == 10
        assert joined.distinct["y"] == 50

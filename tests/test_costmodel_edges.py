"""Edge-case tests for the decomposition cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import DecompositionCostModel
from repro.engine.cost import UNIFORM_DISTINCT, Estimate, join
from repro.query.builder import ConjunctiveQueryBuilder
from tests.test_engine_cost import textbook_join

positive = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


class TestAtomEstimate:
    """How :func:`join` reads an atom estimate's distinct counts."""

    def test_distinct_capped_by_cardinality(self):
        est = Estimate(10, {"X": 500})
        # Read as 10, not 500: 10·100 / max(10, 5).
        assert join(est, Estimate(100, {"X": 5}), ["X"]).rows == 100

    def test_distinct_floor_is_one(self):
        est = Estimate(10, {"X": 0.0})
        assert join(est, est, ["X"]).rows == 100
        assert join(est, est, []).distinct["X"] == 1.0

    def test_unknown_variable_defaults(self):
        est = Estimate(1000, {})
        assert join(est, est, ["zzz"]).rows == 1000 * 1000 / UNIFORM_DISTINCT


estimates = st.builds(
    Estimate,
    st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e9, allow_nan=False)),
    st.dictionaries(
        st.sampled_from("ABCDEFGH"),
        st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e9, allow_nan=False)),
        max_size=6,
    ),
)


class TestJoinMath:
    @settings(max_examples=300, deadline=None)
    @given(left=estimates, right=estimates, data=st.data())
    def test_join_is_bit_identical_to_the_textbook_form(self, left, right, data):
        # The join the decomposition model folds with spells min/max out as
        # comparisons; same floats, same dict order (``project`` multiplies
        # in that order).  Shared variables may be on one side, both or
        # neither.
        shared = data.draw(st.lists(st.sampled_from("ABCDEFGH"), unique=True))
        got = join(left, right, shared)
        want = textbook_join(left, right, shared)
        assert float(got.rows).hex() == float(want.rows).hex()
        assert [(v, float(d).hex()) for v, d in got.distinct.items()] == [
            (v, float(d).hex()) for v, d in want.distinct.items()
        ]

    @settings(max_examples=60, deadline=None)
    @given(l_card=positive, r_card=positive, l_d=positive, r_d=positive)
    def test_join_size_bounded_by_cross_product(self, l_card, r_card, l_d, r_d):
        left = Estimate(l_card, {"X": min(l_d, l_card)})
        right = Estimate(r_card, {"X": min(r_d, r_card)})
        joined = join(left, right, ["X"])
        assert joined.rows <= l_card * r_card + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(card=positive, d=positive)
    def test_join_symmetric(self, card, d):
        a = Estimate(card, {"X": min(d, card)})
        b = Estimate(card * 2, {"X": min(d * 3, card * 2)})
        ab = join(a, b, ["X"])
        ba = join(b, a, ["X"])
        assert ab.rows == pytest.approx(ba.rows)

    def test_multi_variable_join_divides_per_variable(self):
        a = Estimate(100, {"X": 10, "Y": 5})
        b = Estimate(100, {"X": 10, "Y": 5})
        joined = join(a, b, ["X", "Y"])
        assert joined.rows == pytest.approx(100 * 100 / (10 * 5))

    def test_projection_never_grows(self):
        est = Estimate(500, {"X": 100, "Y": 3})
        model = DecompositionCostModel({})
        projected = model.project(est, ["Y"])
        assert projected.rows <= est.rows
        assert projected.rows <= 3 + 1e-9

    def test_projection_to_nothing(self):
        est = Estimate(500, {"X": 100})
        model = DecompositionCostModel({})
        projected = model.project(est, [])
        assert projected.rows >= 1.0


class TestNodeEstimate:
    def test_node_estimate_matches_manual_fold(self):
        q = (
            ConjunctiveQueryBuilder()
            .atom("a", "ra", "X", "Y")
            .atom("b", "rb", "Y", "Z")
            .output("X")
            .build()
        )
        model = DecompositionCostModel(
            {
                "a": Estimate(100, {"X": 10, "Y": 20}),
                "b": Estimate(50, {"Y": 25, "Z": 5}),
            }
        )
        atom_vars = {atom.name: atom.variables for atom in q.atoms}
        joined, cost = model.join_atoms(["a", "b"], atom_vars)
        estimate = model.project(joined, frozenset({"X", "Y", "Z"}))
        # 100·50 / max(20, 25) = 200 joined rows.
        assert estimate.rows == pytest.approx(200)
        assert cost > 0

    def test_stitch_reduces_to_chi(self):
        parent = Estimate(100, {"X": 10, "Y": 10})
        child = Estimate(50, {"Y": 10, "Z": 5})
        cost, stitched = DecompositionCostModel.stitch(
            parent, child, frozenset({"X", "Y"})
        )
        assert "Z" not in stitched.distinct
        joined = join(parent, child, ["Y"])
        assert stitched.rows == joined.rows
        assert cost == 100 + 50 + joined.rows

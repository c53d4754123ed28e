"""Edge-case tests for the decomposition cost model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import (
    AtomEstimate,
    DecompositionCostModel,
    JoinEstimate,
)
from repro.query.builder import ConjunctiveQueryBuilder

positive = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


class TestAtomEstimate:
    def test_distinct_capped_by_cardinality(self):
        est = AtomEstimate(cardinality=10, distinct={"X": 500})
        assert est.distinct_of("X") == 10

    def test_distinct_floor_is_one(self):
        est = AtomEstimate(cardinality=10, distinct={"X": 0.0})
        assert est.distinct_of("X") == 1.0

    def test_unknown_variable_defaults(self):
        est = AtomEstimate(cardinality=1000, distinct={})
        assert est.distinct_of("zzz") > 0


def textbook_join(left, right, shared_variables):
    """``DecompositionCostModel.join`` as first written, builtins and all."""
    size = left.cardinality * right.cardinality
    for variable in shared_variables:
        size /= max(left.distinct_of(variable), right.distinct_of(variable))
    size = max(size, 0.0)
    distinct = {}
    # Dict order: left's variables, then right's unseen ones.
    for variable in list(left.distinct) + [
        v for v in right.distinct if v not in left.distinct
    ]:
        if variable in left.distinct and variable in right.distinct:
            estimate = min(left.distinct[variable], right.distinct[variable])
        else:
            estimate = left.distinct.get(
                variable, right.distinct.get(variable, 100.0)
            )
        distinct[variable] = max(min(estimate, size), 1.0)
    return JoinEstimate(size, distinct)


estimates = st.builds(
    JoinEstimate,
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
        # The production join spells min/max out as comparisons; same floats,
        # same dict order (``project`` multiplies in that order).
        shared = data.draw(st.lists(st.sampled_from("ABCDEFGH"), unique=True))
        got = DecompositionCostModel.join(left, right, shared)
        want = textbook_join(left, right, shared)
        assert float(got.cardinality).hex() == float(want.cardinality).hex()
        assert [(v, float(d).hex()) for v, d in got.distinct.items()] == [
            (v, float(d).hex()) for v, d in want.distinct.items()
        ]

    @settings(max_examples=60, deadline=None)
    @given(l_card=positive, r_card=positive, l_d=positive, r_d=positive)
    def test_join_size_bounded_by_cross_product(self, l_card, r_card, l_d, r_d):
        left = JoinEstimate(l_card, {"X": min(l_d, l_card)})
        right = JoinEstimate(r_card, {"X": min(r_d, r_card)})
        joined = DecompositionCostModel.join(left, right, ["X"])
        assert joined.cardinality <= l_card * r_card + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(card=positive, d=positive)
    def test_join_symmetric(self, card, d):
        a = JoinEstimate(card, {"X": min(d, card)})
        b = JoinEstimate(card * 2, {"X": min(d * 3, card * 2)})
        ab = DecompositionCostModel.join(a, b, ["X"])
        ba = DecompositionCostModel.join(b, a, ["X"])
        assert ab.cardinality == pytest.approx(ba.cardinality)

    def test_multi_variable_join_divides_per_variable(self):
        a = JoinEstimate(100, {"X": 10, "Y": 5})
        b = JoinEstimate(100, {"X": 10, "Y": 5})
        joined = DecompositionCostModel.join(a, b, ["X", "Y"])
        assert joined.cardinality == pytest.approx(100 * 100 / (10 * 5))

    def test_projection_never_grows(self):
        est = JoinEstimate(500, {"X": 100, "Y": 3})
        model = DecompositionCostModel({})
        projected = model.project(est, ["Y"])
        assert projected.cardinality <= est.cardinality
        assert projected.cardinality <= 3 + 1e-9

    def test_projection_to_nothing(self):
        est = JoinEstimate(500, {"X": 100})
        model = DecompositionCostModel({})
        projected = model.project(est, [])
        assert projected.cardinality >= 1.0


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
                "a": AtomEstimate(100, {"X": 10, "Y": 20}),
                "b": AtomEstimate(50, {"Y": 25, "Z": 5}),
            }
        )
        atom_vars = {atom.name: atom.variables for atom in q.atoms}
        joined, cost = model.join_atoms(["a", "b"], atom_vars)
        estimate = model.project(joined, frozenset({"X", "Y", "Z"}))
        # 100·50 / max(20, 25) = 200 joined rows.
        assert estimate.cardinality == pytest.approx(200)
        assert cost > 0

    def test_stitch_reduces_to_chi(self):
        parent = JoinEstimate(100, {"X": 10, "Y": 10})
        child = JoinEstimate(50, {"Y": 10, "Z": 5})
        cost, stitched = DecompositionCostModel.stitch(
            parent, child, frozenset({"X", "Y"})
        )
        assert "Z" not in stitched.distinct
        joined = DecompositionCostModel.join(parent, child, ["Y"])
        assert stitched.cardinality == joined.cardinality
        assert cost == 100 + 50 + joined.cardinality

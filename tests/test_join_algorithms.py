"""Tests for the physical join operators (hash / nested loops)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.dbms import COMMDB_PROFILE, EngineProfile, SimulatedDBMS
from repro.engine.plan import JoinNode, ScanNode
from repro.metering import WorkMeter
from repro.relational import Relation

values = st.integers(min_value=0, max_value=4)


@st.composite
def relation_pair(draw):
    n1 = draw(st.integers(min_value=0, max_value=10))
    n2 = draw(st.integers(min_value=0, max_value=10))
    r = Relation(["a", "j"], [(draw(values), draw(values)) for _ in range(n1)], name="r")
    s = Relation(["j", "b"], [(draw(values), draw(values)) for _ in range(n2)], name="s")
    return r, s


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(pair=relation_pair())
    def test_nlj_equals_hash(self, pair):
        r, s = pair
        assert r.nested_loop_join(s).same_content(r.natural_join(s))

    def test_nlj_cross_product(self):
        r = Relation(["a"], [(1,), (2,)])
        s = Relation(["b"], [(3,), (4,)])
        assert len(r.nested_loop_join(s)) == 4

    def test_semijoin_no_shared_attributes(self):
        """⋉ with disjoint schemas: all-or-nothing on the right's emptiness."""
        left = Relation(["a", "b"], [(1, 2), (3, 4)], name="l")
        assert left.semijoin(Relation(["z"], [(9,)])).tuples == left.tuples
        assert left.semijoin(Relation(["z"], [])).tuples == []

    def test_work_categories(self):
        r = Relation(["j"], [(1,), (2,)])
        s = Relation(["j"], [(1,), (3,)])
        meter = WorkMeter()
        r.nested_loop_join(s, meter=meter)
        assert meter.by_category["nlj-pair"] == 4


class TestPlannerSelection:
    def test_nlj_for_tiny_inputs(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        # region is estimated at ~1 row after its filter → NLJ fires.
        dbms = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE)
        result = dbms.run_sql(query_q5())
        assert "NestedLoopJoin" in result.plan_text
        assert result.finished

    def test_nlj_threshold_zero_disables(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        profile = EngineProfile(name="hashonly", nlj_threshold=0.0)
        dbms = SimulatedDBMS(tiny_tpch, profile)
        result = dbms.run_sql(query_q5())
        assert "NestedLoopJoin" not in result.plan_text

    def test_all_algorithms_agree_on_q5(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        # COMMDB_PROFILE runs nested loops on the tiny region input; a zero
        # threshold makes every join a hash join.
        with_nlj = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE).run_sql(query_q5())
        hash_only = SimulatedDBMS(
            tiny_tpch, EngineProfile(name="hashonly", nlj_threshold=0.0)
        ).run_sql(query_q5())
        assert "NestedLoopJoin" in with_nlj.plan_text
        assert "NestedLoopJoin" not in hash_only.plan_text
        assert with_nlj.relation.same_content(hash_only.relation)

    def test_plan_node_labels(self):
        join = JoinNode(ScanNode("a", "a"), ScanNode("b", "b"), ("x",), algorithm="nlj")
        assert "NestedLoopJoin" in str(join)

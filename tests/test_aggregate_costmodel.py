"""Tests for the aggregate-aware cost-model extension (paper's future work)."""

import pytest

from repro.core.costkdecomp import cost_k_decomp
from repro.core.costmodel import DecompositionCostModel
from repro.engine.cost import Estimate
from repro.core.optimizer import HybridOptimizer
from repro.core.qhd import q_hypertree_decomp
from repro.query.builder import ConjunctiveQueryBuilder


def chain_query(n):
    builder = ConjunctiveQueryBuilder("chain")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % n}")
    return builder.output("V0").build()


class TestOutputWeight:
    def test_zero_weight_is_baseline(self):
        q = chain_query(6)
        model = DecompositionCostModel.uniform(q)
        baseline = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"V0"}
        )
        weighted_zero = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"V0"}, output_weight=0.0
        )
        assert baseline[1] == weighted_zero[1]

    def test_positive_weight_increases_cost(self):
        q = chain_query(6)
        model = DecompositionCostModel.uniform(q)
        _, base_cost = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"V0"}
        )
        _, weighted_cost = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"V0"}, output_weight=5.0
        )
        assert weighted_cost > base_cost

    def test_qhd_accepts_weight(self):
        q = chain_query(5)
        tree = q_hypertree_decomp(q, 2, output_weight=2.0)
        assert tree.is_q_hypertree_decomposition(q.output_variables)

    def test_weight_can_change_the_chosen_root(self):
        # Two candidate roots for a triangle query; make one atom's answer
        # contribution huge so the aggregate term penalizes plans whose
        # root relation is large.
        q = (
            ConjunctiveQueryBuilder("t")
            .atom("big", "rbig", "A", "B")
            .atom("s1", "r1", "B", "C")
            .atom("s2", "r2", "C", "A")
            .output("A")
            .build()
        )
        model = DecompositionCostModel(
            {
                "big": Estimate(5000, {"A": 5000, "B": 50}),
                "s1": Estimate(50, {"B": 50, "C": 50}),
                "s2": Estimate(50, {"C": 50, "A": 40}),
            }
        )
        tree_plain, cost_plain = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"A"}
        )
        tree_weighted, cost_weighted = cost_k_decomp(
            q.hypergraph(), 2, model, required_root_cover={"A"}, output_weight=100.0
        )
        assert cost_weighted >= cost_plain


class TestHybridOptimizerIntegration:
    def test_include_aggregates_flag(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        plain = HybridOptimizer(tiny_tpch, max_width=3)
        weighted = HybridOptimizer(
            tiny_tpch, max_width=3, include_aggregates=True, aggregate_weight=2.0
        )
        p1 = plain.optimize(query_q5())
        p2 = weighted.optimize(query_q5())
        # Both must be valid q-HDs and produce identical answers.
        r1, r2 = p1.execute(), p2.execute()
        assert r1.relation.same_content(r2.relation)

    def test_no_effect_without_aggregates(self, chain_db, chain_sql):
        weighted = HybridOptimizer(
            chain_db, max_width=2, include_aggregates=True, aggregate_weight=10.0
        )
        plan = weighted.optimize(chain_sql)  # no aggregates in this query
        assert plan.execute().finished

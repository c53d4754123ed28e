"""Tests for HybridOptimizer and the tight PostgreSQL-style coupling."""

import pytest

from repro.errors import DecompositionNotFound
from repro.core.integration import install_structural_optimizer
from repro.core.optimizer import HybridOptimizer, cost_model_from_database
from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS


class TestHybridOptimizer:
    def test_optimize_produces_qhd(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        plan = optimizer.optimize(chain_sql)
        out = plan.translation.query.output_variables
        assert plan.decomposition.is_q_hypertree_decomposition(out)
        assert out <= plan.decomposition.root.chi
        assert plan.width <= 2 + 1  # atom assignment may widen λ labels

    def test_execute_matches_engine(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        result = optimizer.optimize(chain_sql).execute()
        baseline = SimulatedDBMS(chain_db, COMMDB_PROFILE).run_sql(chain_sql)
        assert result.relation.same_content(baseline.relation)

    def test_decomposition_seconds_recorded(self, chain_db, chain_sql):
        plan = HybridOptimizer(chain_db, max_width=2).optimize(chain_sql)
        assert plan.decomposition_seconds >= 0.0

    def test_failure_when_width_too_small(self, chain_db):
        # Output variables from all four atoms cannot be covered at width 1.
        sql = """
        SELECT r0.a0, r1.a1, r2.a2, r3.a3 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        with pytest.raises(DecompositionNotFound):
            HybridOptimizer(chain_db, max_width=1).optimize(sql)

    def test_structural_mode_without_statistics(self, chain_db, chain_sql):
        chain_db.statistics.clear()
        optimizer = HybridOptimizer(chain_db, max_width=2)
        plan = optimizer.optimize(chain_sql)
        assert not plan.used_statistics
        assert plan.execute().finished

    def test_work_budget_dnf(self, chain_db, chain_sql):
        plan = HybridOptimizer(chain_db, max_width=2).optimize(chain_sql)
        result = plan.execute(work_budget=5)
        assert not result.finished
        assert result.relation is None

    def test_explain_text(self, chain_db, chain_sql):
        plan = HybridOptimizer(chain_db, max_width=2).optimize(chain_sql)
        assert "λ=" in plan.explain()

    def test_tpch_q5_and_q8(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5, query_q8

        optimizer = HybridOptimizer(tiny_tpch, max_width=3)
        dbms = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE)
        for sql in (query_q5(), query_q8()):
            plan = optimizer.optimize(sql)
            result = plan.execute()
            baseline = dbms.run_sql(sql)
            assert result.relation.same_content(baseline.relation)


class TestCostModelFromDatabase:
    def test_uses_statistics(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        tr = dbms.translate(chain_sql)
        model = cost_model_from_database(tr, chain_db, use_statistics=True)
        assert model.atom_estimates["r0"].rows == 40

    def test_uniform_without_statistics(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        tr = dbms.translate(chain_sql)
        model = cost_model_from_database(tr, chain_db, use_statistics=False)
        assert model.atom_estimates["r0"].rows == 1000.0

    def test_falls_back_when_stats_missing(self, chain_db, chain_sql):
        chain_db.statistics.clear()
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        tr = dbms.translate(chain_sql)
        model = cost_model_from_database(tr, chain_db, use_statistics=True)
        assert model.atom_estimates["r0"].rows == 1000.0


class TestTightCoupling:
    def test_coupled_engine_uses_decomposition(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(dbms, max_width=2)
        result = dbms.run_sql(chain_sql)
        assert result.optimizer == "q-hd"
        assert "λ=" in result.plan_text

    def test_answers_match_stock_engine(self, chain_db, chain_sql):
        stock = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        baseline = stock.run_sql(chain_sql)
        coupled = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(coupled, max_width=2)
        result = coupled.run_sql(chain_sql)
        assert result.relation.same_content(baseline.relation)

    def test_fallback_to_builtin(self, chain_db):
        # Width 1 cannot cover a 4-variable output: fallback fires.
        sql = """
        SELECT r0.a0, r1.a1, r2.a2, r3.a3 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        dbms = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(dbms, max_width=1, fallback_to_builtin=True)
        result = dbms.run_sql(sql)
        assert result.finished
        assert "builtin fallback" in result.plan_text

    def test_no_fallback_raises(self, chain_db):
        sql = """
        SELECT r0.a0, r1.a1, r2.a2, r3.a3 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        dbms = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(dbms, max_width=1, fallback_to_builtin=False)
        with pytest.raises(DecompositionNotFound):
            dbms.run_sql(sql)

    def test_uninstall_restores_builtin(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(dbms, max_width=2)
        dbms.set_optimizer_handler(None)
        result = dbms.run_sql(chain_sql)
        assert result.optimizer == "dp-leftdeep"

    def test_fallback_answer_matches_direct_run(self, chain_db):
        # The degraded path must produce exactly what the stock engine does.
        sql = """
        SELECT r0.a0, r1.a1, r2.a2, r3.a3 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        stock = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        baseline = stock.run_sql(sql)
        coupled = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        install_structural_optimizer(coupled, max_width=1, fallback_to_builtin=True)
        result = coupled.run_sql(sql)
        assert result.optimizer == "builtin-fallback"
        assert result.relation.same_content(baseline.relation)
        assert sorted(result.relation.tuples) == sorted(baseline.relation.tuples)


class TestCostModelCaching:
    def test_model_built_once_for_identical_runs(
        self, chain_db, chain_sql, monkeypatch
    ):
        import repro.core.integration as integration

        calls = {"n": 0}
        real = integration.cost_model_from_database

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            integration, "cost_model_from_database", counting
        )
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        install_structural_optimizer(dbms, max_width=2)
        first = dbms.run_sql(chain_sql)
        second = dbms.run_sql(chain_sql)
        assert first.relation.same_content(second.relation)
        assert calls["n"] == 1

    def test_model_rebuilt_after_analyze(
        self, chain_db, chain_sql, monkeypatch
    ):
        import repro.core.integration as integration

        calls = {"n": 0}
        real = integration.cost_model_from_database

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(
            integration, "cost_model_from_database", counting
        )
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        install_structural_optimizer(dbms, max_width=2)
        dbms.run_sql(chain_sql)
        chain_db.analyze()  # bumps the statistics version
        dbms.run_sql(chain_sql)
        assert calls["n"] == 2

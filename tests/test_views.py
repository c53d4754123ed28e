"""Tests for the SQL view rewriting (stand-alone mode)."""

import pytest

from repro.core.optimizer import HybridOptimizer
from repro.core.views import (
    _sanitize_variables,
    decomposition_to_sql_views,
    execute_view_plan,
)
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.query.parser import parse_sql


class TestSanitize:
    def test_dots_become_underscores(self):
        mapping = _sanitize_variables(["customer.c_custkey"])
        assert mapping["customer.c_custkey"] == "customer_c_custkey"

    def test_collisions_get_suffixes(self):
        mapping = _sanitize_variables(["a.b_c", "a_b.c"])
        assert len(set(mapping.values())) == 2

    def test_leading_digit_prefixed(self):
        mapping = _sanitize_variables(["1abc"])
        assert mapping["1abc"][0].isalpha()


class TestViewPlan:
    @pytest.fixture()
    def plan(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        return optimizer.optimize(chain_sql)

    def test_one_view_per_node(self, plan):
        view_plan = plan.to_sql_views()
        assert len(view_plan.views) == len(plan.decomposition)

    def test_views_in_dependency_order(self, plan):
        view_plan = plan.to_sql_views()
        defined = set()
        for name, sql in view_plan.views:
            parsed = parse_sql(sql)
            for table in parsed.tables:
                if table.relation.startswith("hdv"):
                    assert table.relation in defined
            defined.add(name)

    def test_every_view_parses_in_our_subset(self, plan):
        view_plan = plan.to_sql_views()
        for _name, sql in view_plan.views:
            parsed = parse_sql(sql)
            assert parsed.distinct  # views are SELECT DISTINCT

    def test_final_select_targets_root_view(self, plan):
        view_plan = plan.to_sql_views()
        final = parse_sql(view_plan.final_sql)
        assert final.tables[0].relation == view_plan.root_view

    def test_create_statements(self, plan):
        view_plan = plan.to_sql_views()
        creates = view_plan.create_statements()
        assert len(creates) == len(view_plan.views)
        assert creates[0].startswith("CREATE VIEW ")

    def test_render_is_complete_script(self, plan):
        text = plan.to_sql_views().render()
        assert text.count("CREATE VIEW") == len(plan.decomposition)
        assert text.strip().endswith(";")

    def test_custom_prefix(self, plan):
        view_plan = plan.to_sql_views(view_prefix="zzz")
        assert all(name.startswith("zzz_") for name, _ in view_plan.views)


class TestExecution:
    def test_views_match_direct_execution(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        plan = optimizer.optimize(chain_sql)
        view_plan = plan.to_sql_views()

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        direct = dbms.run_sql(chain_sql)
        via_views = execute_view_plan(view_plan, dbms)
        assert direct.relation.same_content(via_views.relation)

    def test_temporaries_dropped_after_execution(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        view_plan = optimizer.optimize(chain_sql).to_sql_views()
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        before = set(chain_db.table_names)
        execute_view_plan(view_plan, dbms)
        assert set(chain_db.table_names) == before

    def test_temporaries_dropped_on_failure(self, chain_db, chain_sql):
        optimizer = HybridOptimizer(chain_db, max_width=2)
        view_plan = optimizer.optimize(chain_sql).to_sql_views()
        # Sabotage the final statement so execution fails midway.
        view_plan.final_sql = "SELECT nope FROM nowhere"
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        before = set(chain_db.table_names)
        with pytest.raises(Exception):
            execute_view_plan(view_plan, dbms)
        assert set(chain_db.table_names) == before

    def test_order_by_rewritten_into_final_select(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        plan = HybridOptimizer(tiny_tpch, max_width=3).optimize(query_q5())
        final = parse_sql(plan.to_sql_views().final_sql)
        # ORDER BY revenue DESC survives as an alias reference.
        assert final.order_by
        assert final.order_by[0].descending

    def test_group_by_rewritten_to_view_columns(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        plan = HybridOptimizer(tiny_tpch, max_width=3).optimize(query_q5())
        view_plan = plan.to_sql_views()
        final = parse_sql(view_plan.final_sql)
        assert final.group_by
        # Group-by column is a sanitized variable column of the root view.
        assert final.group_by[0].column in view_plan.variable_columns.values()

    def test_aggregate_final_select(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q5

        optimizer = HybridOptimizer(tiny_tpch, max_width=3)
        plan = optimizer.optimize(query_q5())
        view_plan = plan.to_sql_views()
        dbms = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE)
        via_views = execute_view_plan(view_plan, dbms)
        direct = dbms.run_sql(query_q5())
        assert direct.relation.same_content(via_views.relation)

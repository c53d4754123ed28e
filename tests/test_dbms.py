"""End-to-end tests for the simulated DBMS façade."""

import pytest

from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import (
    COMMDB_PROFILE,
    POSTGRES_PROFILE,
    EngineProfile,
    SimulatedDBMS,
)
from repro.engine.scans import atom_relations
from repro.relational import AttributeType, Database, RelationSchema

from tests.conftest import brute_force_answer


class TestRunSql:
    def test_simple_join(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql)
        assert result.finished
        assert result.optimizer == "dp-bushy"
        assert result.relation is not None

    def test_matches_brute_force(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql)
        translation = dbms.translate(chain_sql)
        rels = atom_relations(translation.query, chain_db, translation)
        expected = brute_force_answer(translation.query, rels)
        assert result.answer.same_content(expected)

    def test_postgres_profile_leftdeep(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, POSTGRES_PROFILE)
        result = dbms.run_sql(chain_sql)
        assert result.optimizer == "dp-leftdeep"

    def test_geqo_kicks_in_above_threshold(self, chain_db, chain_sql):
        profile = EngineProfile(name="pg", search="leftdeep", geqo_threshold=3)
        dbms = SimulatedDBMS(chain_db, profile)
        result = dbms.run_sql(chain_sql)  # 4 relations ≥ threshold 3
        assert result.optimizer == "geqo"

    def test_syntactic_mode(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql, optimizer_enabled=False)
        assert result.optimizer == "syntactic"
        baseline = dbms.run_sql(chain_sql)
        assert result.relation.same_content(baseline.relation)

    def test_budget_dnf(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql, work_budget=10)
        assert not result.finished
        assert result.relation is None
        assert result.work > 10

    def test_no_statistics_mode(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql, use_statistics=False)
        assert result.finished
        assert not result.used_statistics
        with_stats = dbms.run_sql(chain_sql, use_statistics=True)
        assert result.relation.same_content(with_stats.relation)

    def test_fresh_database_defaults_to_no_stats(self, chain_sql):
        import random

        rng = random.Random(0)
        db = Database("fresh")
        for i in range(4):
            schema = RelationSchema.of(
                f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
            )
            db.create_table(
                schema, [(rng.randrange(5), rng.randrange(5)) for _ in range(20)]
            )
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql)
        assert not result.used_statistics

    def test_translation_reuse(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        translation = dbms.translate(chain_sql)
        r1 = dbms.run_sql(translation)
        r2 = dbms.run_sql(chain_sql)
        assert r1.relation.same_content(r2.relation)

    def test_explain_renders_plan(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        text = dbms.explain(chain_sql)
        assert "Scan(" in text
        assert "HashJoin" in text

    def test_simulated_seconds_scale_with_profile(self, chain_db, chain_sql):
        fast = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        slow = SimulatedDBMS(
            chain_db,
            EngineProfile(name="slow", work_time_factor=COMMDB_PROFILE.work_time_factor * 4),
        )
        rf = fast.run_sql(chain_sql)
        rs = slow.run_sql(chain_sql)
        assert rs.simulated_seconds > rf.simulated_seconds


class TestPostprocessingThroughSql:
    @pytest.fixture()
    def db(self):
        database = Database("pp")
        database.create_table(
            RelationSchema.of(
                "emp",
                {
                    "dept": AttributeType.STRING,
                    "salary": AttributeType.INT,
                    "bonus": AttributeType.INT,
                },
            ),
            [
                ("eng", 100, 10),
                ("eng", 200, 20),
                ("sales", 150, 15),
                ("sales", 150, 15),
            ],
        )
        database.analyze()
        return database

    def test_group_by_sum(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(
            "SELECT dept, sum(salary) AS total FROM emp GROUP BY dept "
            "ORDER BY total DESC"
        )
        # Set semantics: the duplicate (sales,150,15) row collapses.
        assert result.relation.tuples == [("eng", 300), ("sales", 150)]

    def test_aggregate_over_expression(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(
            "SELECT dept, sum(salary + bonus) AS gross FROM emp GROUP BY dept"
        )
        rows = dict(result.relation.tuples)
        assert rows["eng"] == 330

    def test_count_column(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(
            "SELECT dept, count(salary) AS n FROM emp GROUP BY dept"
        )
        rows = dict(result.relation.tuples)
        assert rows["eng"] == 2  # distinct (dept, salary) bindings
        assert rows["sales"] == 1

    def test_count_star_set_semantics(self, db):
        # Classical CQ answers are sets (the paper's semantics, §4 step 4):
        # count(*) counts distinct out(Q) bindings — here just the group key.
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql("SELECT dept, count(*) AS n FROM emp GROUP BY dept")
        rows = dict(result.relation.tuples)
        assert rows == {"eng": 1, "sales": 1}

    def test_order_limit_distinct(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(
            "SELECT DISTINCT salary FROM emp ORDER BY salary DESC LIMIT 2"
        )
        assert result.relation.tuples == [(200,), (150,)]

    def test_scalar_arithmetic_select(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql("SELECT salary * 2 AS double FROM emp WHERE dept = 'eng'")
        assert sorted(result.relation.tuples) == [(200,), (400,)]

    def test_min_max_avg(self, db):
        dbms = SimulatedDBMS(db, COMMDB_PROFILE)
        result = dbms.run_sql(
            "SELECT min(salary) AS lo, max(salary) AS hi, avg(bonus) AS mean FROM emp"
        )
        (row,) = result.relation.tuples
        assert row[0] == 100 and row[1] == 200


class TestOptimizerHandler:
    def test_handler_invoked(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        calls = []

        def handler(engine, translation, meter):
            calls.append(translation.query.name)
            answer, plan, _label = engine.plan_and_join(
                translation, meter, True, True
            )
            return answer, "handled:" + plan, "q-hd"

        dbms.set_optimizer_handler(handler)
        result = dbms.run_sql(chain_sql)
        assert calls
        assert result.optimizer == "q-hd"
        assert result.plan_text.startswith("handled:")

    def test_bypass_handler(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        dbms.set_optimizer_handler(lambda *a: (_ for _ in ()).throw(AssertionError))
        result = dbms.run_sql(chain_sql, bypass_handler=True)
        assert result.finished

    def test_uninstall(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        dbms.set_optimizer_handler(lambda *a: (_ for _ in ()).throw(AssertionError))
        dbms.set_optimizer_handler(None)
        assert dbms.run_sql(chain_sql).finished

"""End-to-end tests for the concurrent serving layer (QueryService)."""

import threading

import pytest

from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.errors import ServiceClosed, ServiceOverloaded
from repro.service.executor_pool import ExecutorPool
from repro.service.server import QueryService

RENAMED_CHAIN_SQL = """
SELECT w.a0, y.a2 FROM r0 w, r1 x, r2 y, r3 z
WHERE w.b0 = x.a1 AND x.b1 = y.a2 AND y.b2 = z.a3 AND z.b3 = w.a0
"""

#: A mixed multi-template stream: three shapes (cyclic width 2, a path, a
#: pair) × six repetitions, each repetition binding another constant, so
#: only template-level fingerprints can amortize the planning.
MIXED_TEMPLATES = (
    "SELECT r0.a0, r2.a2 FROM r0, r1, r2, r3 WHERE r0.b0 = r1.a1 AND "
    "r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0 AND r0.a0 < {c}",
    "SELECT r1.a1, r3.b3 FROM r1, r2, r3 WHERE r1.b1 = r2.a2 AND "
    "r2.b2 = r3.a3 AND r1.a1 < {c}",
    "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}",
)
MIXED_STREAM = [
    template.format(c=2 + rep)
    for rep in range(6)
    for template in MIXED_TEMPLATES
]


@pytest.fixture()
def service(chain_db):
    svc = QueryService(
        SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
    )
    yield svc
    svc.close()


class TestExecutorPool:
    def test_runs_tasks(self):
        with ExecutorPool(workers=2, queue_capacity=8) as pool:
            futures = [pool.submit(lambda x=x: x * x) for x in range(5)]
            assert [f.result(timeout=5) for f in futures] == [0, 1, 4, 9, 16]

    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("boom")

        with ExecutorPool(workers=1, queue_capacity=4) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.submit(boom).result(timeout=5)

    def test_backpressure_rejects_when_full(self):
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10)

        pool = ExecutorPool(workers=1, queue_capacity=1)
        try:
            pool.submit(blocker)
            assert started.wait(timeout=5)  # worker busy, queue empty
            pool.submit(lambda: None)  # fills the one queue slot
            with pytest.raises(ServiceOverloaded) as err:
                pool.submit(lambda: None)
            assert err.value.capacity == 1
            assert pool.snapshot()["rejected"] == 1
        finally:
            release.set()
            pool.shutdown(wait=True)

    def test_submit_after_shutdown(self):
        pool = ExecutorPool(workers=1, queue_capacity=2)
        pool.shutdown(wait=True)
        with pytest.raises(ServiceClosed):
            pool.submit(lambda: None)


class TestQueryService:
    def test_execute_matches_stock_engine(self, chain_db, chain_sql, service):
        baseline = SimulatedDBMS(chain_db, COMMDB_PROFILE).run_sql(chain_sql)
        result = service.execute(chain_sql)
        assert result.optimizer == "q-hd"
        assert result.relation.same_content(baseline.relation)

    def test_repeated_template_hits_cache(self, chain_db, chain_sql, service):
        first = service.execute(chain_sql)
        second = service.execute(chain_sql)
        renamed = service.execute(RENAMED_CHAIN_SQL)
        assert first.optimizer == "q-hd"
        assert second.optimizer == "q-hd(cached)"
        assert renamed.optimizer == "q-hd(cached)"
        assert renamed.relation.same_content(first.relation)
        snap = service.snapshot()
        assert snap["planning"]["built"] == 1
        assert snap["planning"]["cache_hits"] == 2

        # The mixed stream (paper §6.1, one step further): the warm cache
        # builds exactly one plan per template and charges ≥ 5× fewer
        # planning units than a cache-less service on the same stream.
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=2,
            cache_capacity=0,
        ) as cold:
            cold_results = cold.run_all(MIXED_STREAM)
            cold_planning = cold.snapshot()["planning"]
        warm_results = service.run_all(MIXED_STREAM)
        warm = {
            key: value - snap["planning"][key]
            for key, value in service.snapshot()["planning"].items()
        }
        for mine, theirs in zip(warm_results, cold_results):
            assert mine.relation.same_content(theirs.relation)
        assert cold_planning["built"] == len(MIXED_STREAM)
        assert warm["built"] == len(MIXED_TEMPLATES)
        assert warm["cache_hits"] == len(MIXED_STREAM) - len(MIXED_TEMPLATES)
        assert warm["work_units"] > 0
        assert warm["work_units"] * 5 <= cold_planning["work_units"]

    def test_warm_up_populates_cache(self, chain_sql, service):
        assert service.warm_up([chain_sql]) == 1
        assert service.execute(chain_sql).optimizer == "q-hd(cached)"

    def test_run_all_matches_serial(self, chain_db, chain_sql, service):
        engine = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        for queries in ([chain_sql, RENAMED_CHAIN_SQL] * 4, MIXED_STREAM):
            serial = [engine.run_sql(sql) for sql in queries]
            concurrent = service.run_all(queries)
            assert len(concurrent) == len(queries)
            for mine, theirs in zip(concurrent, serial):
                assert mine.finished
                assert mine.relation.same_content(theirs.relation)

    def test_submit_returns_future(self, chain_sql, service):
        result = service.submit(chain_sql).result(timeout=30)
        assert result.finished

    def test_run_all_propagates_errors_by_default(self, chain_sql, service):
        from repro.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            service.run_all([chain_sql, "NOT SQL AT ALL"])

    def test_run_all_return_exceptions(self, chain_sql, service):
        from repro.errors import SqlSyntaxError

        results = service.run_all(
            [chain_sql, "NOT SQL AT ALL", chain_sql],
            return_exceptions=True,
        )
        assert results[0].finished and results[2].finished
        assert isinstance(results[1], SqlSyntaxError)
        assert service.snapshot()["queries"]["errors"] == 1

    def test_work_budget_dnf(self, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            work_budget=5,
        ) as svc:
            result = svc.execute(chain_sql)
            assert not result.finished
            assert svc.snapshot()["queries"]["dnf"] == 1

    def test_per_call_budget_overrides_default(self, chain_sql, service):
        assert service.execute(chain_sql, work_budget=None).finished
        assert not service.execute(chain_sql, work_budget=5).finished

    def test_rejection_counted_in_metrics(self, chain_db, chain_sql):
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=10)

        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            queue_capacity=1,
        ) as svc:
            try:
                svc.pool.submit(blocker)  # occupy the only worker
                assert started.wait(timeout=5)
                svc.pool.submit(lambda: None)  # fill the one queue slot
                with pytest.raises(ServiceOverloaded):
                    svc.submit(chain_sql)
                assert svc.snapshot()["queries"]["rejected"] == 1
            finally:
                release.set()

    def test_fallback_label_and_answer(self, chain_db):
        # Width 1 cannot cover a 4-variable output: every query degrades.
        sql = """
        SELECT r0.a0, r1.a1, r2.a2, r3.a3 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        baseline = SimulatedDBMS(chain_db, POSTGRES_PROFILE).run_sql(sql)
        with QueryService(
            SimulatedDBMS(chain_db, POSTGRES_PROFILE), max_width=1, workers=1
        ) as svc:
            result = svc.execute(sql)
            assert result.optimizer == "builtin-fallback"
            assert result.relation.same_content(baseline.relation)
            # the failure is cached: the second run skips the search
            svc.execute(sql)
            assert svc.snapshot()["planning"]["fallbacks"] == 2

    def test_close_restores_builtin_planner(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        svc = QueryService(dbms, max_width=2, workers=1)
        assert svc.execute(chain_sql).optimizer == "q-hd"
        svc.close()
        assert dbms.run_sql(chain_sql).optimizer == "dp-bushy"

    def test_snapshot_shape(self, chain_sql, service):
        service.execute(chain_sql)
        snap = service.snapshot()
        assert snap["queries"]["submitted"] == 1
        assert snap["latency_seconds"]["count"] == 1
        assert snap["cache"]["capacity"] == 128
        assert snap["pool"]["workers"] == 2

    def test_analyze_invalidates_cached_plans(self, chain_db, chain_sql, service):
        first = service.execute(chain_sql)
        assert service.execute(chain_sql).optimizer == "q-hd(cached)"
        chain_db.analyze()  # bumps the statistics version
        replanned = service.execute(chain_sql)
        assert replanned.optimizer == "q-hd"
        assert service.plan_cache.stats.invalidations == 1
        # Translation reads only the schema: the text memo still hits.
        assert service.snapshot()["texts"] == {"hits": 2, "misses": 1}
        assert replanned.relation.tuples == first.relation.tuples


class TestTextMemo:
    def test_ddl_retranslates(self, chain_db, chain_sql, service):
        from repro.errors import QueryError
        from repro.relational import AttributeType, RelationSchema

        extra_sql = "SELECT extra.z FROM extra, r0 WHERE extra.z = r0.a0"
        first = service.execute(chain_sql)
        chain_db.create_table(
            RelationSchema.of("extra", {"z": AttributeType.INT}), [(1,)]
        )
        after_create = service.execute(chain_sql)
        assert service.snapshot()["texts"] == {"hits": 0, "misses": 2}
        # The schema digest is in the plan key too: a new plan, same answer.
        assert after_create.optimizer == "q-hd"
        assert after_create.relation.tuples == first.relation.tuples
        assert service.execute(extra_sql).finished
        chain_db.drop_table("extra")
        with pytest.raises(QueryError, match="not in the schema"):
            service.execute(extra_sql)
        snap = service.snapshot()
        assert snap["texts"] == {"hits": 0, "misses": 4}
        assert snap["queries"]["errors"] == 1

    def test_subquery_text_retranslates_every_time(self, chain_db, service):
        from repro.relational import AttributeType, RelationSchema

        sql = (
            "SELECT r0.a0, r1.a1 FROM r0, r1 WHERE r0.b0 = r1.a1 "
            "AND r0.a0 IN (SELECT r2.a2 FROM r2)"
        )
        first = service.execute(sql)
        # Same schema (and digest), other data: a stored flattening would
        # serve the old IN-list.
        chain_db.drop_table("r2")
        chain_db.create_table(
            RelationSchema.of(
                "r2", {"a2": AttributeType.INT, "b2": AttributeType.INT}
            ),
            [(first.relation.tuples[0][0], 0)],
        )
        second = service.execute(sql)
        baseline = SimulatedDBMS(chain_db, COMMDB_PROFILE).run_sql(sql)
        assert second.relation.tuples == baseline.relation.tuples
        assert len(second.relation) < len(first.relation)
        assert service.snapshot()["texts"] == {"hits": 0, "misses": 2}

    def test_pool_workers_share_one_translation(self, chain_sql, service):
        import pickle
        import sys

        from repro.errors import QueryError, SqlSyntaxError

        serial = service.execute(chain_sql)
        (translation,) = service._texts.values()
        frozen = pickle.dumps(translation)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = service.run_all([chain_sql] * 50)
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert result.relation.tuples == serial.relation.tuples
            assert result.work_breakdown == serial.work_breakdown
        assert pickle.dumps(translation) == frozen
        # Parse and translate errors are counted, and never stored.
        with pytest.raises(SqlSyntaxError):
            service.execute("NOT SQL AT ALL")
        with pytest.raises(QueryError):
            service.execute("SELECT missing.x FROM missing")
        snap = service.snapshot()
        assert snap["texts"] == {"hits": 50, "misses": 3}
        assert snap["queries"]["errors"] == 2
        assert len(service._texts) == 1


class TestNoCyclicGarbage:
    """A served q-HD query frees everything it built by reference counting.

    Decomposition trees hold no parent back-pointers and are walked
    without recursive closures, so neither a planned query (cache off)
    nor a cache hit (a renamed copy of the stored tree) leaves work for
    the cyclic collector.
    """

    @pytest.mark.parametrize("cache_capacity", [0, 128])
    def test_served_query_leaves_no_cycles(self, cache_capacity):
        import gc

        from repro.workloads.synthetic import (
            SyntheticConfig,
            generate_synthetic_database,
            synthetic_query_sql,
        )

        config = SyntheticConfig(
            n_atoms=8, cardinality=100, selectivity=60, cyclic=True, seed=8
        )
        database = generate_synthetic_database(config)
        database.analyze()
        sql = synthetic_query_sql(config)
        svc = QueryService(
            SimulatedDBMS(database, COMMDB_PROFILE),
            max_width=4,
            workers=1,
            cache_capacity=cache_capacity,
        )
        try:
            # The first run fills the text memo (and the plan cache).
            first = svc.execute(sql)
            assert first.optimizer.startswith("q-hd")
            gc.collect()
            gc.disable()
            try:
                result = svc.execute(sql)
                assert result.optimizer == (
                    "q-hd(cached)" if cache_capacity else "q-hd"
                )
                del result
                assert gc.collect() == 0
            finally:
                gc.enable()
        finally:
            svc.close()

"""Chaos suite: availability under an 8-worker storm with injected faults.

The contract under chaos is *correct or explicit*: every query either
returns the same rows as a fault-free serial run, reports an explicit DNF
(``finished=False``, the work-budget contract), or raises a typed
:class:`~repro.errors.ReproError` — never a wrong answer, never a hang,
never a poisoned worker.  Faults are injected deterministically
(:class:`~repro.resilience.faults.FaultInjector` with a fixed seed), so a
failure here reproduces.
"""

import os
import threading
from concurrent.futures import CancelledError

import pytest

from repro.engine.dbms import COMMDB_PROFILE, DBMSResult, SimulatedDBMS
from repro.errors import ReproError, ServiceOverloaded
from repro.resilience import FaultInjector
from repro.service.server import QueryService

from tests.conftest import CHAIN_SQL

#: Worker-process count for the sharded storm; CI's shards job sets 8.
SHARDS = int(os.environ.get("HDQO_TEST_SHARDS", "3") or 3)

#: ~10 % faults across planning, cache, and execution sites.
STORM_FAULTS = (
    "decompose.search:error:0.1,"
    "plancache.get:latency:0.1:2,"
    "exec.scan:budget:0.1,"
    "exec.join:error:0.1"
)

RESULT_TIMEOUT = 60  # seconds; a hang fails the test instead of wedging it


def storm_queries(repetitions: int = 12):
    """Parameterized instances of the chain template (one per repetition)."""
    base = CHAIN_SQL.strip()
    return [f"{base} AND r0.a0 < {3 + (rep % 5)}" for rep in range(repetitions * 4)]


@pytest.fixture()
def baselines(chain_db):
    """Fault-free serial answers, one per distinct query text."""
    dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
    answers = {}
    for sql in storm_queries():
        if sql not in answers:
            result = dbms.run_sql(sql)
            assert result.finished
            answers[sql] = result.relation
    return answers


class TestChaosStorm:
    def test_storm_correct_or_typed_error(self, chain_db, baselines):
        injector = FaultInjector(STORM_FAULTS, seed=42)
        queries = storm_queries()
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=8,
            queue_capacity=len(queries),
            fault_injector=injector,
        )
        try:
            futures = [svc.submit(sql) for sql in queries]
            outcomes = []
            for future in futures:  # bounded waits: zero hangs allowed
                try:
                    outcomes.append(future.result(timeout=RESULT_TIMEOUT))
                except ReproError as exc:
                    outcomes.append(exc)

            correct = explicit_dnf = typed_errors = 0
            for sql, outcome in zip(queries, outcomes):
                if isinstance(outcome, ReproError):
                    typed_errors += 1  # explicit, typed failure
                elif isinstance(outcome, DBMSResult) and not outcome.finished:
                    explicit_dnf += 1  # explicit work-budget DNF
                else:
                    assert isinstance(outcome, DBMSResult)
                    assert outcome.relation.same_content(baselines[sql])
                    correct += 1
            # The storm really stormed, and availability survived it.
            assert injector.snapshot()["fired"]
            assert typed_errors + explicit_dnf > 0
            assert correct > 0
            assert correct + explicit_dnf + typed_errors == len(queries)

            # The pool is drained and healthy: no stuck or leaked workers.
            pool = svc.snapshot()["pool"]
            assert pool["active"] == 0
            assert pool["completed"] == pool["submitted"]
        finally:
            svc.close()

    def test_storm_is_reproducible(self, chain_db, baselines):
        """The same seed yields the same per-query verdicts twice."""

        def verdicts():
            svc = QueryService(
                SimulatedDBMS(chain_db, COMMDB_PROFILE),
                max_width=2,
                workers=1,  # serial: call order (hence firing) is fixed
                fault_injector=FaultInjector(STORM_FAULTS, seed=7),
            )
            try:
                out = []
                for sql in storm_queries(repetitions=4):
                    try:
                        result = svc.execute(sql)
                        out.append(
                            "ok" if result.finished else "dnf"
                        )
                    except ReproError as exc:
                        out.append(type(exc).__name__)
                return out
            finally:
                svc.close()

        first, second = verdicts(), verdicts()
        assert first == second
        assert set(first) != {"ok"}  # some faults fired

    def test_storm_recovers_when_faults_stop(self, chain_db, baselines):
        """After the injector is removed, the same service serves cleanly."""
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=4,
            queue_capacity=64,
            fault_injector=FaultInjector("exec.join:error:0.5", seed=1),
        )
        try:
            stormed = svc.run_all(
                storm_queries(repetitions=4), return_exceptions=True
            )
            assert any(isinstance(o, ReproError) for o in stormed)
            svc.fault_injector = None  # chaos over
            sql = storm_queries()[0]
            result = svc.execute(sql)
            assert result.finished
            assert result.relation.same_content(baselines[sql])
        finally:
            svc.close()


class TestDrainUnderStorm:
    def test_drain_mid_storm_leaves_no_stragglers(self, chain_db, baselines):
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=4,
            queue_capacity=256,
            fault_injector=FaultInjector(
                "exec.join:latency:0.5:2", seed=3
            ),  # latency keeps queries in flight while we drain
        )
        queries = storm_queries(repetitions=12)
        futures = [svc.submit(sql) for sql in queries]
        assert svc.drain(grace_seconds=30.0)
        outcomes = {"ok": 0, "typed": 0, "cancelled": 0}
        for sql, future in zip(queries, futures):
            try:
                result = future.result(timeout=RESULT_TIMEOUT)
            except CancelledError:
                outcomes["cancelled"] += 1  # queued, never started
            except ReproError:
                outcomes["typed"] += 1  # includes QueryCancelled mid-flight
            else:
                outcomes["ok"] += 1
                if result.finished:
                    assert result.relation.same_content(baselines[sql])
        assert sum(outcomes.values()) == len(queries)
        pool = svc.snapshot()["pool"]
        assert pool["active"] == 0
        # Drain restored the engine's built-in planner.
        assert svc.dbms.optimizer_handler is None


def shard_storm_queries(repetitions: int = 6):
    """A multi-template storm, so the faults hit more than one shard."""
    templates = [
        CHAIN_SQL.strip() + " AND r0.a0 < {c}",
        CHAIN_SQL.strip() + " AND r1.a1 < {c}",
        "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}",
        "SELECT r2.a2, r3.a3 FROM r2, r3 "
        "WHERE r2.b2 = r3.a3 AND r2.a2 < {c}",
    ]
    return [
        template.format(c=3 + (rep % 4))
        for rep in range(repetitions)
        for template in templates
    ]


class TestShardChaosStorm:
    """The chaos contract must survive the process boundary: every query
    submitted to a fault-stormed shard cluster resolves as the correct
    rows, an explicit DNF, or a typed error — across ``SHARDS`` worker
    processes (CI's shards job raises ``HDQO_TEST_SHARDS`` to 8)."""

    def test_shard_storm_correct_or_typed_error(self, chain_db):
        from repro.service.config import ServiceConfig
        from repro.shard import ShardRouter

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        queries = shard_storm_queries()
        answers = {}
        for sql in queries:
            if sql not in answers:
                result = dbms.run_sql(sql)
                assert result.finished
                answers[sql] = result.relation

        config = ServiceConfig(
            database=chain_db,
            max_width=2,
            workers=2,
            queue_capacity=len(queries),
            fault_spec=STORM_FAULTS,
            seed=42,
        )
        router = ShardRouter(config, shards=SHARDS)
        try:
            outcomes = router.run_all(queries, return_exceptions=True)
            correct = explicit_dnf = typed_errors = 0
            for sql, outcome in zip(queries, outcomes):
                if isinstance(outcome, ReproError):
                    typed_errors += 1  # reconstructed across the boundary
                elif isinstance(outcome, DBMSResult) and not outcome.finished:
                    explicit_dnf += 1
                else:
                    assert isinstance(outcome, DBMSResult)
                    assert outcome.relation.same_content(answers[sql])
                    correct += 1
            assert correct > 0
            assert correct + explicit_dnf + typed_errors == len(queries)
        finally:
            assert router.drain(grace_seconds=30.0)
        assert router.lock_violations() == {}

    def test_drain_mid_shard_storm_every_query_resolves(self, chain_db):
        """Cross-shard graceful drain with latency faults keeping queries
        in flight: no future may hang, and every outcome is explicit."""
        from repro.service.config import ServiceConfig
        from repro.shard import ShardRouter

        config = ServiceConfig(
            database=chain_db,
            max_width=2,
            workers=2,
            queue_capacity=256,
            fault_spec="exec.join:latency:0.5:2",
            seed=3,
        )
        router = ShardRouter(config, shards=SHARDS)
        queries = shard_storm_queries(repetitions=10)
        futures = [router.submit(sql) for sql in queries]
        router.drain(grace_seconds=30.0)
        outcomes = {"ok": 0, "typed": 0}
        for future in futures:
            try:
                result = future.result(timeout=RESULT_TIMEOUT)
            except ReproError:
                outcomes["typed"] += 1  # QueryCancelled or ShardError
            else:
                assert isinstance(result, DBMSResult)
                outcomes["ok"] += 1
        assert sum(outcomes.values()) == len(queries)
        # Every shard posted its final state; none was killed hard.
        exits = router.worker_exits()
        assert set(exits) == set(range(SHARDS))
        assert all(exit_.drained for exit_ in exits.values())


class TestServiceErrorPaths:
    def test_overload_then_recovery(self, chain_db, baselines):
        """ServiceOverloaded under a full queue; the service then recovers."""
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=30)

        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            queue_capacity=1,
        )
        sql = storm_queries()[0]
        try:
            svc.pool.submit(blocker)  # occupy the only worker
            assert started.wait(timeout=5)
            held = svc.submit(sql)  # fills the one queue slot
            with pytest.raises(ServiceOverloaded) as err:
                svc.submit(sql)
            assert err.value.capacity == 1
            assert svc.snapshot()["queries"]["rejected"] == 1
            release.set()  # load sheds; the held query now runs
            result = held.result(timeout=RESULT_TIMEOUT)
            assert result.relation.same_content(baselines[sql])
        finally:
            release.set()
            svc.close()

    def test_worker_raising_mid_query_leaves_pool_healthy(
        self, chain_db, baselines
    ):
        from repro.errors import SqlSyntaxError

        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
        )
        sql = storm_queries()[0]
        try:
            with pytest.raises(SqlSyntaxError):
                svc.submit("THIS IS NOT SQL").result(timeout=RESULT_TIMEOUT)
            # Every worker still serves, and correctly.
            results = svc.run_all([sql] * 4)
            for result in results:
                assert result.relation.same_content(baselines[sql])
            pool = svc.snapshot()["pool"]
            assert pool["active"] == 0
            assert pool["completed"] == pool["submitted"]
        finally:
            svc.close()

    def test_analyze_racing_single_flight_build(self, chain_db, baselines):
        """Statistics refreshes racing concurrent plan builds never yield a
        stale or wrong plan — at worst an extra rebuild."""
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=4,
            queue_capacity=64,
        )
        sql = storm_queries()[0]
        stop = threading.Event()

        def analyzer():
            while not stop.is_set():
                chain_db.analyze()  # bumps the statistics version

        thread = threading.Thread(target=analyzer)
        thread.start()
        try:
            for _ in range(5):
                results = svc.run_all([sql] * 8)
                for result in results:
                    assert result.relation.same_content(baselines[sql])
        finally:
            stop.set()
            thread.join(timeout=10)
            svc.close()
        # The race settles: a fresh execute plans against current stats.
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=1
        ) as fresh:
            result = fresh.execute(sql)
            assert result.optimizer == "q-hd"
            assert result.relation.same_content(baselines[sql])


class TestWorkerKillStorm:
    """Crash chaos on top of the self-healing layer: SIGKILL random live
    shard workers (~10 % per tick, at most ``SHARDS - 1`` total so the
    ring always has a live node) while a multi-template workload runs.
    The supervised contract is *correct or typed, then fully healed*:
    every query resolves as the exact fault-free rows or a typed
    :class:`~repro.errors.ReproError`, availability stays >= 99 %, and
    the cluster returns to the full shard count before draining clean."""

    def test_kill_storm_correct_or_typed_then_full_strength(self, chain_db):
        import random
        import signal as signal_module
        import time

        from repro.service.config import ServiceConfig
        from repro.shard import ShardRouter, SupervisorPolicy

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        queries = shard_storm_queries(repetitions=30)
        answers = {}
        for sql in queries:
            if sql not in answers:
                result = dbms.run_sql(sql)
                assert result.finished
                answers[sql] = result.relation

        config = ServiceConfig(
            database=chain_db,
            max_width=2,
            workers=2,
            queue_capacity=len(queries),
            seed=42,
        )
        policy = SupervisorPolicy(
            max_restarts=12,
            backoff_base_seconds=0.02,
            backoff_cap_seconds=0.2,
            seed=42,
        )
        router = ShardRouter(config, shards=SHARDS, supervise=policy)
        stop = threading.Event()
        kills = []

        def kill(rng):
            pids = {
                shard_id: pid
                for shard_id, pid in router.shard_pids().items()
                if pid is not None
            }
            if not pids:
                return
            victim = rng.choice(sorted(pids))
            try:
                os.kill(pids[victim], signal_module.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return
            kills.append(victim)

        def storm():
            rng = random.Random(42)
            # One guaranteed kill, then ~10 % per 10 ms tick, capped at
            # SHARDS - 1 total so at least one shard is always live.
            if not stop.wait(0.02):
                kill(rng)
            while not stop.wait(0.01) and len(kills) < SHARDS - 1:
                if rng.random() < 0.1:
                    kill(rng)

        killer = threading.Thread(target=storm, daemon=True)
        try:
            killer.start()
            outcomes = router.run_all(queries, return_exceptions=True)
            stop.set()
            killer.join(timeout=10.0)

            correct = typed_errors = 0
            for sql, outcome in zip(queries, outcomes):
                if isinstance(outcome, ReproError):
                    typed_errors += 1  # explicit, never a wrong answer
                else:
                    assert isinstance(outcome, DBMSResult)
                    assert outcome.finished
                    assert outcome.relation.same_content(answers[sql])
                    correct += 1
            assert correct + typed_errors == len(queries)
            availability = correct / len(queries)
            assert availability >= 0.99, (
                f"availability {availability:.2%} < 99% "
                f"({typed_errors} typed errors, {len(kills)} kills)"
            )

            # The supervisor restores the full shard count.
            deadline = time.monotonic() + 30.0
            while (
                len(router.live_shards()) < SHARDS
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert sorted(router.live_shards()) == list(range(SHARDS))

            # Post-storm traffic is byte-identical to the fault-free run.
            for sql, outcome in zip(queries[:8], router.run_all(queries[:8])):
                assert outcome.relation.same_content(answers[sql])

            if kills:
                metrics = router.snapshot()["supervisor"]["metrics"]
                assert metrics["worker_deaths"] >= len(kills)
                assert metrics["restarts"] >= len(kills)
        finally:
            stop.set()
            assert router.drain(grace_seconds=30.0)
        assert router.lock_violations() == {}

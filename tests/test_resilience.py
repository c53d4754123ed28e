"""Tests for the resilience layer: deadlines, cancellation, budgets,
fault injection, the circuit breaker, and the degradation ladder."""

import threading

import pytest

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    MemoryBudgetExceeded,
    QueryCancelled,
    WorkBudgetExceeded,
)
from repro.obs.tracing import tracing
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    Deadline,
    ExecutionContext,
    FaultInjector,
    MemoryBudget,
    NULL_CONTEXT,
    current_context,
    parse_faultspec,
    resilient,
)
from repro.service.server import QueryService


@pytest.fixture()
def service(chain_db):
    svc = QueryService(
        SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
    )
    yield svc
    svc.close()


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_expiry_with_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(4.9)
        deadline.check("decompose.search")  # still inside the budget
        clock.advance(0.2)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("decompose.search")
        assert err.value.site == "decompose.search"
        assert err.value.deadline_seconds == 5.0
        assert err.value.elapsed_seconds == pytest.approx(5.1)

    def test_from_ms(self):
        clock = FakeClock()
        assert Deadline.from_ms(250, clock=clock).seconds == pytest.approx(0.25)

    def test_earliest_composition(self):
        clock = FakeClock()
        short = Deadline(1.0, clock=clock)
        long = Deadline(10.0, clock=clock)
        assert Deadline.earliest(long, short) is short
        assert Deadline.earliest(None, long) is long
        assert Deadline.earliest(None, None) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Deadline(0)


class TestCancellationToken:
    def test_cancel_observed_with_reason(self):
        token = CancellationToken()
        token.check("exec.join")  # no-op while live
        token.cancel("client went away")
        assert token.cancelled
        with pytest.raises(QueryCancelled) as err:
            token.check("exec.join")
        assert err.value.reason == "client went away"
        assert err.value.site == "exec.join"

    def test_parent_cancellation_propagates(self):
        drain = CancellationToken()
        query = CancellationToken(parents=(drain,))
        assert not query.cancelled
        drain.cancel("service draining")
        assert query.cancelled
        assert query.reason == "service draining"

    def test_child_token(self):
        parent = CancellationToken()
        child = parent.child()
        parent.cancel("stop")
        assert child.cancelled

    def test_cancel_from_another_thread(self):
        token = CancellationToken()
        thread = threading.Thread(target=token.cancel, args=("remote",))
        thread.start()
        thread.join(timeout=5)
        assert token.cancelled and token.reason == "remote"


class TestMemoryBudget:
    def test_cell_budget(self):
        budget = MemoryBudget(max_cells=100)
        budget.account(rows=10, row_width=5, site="exec.join")  # 50 cells
        with pytest.raises(MemoryBudgetExceeded) as err:
            budget.account(rows=20, row_width=5, site="exec.join")
        assert err.value.budget_cells == 100
        assert err.value.cells == 150
        assert err.value.site == "exec.join"
        # Cells accounted so far, the aborting intermediate included.
        assert budget.snapshot() == {"live_cells": 150, "intermediates": 2}

    def test_max_intermediate_rows(self):
        budget = MemoryBudget(max_intermediate_rows=1000)
        budget.account(rows=1000, row_width=2)
        with pytest.raises(MemoryBudgetExceeded) as err:
            budget.account(rows=1001, row_width=2)
        assert err.value.max_rows == 1000
        assert err.value.rows == 1001


class TestFaultInjector:
    def test_parse_faultspec(self):
        specs = parse_faultspec(
            "decompose.search:error:0.5,exec.join:latency:0.1:5"
        )
        assert [s.site for s in specs] == ["decompose.search", "exec.join"]
        assert specs[0].period == 2
        assert specs[1].period == 10
        assert specs[1].param == 5.0

    def test_parse_rejects_bad_clauses(self):
        with pytest.raises(ValueError):
            parse_faultspec("just-a-site")
        with pytest.raises(ValueError):
            parse_faultspec("site:unknown-kind:0.5")
        with pytest.raises(ValueError):
            parse_faultspec("site:error:0")

    def test_rate_one_always_fires(self):
        injector = FaultInjector("exec.join:error:1.0", seed=0)
        for _ in range(3):
            with pytest.raises(InjectedFault) as err:
                injector.fire("exec.join")
            assert err.value.site == "exec.join"
        assert injector.snapshot()["fired"]["exec.join:error"] == 3

    def test_unarmed_sites_are_free(self):
        injector = FaultInjector("exec.join:error:1.0")
        injector.fire("exec.scan")  # no rule: no-op

    def test_budget_kind_raises_work_budget(self):
        injector = FaultInjector("exec.scan:budget:1.0")
        with pytest.raises(WorkBudgetExceeded) as err:
            injector.fire("exec.scan")
        assert err.value.phase == "exec.scan"

    def test_deterministic_fire_indices(self):
        """Same seed + spec fire at the same per-site call indices."""

        def fired_indices(seed):
            injector = FaultInjector("exec.join:error:0.25", seed=seed)
            hits = []
            for i in range(40):
                try:
                    injector.fire("exec.join")
                except InjectedFault:
                    hits.append(i)
            return hits

        first, second = fired_indices(7), fired_indices(7)
        assert first == second
        assert len(first) == 10  # rate 0.25 over 40 calls
        assert fired_indices(8) != first  # the seed shifts the phase

    def test_determinism_across_threads(self):
        """Per-site counters make firing independent of interleaving."""

        def storm(injector):
            faults = 0
            barrier = threading.Barrier(4)
            lock = threading.Lock()

            def worker():
                nonlocal faults
                barrier.wait(timeout=10)
                for _ in range(25):
                    try:
                        injector.fire("exec.join")
                    except InjectedFault:
                        with lock:
                            faults += 1

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            return faults

        a = storm(FaultInjector("exec.join:error:0.1", seed=3))
        b = storm(FaultInjector("exec.join:error:0.1", seed=3))
        assert a == b == 10  # 100 calls at rate 0.1, whatever the schedule


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=30.0, clock=clock
        )
        for _ in range(2):
            breaker.record_failure("q1")
            assert breaker.allow("q1")
        breaker.record_failure("q1")
        assert breaker.state_of("q1") == "open"
        assert not breaker.allow("q1")
        assert breaker.allow("q2")  # other keys unaffected

    def test_half_open_trial_and_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        breaker.record_failure("q")
        assert not breaker.allow("q")
        clock.advance(31)
        assert breaker.allow("q")  # the one half-open trial
        assert not breaker.allow("q")  # concurrent callers still skipped
        breaker.record_success("q")
        assert breaker.state_of("q") == "closed"
        assert breaker.allow("q")

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=5, cooldown_seconds=10.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure("q")
        clock.advance(11)
        assert breaker.allow("q")
        breaker.record_failure("q")  # one failure re-opens in half-open
        assert breaker.state_of("q") == "open"
        assert not breaker.allow("q")
        assert breaker.snapshot()["trips"] == 2


class TestExecutionContext:
    def test_default_is_null_context(self):
        context = current_context()
        assert context is NULL_CONTEXT
        assert not context.active
        context.checkpoint("anywhere")  # all no-ops
        context.tick("anywhere")
        context.account(10, 10)

    def test_resilient_installs_and_restores(self):
        token = CancellationToken()
        with resilient(token=token) as context:
            assert current_context() is context
            assert context.active
        assert current_context() is NULL_CONTEXT

    def test_resilient_is_thread_local(self):
        seen = []
        with resilient(token=CancellationToken()):

            def probe():
                seen.append(current_context())

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=5)
        assert seen == [NULL_CONTEXT]

    def test_checkpoint_order_cancel_before_deadline(self):
        clock = FakeClock()
        context = ExecutionContext(
            deadline=Deadline(1.0, clock=clock), token=CancellationToken()
        )
        clock.advance(2)
        context.token.cancel("client cancel")
        with pytest.raises(QueryCancelled):
            context.checkpoint("exec.join")

    def test_tick_amortizes_per_site(self):
        clock = FakeClock()
        context = ExecutionContext(
            deadline=Deadline(1.0, clock=clock), stride=4
        )
        clock.advance(2)
        for _ in range(3):
            context.tick("exec.join")  # under the stride: no clock check
        with pytest.raises(DeadlineExceeded):
            context.tick("exec.join")


# ---------------------------------------------------------------------------
# Enforcement through the engine
# ---------------------------------------------------------------------------


class TestEngineEnforcement:
    def test_deadline_aborts_query(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)  # already expired: first checkpoint trips
        with resilient(deadline=deadline):
            with pytest.raises(DeadlineExceeded) as err:
                dbms.run_sql(chain_sql)
        assert err.value.site  # locates the checkpoint that caught it

    def test_cancellation_aborts_query(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        token = CancellationToken()
        token.cancel("test cancel")
        with resilient(token=token):
            with pytest.raises(QueryCancelled) as err:
                dbms.run_sql(chain_sql)
        assert err.value.reason == "test cancel"

    def test_memory_budget_aborts_join(self, chain_db, chain_sql):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        with resilient(memory=MemoryBudget(max_cells=8)):
            with pytest.raises(MemoryBudgetExceeded) as err:
                dbms.run_sql(chain_sql)
        assert err.value.cells > 8
        assert err.value.site.startswith("exec.")

    def test_work_budget_mid_operator_context(self, chain_db, chain_sql):
        """The budget error carries phase + a spent figure near the budget,
        not the whole operator's cost (mid-operator enforcement)."""
        from repro.metering import WorkMeter

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        translation = dbms.translate(chain_sql)
        unbounded = WorkMeter()
        dbms.plan_and_join(translation, unbounded, True, True)
        budget = max(unbounded.total // 4, 2)
        meter = WorkMeter(budget=budget)
        with pytest.raises(WorkBudgetExceeded) as err:
            dbms.plan_and_join(translation, meter, True, True)
        assert err.value.phase  # locates the charge inside an operator
        assert err.value.budget == budget
        assert err.value.spent > budget
        # Aborted mid-run: never pays the full unbounded cost.
        assert err.value.spent < unbounded.total
        assert meter.total < unbounded.total

    def test_no_context_runs_clean(self, chain_db, chain_sql):
        """No active context: the instrumented engine behaves identically."""
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        result = dbms.run_sql(chain_sql)
        assert result.finished


# ---------------------------------------------------------------------------
# Enforcement through the service
# ---------------------------------------------------------------------------


class TestServiceEnforcement:
    def test_deadline_miss_counted(self, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            deadline_seconds=1e-9,
        ) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.execute(chain_sql)
            snap = svc.snapshot()
            assert snap["resilience"]["deadline_misses"] == 1
            assert snap["queries"]["errors"] == 1

    def test_per_call_deadline_overrides_default(self, chain_sql, service):
        assert service.execute(chain_sql).finished
        with pytest.raises(DeadlineExceeded):
            service.execute(chain_sql, deadline_seconds=1e-9)

    def test_client_token_cancels_query(self, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=1
        ) as svc:
            token = CancellationToken()
            token.cancel("caller aborted")
            with pytest.raises(QueryCancelled):
                svc.execute(chain_sql, token=token)
            assert svc.snapshot()["resilience"]["cancellations"] == 1

    def test_memory_abort_counted(self, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            memory_budget_cells=8,
        ) as svc:
            with pytest.raises(MemoryBudgetExceeded):
                svc.execute(chain_sql)
            assert svc.snapshot()["resilience"]["memory_aborts"] == 1

    def test_drain_cancels_and_joins(self, chain_db, chain_sql):
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
        )
        svc.execute(chain_sql)
        assert svc.drain(grace_seconds=10.0)
        assert svc.snapshot()["pool"]["active"] == 0
        # The engine's built-in planner is restored.
        assert svc.dbms.optimizer_handler is None

    def test_drain_cancels_in_flight_queries(self, chain_db, chain_sql):
        entered, release = threading.Event(), threading.Event()
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=1
        )
        token = CancellationToken()

        def run():
            try:
                entered.set()
                release.wait(timeout=10)
                svc.execute(chain_sql, token=token)
            except QueryCancelled:
                pass

        thread = threading.Thread(target=run)
        thread.start()
        assert entered.wait(timeout=5)
        svc.drain_token.cancel("draining")
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        # The drain token parents every query token: the query aborted.
        assert svc.snapshot()["resilience"]["cancellations"] == 1
        svc.close()


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def test_forced_search_failure_lands_on_builtin(self, chain_db, chain_sql):
        """Ladder step 3: injected search failure → built-in answer +
        fallback counter + degraded_to span tag."""
        baseline = SimulatedDBMS(chain_db, COMMDB_PROFILE).run_sql(chain_sql)
        injector = FaultInjector("decompose.search:error:1.0", seed=0)
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            fault_injector=injector,
        ) as svc:
            with tracing() as tracer:
                result = svc.execute(chain_sql)
            assert result.optimizer == "builtin-fallback"
            assert result.relation.same_content(baseline.relation)
            assert svc.snapshot()["planning"]["fallbacks"] == 1
            (plan_span,) = tracer.spans("serve.plan")
            assert plan_span.tags["degraded_to"] == "builtin"
            assert plan_span.tags["plan_error"] == "InjectedFault"
            assert "error" not in plan_span.tags  # absorbed, not raised

    def test_lower_k_cached_plan_serves(self, chain_db, chain_sql):
        """Ladder step 2: a cached width-1 plan serves when the k=2 search
        is failing — lookup + rename only, no new search."""
        acyclic_sql = """
        SELECT r0.a0, r0.b0 FROM r0 WHERE r0.a0 = r0.a0
        """
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        svc = QueryService(dbms, max_width=2, workers=1)
        try:
            # Seed the shared cache with the same template at k=1, exactly
            # as a previous lower-width deployment would have.
            from repro.core.integration import install_structural_optimizer

            install_structural_optimizer(
                dbms,
                max_width=1,
                plan_cache=svc.plan_cache,
                metrics=svc.metrics,
            )
            seeded = dbms.run_sql(acyclic_sql)
            assert seeded.optimizer == "q-hd"
            dbms.set_optimizer_handler(svc._handler)  # back to the k=2 path

            # Now make the k=2 search fail; the cached k=1 plan must serve.
            svc.fault_injector = injector = FaultInjector(
                "decompose.search:error:1.0,plancache.get:error:1.0", seed=0
            )
            with tracing() as tracer:
                result = svc.execute(acyclic_sql)
            assert result.optimizer == "q-hd(k=1)"
            assert result.relation.same_content(seeded.relation)
            assert svc.snapshot()["resilience"]["degraded_lower_k"] == 1
            spans = tracer.spans("serve.plan")
            assert spans[-1].tags["degraded_to"] == "lower-k(1)"
            assert injector.snapshot()["fired"]  # the failure was injected
        finally:
            svc.close()

    def test_breaker_skips_repeatedly_failing_template(
        self, chain_db, chain_sql
    ):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=30.0, clock=clock
        )
        injector = FaultInjector("decompose.search:error:1.0", seed=0)
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            cache_capacity=0,  # force a search (and a failure) per query
            fault_injector=injector,
            breaker=breaker,
        ) as svc:
            for _ in range(3):
                assert svc.execute(chain_sql).optimizer == "builtin-fallback"
            assert breaker.snapshot()["open"] == 1
            with tracing() as tracer:
                result = svc.execute(chain_sql)  # breaker open: no search
            assert result.optimizer == "builtin-fallback"
            assert svc.snapshot()["resilience"]["breaker_skips"] == 1
            (span,) = tracer.spans("serve.plan")
            assert span.tags.get("breaker_open") is True
            # After the cooldown, a half-open trial runs the search again.
            calls_before = injector.snapshot()["calls"]["decompose.search"]
            clock.advance(31)
            svc.execute(chain_sql)
            assert (
                injector.snapshot()["calls"]["decompose.search"]
                > calls_before
            )

    def test_cancelled_half_open_trial_leaves_the_trial_to_the_next_query(
        self, chain_db, chain_sql
    ):
        """A half-open trial cut short by a non-ladder error records no
        outcome: the key neither closes nor re-opens, and the next query
        runs the search."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            fault_injector=FaultInjector("decompose.search:error:1.0", seed=0),
            breaker=breaker,
        ) as svc:
            assert svc.execute(chain_sql).optimizer == "builtin-fallback"
            assert breaker.snapshot()["open"] == 1
            clock.advance(31)
            svc.fault_injector = None
            token = CancellationToken()
            token.cancel("client gave up")
            with pytest.raises(QueryCancelled):
                svc.execute(chain_sql, token=token)  # the admitted trial
            assert breaker.snapshot()["open"] == 1
            assert svc.execute(chain_sql).optimizer == "q-hd"
            assert breaker.snapshot() == {
                "keys": 1, "open": 0, "trips": 1, "skips": 0,
            }

    def test_ladder_raises_typed_error_without_fallback(
        self, chain_db, chain_sql
    ):
        injector = FaultInjector("decompose.search:error:1.0", seed=0)
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            fallback_to_builtin=False,
            fault_injector=injector,
        ) as svc:
            with pytest.raises(InjectedFault):
                svc.execute(chain_sql)


# ---------------------------------------------------------------------------
# The overhead guarantee
# ---------------------------------------------------------------------------


class TestOverheadGuarantee:
    def test_q5_work_units_identical_with_null_context(self, tiny_tpch):
        """ISSUE acceptance: deadline enforcement adds ≤2 % work units on
        TPC-H Q5 when no deadline is set.  Work units are deterministic, so
        we can assert the stronger property: with no context active the
        checkpoints are no-ops and the counts are bit-identical; with an
        *empty* context active they still charge nothing."""
        from repro.workloads.tpch_queries import query_q5

        dbms = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE)
        bare = dbms.run_sql(query_q5())
        assert current_context() is NULL_CONTEXT
        again = dbms.run_sql(query_q5())
        assert again.work == bare.work
        with resilient(ExecutionContext()):  # active but unbounded
            bounded = dbms.run_sql(query_q5())
        assert bounded.work == bare.work  # checkpoints charge no work units
        assert bounded.relation.same_content(bare.relation)

    def test_service_skips_context_when_unbounded(self, chain_db):
        svc = QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=1
        )
        try:
            assert svc._make_context(None, None) is None
            assert svc._make_context(0.5, None) is not None
        finally:
            svc.close()

"""Self-healing shard serving: supervisor, retries, failover, parity.

Four layers of coverage, cheapest first:

* **property layer** — hypothesis round-trips of
  :class:`ShardUnavailable` through a real pipe and the bounds of
  :func:`jittered_backoff` / :class:`RetryBudget`;
* **unit layer** — the :class:`ShardSupervisor` state machine driven
  with a fake router and a fake clock (no processes, no sleeping):
  seeded backoff schedules, the restart budget opening the breaker, the
  half-open trial after cooldown;
* **integration layer** — one real supervised cluster: SIGKILL a
  worker, watch traffic fail over with zero wrong answers, the shard
  restart, and the post-recovery run stay byte-identical; plus the
  acceptance-bar parity check that ``supervise`` with zero faults is
  byte-identical to an unsupervised cluster;
* **honest kills** — SIGKILL the worker that just answered, or one that
  is sending a > 1 MB answer, and the cluster still resolves every query
  and drains in seconds.
"""

import os
import pickle
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.dbms import DBMSResult
from repro.errors import ReproError, ShardError, ShardUnavailable
from repro.obs.metrics import render_prometheus
from repro.relational import AttributeType, Database, RelationSchema
from repro.resilience import RetryBudget, RetryPolicy, jittered_backoff
from repro.service.config import ServiceConfig
from repro.shard import (
    ConsistentHashRing,
    ShardRouter,
    ShardSupervisor,
    SupervisorPolicy,
)

from tests.conftest import assert_wellformed_exposition
from tests.test_shard import SHARDS, TEMPLATES, wire_round_trip, workload

import random as random_module


# ---------------------------------------------------------------------------
# Property layer: wire shapes and retry primitives
# ---------------------------------------------------------------------------

_REASONS = ["retry-budget", "deadline", "no-live-shard", "draining"]

class TestShardUnavailableCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        message=st.text(min_size=1, max_size=80),
        shard_id=st.one_of(st.none(), st.integers(0, 63)),
        attempts=st.integers(1, 10),
        reason=st.sampled_from(_REASONS),
    )
    def test_round_trips_through_the_codec(
        self, message, shard_id, attempts, reason
    ):
        original = ShardUnavailable(
            message, shard_id=shard_id, attempts=attempts, reason=reason
        )
        rebuilt = wire_round_trip(original)
        assert type(rebuilt) is ShardUnavailable
        assert str(rebuilt) == str(original)
        assert rebuilt.shard_id == shard_id
        assert rebuilt.attempts == attempts
        assert rebuilt.reason == reason

    def test_is_a_shard_error(self):
        assert issubclass(ShardUnavailable, ShardError)


class TestRetryPrimitives:
    @settings(max_examples=80, deadline=None)
    @given(
        attempt=st.integers(0, 12),
        base=st.floats(0.001, 2.0, allow_nan=False),
        cap=st.floats(0.001, 5.0, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    def test_backoff_within_half_span_and_span(self, attempt, base, cap, seed):
        rng = random_module.Random(seed)
        span = min(cap, base * 2.0 ** attempt)
        backoff = jittered_backoff(
            attempt, base_seconds=base, cap_seconds=cap, rng=rng
        )
        assert span / 2 <= backoff <= span

    def test_backoff_is_deterministic_given_seed(self):
        draws = [
            tuple(
                jittered_backoff(
                    a, base_seconds=0.05, cap_seconds=2.0,
                    rng=random_module.Random(7),
                )
                for a in range(6)
            )
            for _ in range(2)
        ]
        assert draws[0] == draws[1]

    def test_budget_counts_down_then_refuses(self):
        budget = RetryPolicy(max_retries=2).budget()
        assert budget.admissible() is None
        assert budget.admit() is None  # no deadline: unbounded remaining
        assert budget.admit() is None
        assert budget.admissible() == "retry-budget"
        with pytest.raises(RuntimeError):
            budget.admit()
        assert budget.attempts == 3

    def test_budget_enforces_the_original_deadline(self):
        clock = _FakeClock(100.0)
        budget = RetryPolicy(max_retries=5).budget(
            deadline_at=101.0, clock=clock
        )
        remaining = budget.admit()
        assert remaining == pytest.approx(1.0)
        clock.advance(2.0)  # past the original deadline
        assert budget.admissible() == "deadline"
        with pytest.raises(RuntimeError):
            budget.admit()

    def test_negative_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            jittered_backoff(
                0, base_seconds=-1.0, cap_seconds=1.0,
                rng=random_module.Random(0),
            )


class TestRingFailover:
    def test_exclude_walks_to_the_next_live_owner(self):
        ring = ConsistentHashRing(4)
        key = "template-fingerprint"
        primary = ring.shard_for(key)
        failover = ring.shard_for(key, exclude={primary})
        assert failover != primary
        # Deterministic: the same exclusion always lands the same node.
        assert failover == ring.shard_for(key, exclude={primary})

    def test_all_down_raises_lookup_error(self):
        ring = ConsistentHashRing(3)
        with pytest.raises(LookupError):
            ring.shard_for("k", exclude={0, 1, 2})


# ---------------------------------------------------------------------------
# Unit layer: the supervisor state machine (fake router, fake clock)
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _FakeRouter:
    """Just enough router surface for supervisor unit tests."""

    def __init__(self, shards: int = 2, respawn_ok: bool = True):
        self.shards = shards
        self.respawn_ok = respawn_ok
        self.respawns = []

    def _respawn_shard(self, shard_id: int, incarnation: int) -> bool:
        self.respawns.append((shard_id, incarnation))
        return self.respawn_ok


def _drain_due(supervisor: ShardSupervisor) -> int:
    """Run every currently-due scheduled restart; the count executed.

    Drives the schedule synchronously instead of via the supervisor
    thread, so unit tests never sleep.
    """
    import heapq

    ran = 0
    while True:
        with supervisor._cond:
            if (
                not supervisor._due
                or supervisor._due[0][0] > supervisor._clock()
            ):
                return ran
            _, shard_id, attempt = heapq.heappop(supervisor._due)
        supervisor._attempt_restart(shard_id, attempt)
        ran += 1


class TestSupervisorStateMachine:
    def make(self, policy=None, shards=2):
        clock = _FakeClock()
        router = _FakeRouter(shards=shards)
        supervisor = ShardSupervisor(
            router,
            policy or SupervisorPolicy(max_restarts=2, seed=11),
            clock=clock,
        )
        return supervisor, router, clock

    def test_death_schedules_a_seeded_backoff_restart(self):
        supervisor, router, clock = self.make()
        supervisor.on_worker_death(0, exitcode=-9, inflight_lost=3)
        snapshot = supervisor.snapshot()
        assert snapshot["per_shard"][0]["state"] == "backoff"
        assert snapshot["scheduled_restarts"] == 1
        assert supervisor.metrics.worker_deaths == 1
        # Not due yet (backoff > 0), then due after the clock advances.
        assert _drain_due(supervisor) == 0
        clock.advance(SupervisorPolicy().backoff_base_seconds * 2)
        assert _drain_due(supervisor) == 1
        assert router.respawns == [(0, 1)]
        kinds = [event["kind"] for event in supervisor.events()]
        assert kinds == [
            "worker-death", "restart-scheduled", "worker-restarted",
        ]

    def test_backoff_schedule_is_reproducible_across_instances(self):
        def schedule():
            supervisor, _, clock = self.make(
                policy=SupervisorPolicy(max_restarts=9, seed=42)
            )
            backoffs = []
            for _ in range(4):
                supervisor.on_worker_death(1, exitcode=None, inflight_lost=0)
                clock.advance(10.0)
                _drain_due(supervisor)
            for event in supervisor.events():
                if event["kind"] == "restart-scheduled":
                    backoffs.append(event["backoff_seconds"])
            return backoffs

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 4
        assert all(backoff > 0 for backoff in first)

    def test_ready_resets_the_budget_and_records_recovery(self):
        supervisor, router, clock = self.make()
        supervisor.on_worker_death(0, exitcode=-9, inflight_lost=0)
        clock.advance(1.0)
        _drain_due(supervisor)
        clock.advance(0.5)
        supervisor.on_worker_ready(0, incarnation=1)
        snapshot = supervisor.snapshot()
        assert snapshot["per_shard"][0]["state"] == "up"
        assert snapshot["per_shard"][0]["consecutive_failures"] == 0
        assert snapshot["per_shard"][0]["incarnation"] == 1
        recovery = snapshot["metrics"]["recovery_seconds"]
        assert recovery["count"] == 1
        assert recovery["max"] == pytest.approx(1.5)

    def test_budget_exhaustion_opens_the_breaker_then_half_open_trial(self):
        policy = SupervisorPolicy(
            max_restarts=1, breaker_cooldown_seconds=30.0, seed=3
        )
        supervisor, router, clock = self.make(policy=policy)
        # Death 1: restart admitted (budget 1).
        supervisor.on_worker_death(0, exitcode=-9, inflight_lost=0)
        clock.advance(5.0)
        assert _drain_due(supervisor) == 1
        assert len(router.respawns) == 1
        # Death 2 without an intervening ready: budget exhausted.
        supervisor.on_worker_death(0, exitcode=-9, inflight_lost=0)
        clock.advance(5.0)
        assert _drain_due(supervisor) == 1  # the attempt ran, but parked
        assert len(router.respawns) == 1  # no new respawn
        snapshot = supervisor.snapshot()
        assert snapshot["per_shard"][0]["state"] == "open"
        assert snapshot["per_shard"][0]["breaker"] == "open"
        assert supervisor.metrics.breaker_opens == 1
        assert snapshot["scheduled_restarts"] == 1  # the half-open trial
        # After the cooldown the half-open trial restarts the worker.
        clock.advance(policy.breaker_cooldown_seconds + 0.1)
        assert _drain_due(supervisor) == 1
        assert len(router.respawns) == 2
        # A success closes the breaker and refreshes the budget.
        supervisor.on_worker_ready(0, incarnation=router.respawns[-1][1])
        assert supervisor.snapshot()["per_shard"][0]["breaker"] == "closed"

    def test_respawn_refused_by_draining_router_stops_quietly(self):
        supervisor, router, clock = self.make()
        router.respawn_ok = False
        supervisor.on_worker_death(0, exitcode=None, inflight_lost=0)
        clock.advance(1.0)
        _drain_due(supervisor)
        assert supervisor.metrics.restarts == 0
        assert supervisor.snapshot()["scheduled_restarts"] == 0

    def test_stop_is_idempotent(self):
        supervisor, _, _ = self.make()
        supervisor.start()
        supervisor.stop()
        supervisor.stop()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_base_seconds=-0.1)
        with pytest.raises(ValueError):
            SupervisorPolicy(breaker_cooldown_seconds=-1.0)


# ---------------------------------------------------------------------------
# Integration layer: one real supervised cluster
# ---------------------------------------------------------------------------

#: Fast-healing policy so the integration tests never wait long.
FAST_POLICY = SupervisorPolicy(
    max_restarts=8,
    backoff_base_seconds=0.02,
    backoff_cap_seconds=0.2,
    seed=7,
)

RECOVERY_TIMEOUT = 30.0


def _await_live(router: ShardRouter, count: int) -> bool:
    deadline = time.monotonic() + RECOVERY_TIMEOUT
    while time.monotonic() < deadline:
        if len(router.live_shards()) == count:
            return True
        time.sleep(0.05)
    return False


def _rows(outcomes):
    assert all(isinstance(o, DBMSResult) for o in outcomes)
    return [(o.relation.attributes, o.relation.tuples, o.work) for o in outcomes]


@pytest.fixture(scope="module")
def healed_cluster(chain_db_module):
    """Kill a worker mid-life, let the supervisor heal it, capture it all."""
    config = ServiceConfig(
        database=chain_db_module,
        max_width=2,
        workers=2,
        queue_capacity=256,
        cache_capacity=64,
        seed=0,
        insights=True,
    )
    router = ShardRouter(config, shards=SHARDS, supervise=FAST_POLICY)
    artifacts = {}
    try:
        queries = workload()
        artifacts["before"] = router.run_all(queries)
        artifacts["epoch_before"] = router.ring_epoch()

        victim = router.route(TEMPLATES[0].format(c=3))
        os.kill(router.shard_pids()[victim], signal.SIGKILL)
        artifacts["victim"] = victim

        # Immediately after the kill: traffic must fail over, not error.
        artifacts["during"] = router.run_all(queries)
        artifacts["recovered"] = _await_live(router, SHARDS)
        artifacts["after"] = router.run_all(queries)
        artifacts["epoch_after"] = router.ring_epoch()
        artifacts["snapshot"] = snapshot = router.snapshot()
        artifacts["prometheus"] = "\n".join([
            render_prometheus(snapshot["merged"]),
            render_prometheus({"shard": snapshot["supervisor"]["metrics"]}),
        ])
        artifacts["live_after"] = router.live_shards()
    finally:
        artifacts["drained"] = router.drain(grace_seconds=30.0)
        artifacts["drain_again"] = router.drain(grace_seconds=30.0)
        artifacts["router"] = router
    return artifacts


@pytest.fixture(scope="module")
def chain_db_module():
    """Module-scoped copy of the conftest chain database."""
    import random

    from repro.relational import AttributeType, Database, RelationSchema

    rng = random.Random(0)
    db = Database("chain4")
    for i in range(4):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(
            schema, [(rng.randrange(8), rng.randrange(8)) for _ in range(40)]
        )
    db.analyze()
    return db


class TestSelfHealingCluster:
    def test_no_wrong_answers_at_any_phase(self, healed_cluster):
        before = _rows(healed_cluster["before"])
        assert _rows(healed_cluster["during"]) == before
        assert _rows(healed_cluster["after"]) == before

    def test_shard_count_restored(self, healed_cluster):
        assert healed_cluster["recovered"]
        assert sorted(healed_cluster["live_after"]) == list(range(SHARDS))

    def test_ring_epoch_bumped_down_and_up(self, healed_cluster):
        # One death + one recovery = two epoch bumps (each clears the
        # route LRU, so templates return to their primary owner).
        assert (
            healed_cluster["epoch_after"]
            >= healed_cluster["epoch_before"] + 2
        )

    def test_supervisor_snapshot_records_the_healing(self, healed_cluster):
        supervisor_view = healed_cluster["snapshot"]["supervisor"]
        metrics = supervisor_view["metrics"]
        assert metrics["worker_deaths"] >= 1
        assert metrics["restarts"] >= 1
        assert metrics["ring_epochs"] >= 2
        assert metrics["recovery_seconds"]["count"] >= 1
        assert metrics["recovery_seconds"]["max"] > 0
        victim = healed_cluster["victim"]
        assert supervisor_view["per_shard"][victim]["state"] == "up"
        assert supervisor_view["per_shard"][victim]["incarnation"] >= 1
        kinds = {event["kind"] for event in supervisor_view["events"]}
        assert {
            "worker-death", "restart-scheduled",
            "worker-restarted", "shard-recovered",
        } <= kinds

    def test_prometheus_exposition_carries_the_supervisor_instruments(
        self, healed_cluster
    ):
        """The cluster exposition (what ``hdqo serve --metrics-format
        prom`` prints) is the workers' merged snapshot *plus* the
        supervisor's metrics as ``hdqo_shard_*``, restarts and the
        recovery-time histogram included."""
        text = healed_cluster["prometheus"]
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        metrics = healed_cluster["snapshot"]["supervisor"]["metrics"]
        assert int(samples["hdqo_shard_restarts"]) >= 1
        assert int(samples["hdqo_shard_worker_deaths"]) >= 1
        recovery = metrics["recovery_seconds"]
        assert int(samples["hdqo_shard_recovery_seconds_count"]) >= 1
        assert "# TYPE hdqo_shard_recovery_seconds histogram" in text
        assert "hdqo_queries_submitted" in samples
        assert_wellformed_exposition(
            text, sums={"hdqo_shard_recovery_seconds": recovery["total"]}
        )

    def test_router_snapshot_tags_down_shards_and_incarnations(
        self, healed_cluster
    ):
        router_view = healed_cluster["snapshot"]["router"]
        assert router_view["down_shards"] == []  # healed by snapshot time
        victim = healed_cluster["victim"]
        assert router_view["per_shard"][victim]["incarnation"] >= 1
        assert router_view["ring_epoch"] == healed_cluster["epoch_after"]

    def test_supervision_events_surface_in_merged_slow_log(
        self, healed_cluster
    ):
        merged = healed_cluster["snapshot"]["merged"]
        events = merged["insights"]["slow_log"]["events"]
        kinds = {event.get("kind") for event in events}
        assert "worker-death" in kinds

    def test_drain_is_clean_and_idempotent_after_healing(self, healed_cluster):
        assert healed_cluster["drained"] is True
        assert healed_cluster["drain_again"] is True

    def test_no_lock_order_violations(self, healed_cluster):
        assert healed_cluster["router"].lock_violations() == {}


class TestSupervisedParity:
    def test_zero_fault_supervised_run_is_byte_identical(self, chain_db_module):
        """The acceptance bar: ``supervise`` must be invisible when
        nothing fails — same rows, same order, same work counters."""
        config = ServiceConfig(
            database=chain_db_module,
            max_width=2,
            workers=2,
            queue_capacity=256,
            cache_capacity=64,
            seed=0,
        )
        queries = workload()

        plain = ShardRouter(config, shards=SHARDS)
        try:
            baseline = plain.run_all(queries)
        finally:
            assert plain.drain(grace_seconds=30.0)

        supervised = ShardRouter(
            config, shards=SHARDS, supervise=FAST_POLICY
        )
        try:
            outcomes = supervised.run_all(queries)
            snapshot = supervised.snapshot()
        finally:
            assert supervised.drain(grace_seconds=30.0)

        assert _rows(outcomes) == _rows(baseline)
        # A fault-free supervised run never healed anything.
        metrics = snapshot["supervisor"]["metrics"]
        assert metrics["worker_deaths"] == 0
        assert metrics["restarts"] == 0
        assert snapshot["router"]["ring_epoch"] == 0


class TestConcurrentDrain:
    def test_drain_races_with_watchdog_restart(self, chain_db_module):
        """Kill a worker, then drain from two threads while the
        supervisor is mid-restart: exactly one drain runs, both callers
        get the same verdict, nothing hangs, nothing respawns after."""
        config = ServiceConfig(
            database=chain_db_module,
            max_width=2,
            workers=2,
            queue_capacity=64,
            seed=0,
        )
        router = ShardRouter(config, shards=2, supervise=FAST_POLICY)
        verdicts = []
        try:
            sql = TEMPLATES[0].format(c=3)
            router.run_all([sql])
            # The victim is the worker that just answered.
            victim = router.route(sql)
            os.kill(router.shard_pids()[victim], signal.SIGKILL)
            started = time.monotonic()

            def drain():
                verdicts.append(router.drain(grace_seconds=30.0))

            threads = [threading.Thread(target=drain) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            # Neither drain sits out grace + margin on the killed worker.
            assert time.monotonic() - started < 10.0
        finally:
            verdicts.append(router.drain(grace_seconds=30.0))
        assert verdicts[0] is False  # a shard did not drain cleanly
        assert len(set(verdicts)) == 1  # idempotent: one shared verdict
        assert router.lock_violations() == {}


#: A single-atom scan whose answer pickles to > 1 MB (120k two-int rows).
BIG_ROWS = 120_000
BIG_SQL = "SELECT big.x, big.y FROM big"

#: Small templates over a 40-row table; at least one lives off the
#: large answer's shard.
SMALL_SQL = [
    "SELECT s.a FROM small s WHERE s.a < 5",
    "SELECT s.a, t.b FROM small s, small t WHERE s.b = t.a",
    "SELECT s.b FROM small s, small t WHERE s.a = t.b AND t.a < 5",
    "SELECT s.a, s.b FROM small s WHERE s.b < 5",
]

KILLS = 5


def _big_db():
    db = Database("big-answers")
    ints = AttributeType.INT
    db.create_table(
        RelationSchema.of("big", {"x": ints, "y": ints}),
        [(i, (i * 7919) % 100_003) for i in range(BIG_ROWS)],
    )
    db.create_table(
        RelationSchema.of("small", {"a": ints, "b": ints}),
        [(i % 8, (3 * i) % 8) for i in range(40)],
    )
    db.analyze()
    return db


class TestKillWhileSendingLargeAnswers:
    def test_kills_mid_answer_resolve_everything_and_drain(self):
        """SIGKILL the large answer's worker five times while it streams
        > 1 MB answers: every query resolves (rows or a typed error), the
        other shard keeps answering throughout, and drain takes seconds."""
        router = ShardRouter(
            ServiceConfig(
                database=_big_db(), max_width=2, workers=2,
                queue_capacity=64, seed=0,
            ),
            shards=2,
            supervise=FAST_POLICY,
        )
        stop = threading.Event()
        small_outcomes, kill_times, big_futures = [], [], []
        drain_seconds = None
        try:
            owner = router.route(BIG_SQL)
            small = [sql for sql in SMALL_SQL if router.route(sql) != owner]
            assert small
            big_rows = _rows([router.submit(BIG_SQL).result(timeout=60)])
            assert len(pickle.dumps(big_rows[0][1])) >= 1 << 20
            small_rows = _rows(router.run_all(small))

            def small_traffic():
                while not stop.is_set():
                    outcomes = router.run_all(small, return_exceptions=True)
                    small_outcomes.append((time.monotonic(), outcomes))

            thread = threading.Thread(target=small_traffic, daemon=True)
            thread.start()
            killed = None
            for _ in range(KILLS):
                # Wait for a fresh incarnation to serve the owner's slice
                # again (a just-killed process can still look alive).
                deadline = time.monotonic() + RECOVERY_TIMEOUT
                while not (
                    router.shard_pids().get(owner) not in (None, killed)
                    and len(router.live_shards()) == 2
                    and router.route(BIG_SQL) == owner
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                batch = [router.submit(BIG_SQL) for _ in range(4)]
                big_futures.extend(batch)
                stalled = threading.Event()

                def stall_collector(_):
                    # Done-callbacks run on the collector thread: while it
                    # sleeps here, the worker's next answer fills the pipe
                    # and blocks mid-frame.
                    if not stalled.is_set():
                        stalled.set()
                        time.sleep(0.5)

                for future in batch:
                    future.add_done_callback(stall_collector)
                wait(batch, timeout=60, return_when=FIRST_COMPLETED)
                time.sleep(0.25)
                killed = router.shard_pids()[owner]
                os.kill(killed, signal.SIGKILL)
                kill_times.append(time.monotonic())
            for future in big_futures:
                try:
                    assert _rows([future.result(timeout=60)]) == big_rows
                except ReproError:
                    pass  # typed: a retry budget ran out
            time.sleep(0.5)
            stop.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            stop.set()
            started = time.monotonic()
            router.drain(grace_seconds=30.0)
            drain_seconds = time.monotonic() - started
        assert drain_seconds < 10.0
        for _, outcomes in small_outcomes:
            assert _rows(outcomes) == small_rows
        for killed_at in kill_times:  # the other shard never stalled
            assert any(
                killed_at < at <= killed_at + 5.0 for at, _ in small_outcomes
            )
        assert router.lock_violations() == {}

"""Shard subsystem: ring, wire codec, aggregation, router, front door.

The cheap layers (hash ring, error codec, snapshot/span/registry merges,
span-record validation) are tested in-process.  The expensive layer —
real worker processes behind a :class:`ShardRouter` — runs **once** in a
module-scoped fixture that drives a multi-template workload through both
the blocking router API and the asyncio front door, captures every
artifact (results, snapshots, merged trace, Prometheus text), drains,
and lets the assertions below pick the run apart.  The contract under
test is the PR's acceptance bar: a sharded cluster answers
byte-identically (rows *and* order) to one single-process service, with
per-shard plan-cache hit rates no worse than the baseline's.
"""

import asyncio
import pickle
import random
from types import SimpleNamespace

import pytest

from repro.engine.dbms import COMMDB_PROFILE, DBMSResult, SimulatedDBMS
from repro.errors import (
    DeadlineExceeded,
    InjectedFault,
    MemoryBudgetExceeded,
    QueryCancelled,
    ReproError,
    ServiceClosed,
    ServiceOverloaded,
    ShardError,
    SqlSyntaxError,
    WorkBudgetExceeded,
)
from repro.obs.histogram import Histogram, summarised
from repro.obs.metrics import (
    MetricsRegistry,
    merge_registry_exports,
    render_prometheus,
)
from repro.obs.tracing import validate_span_records
from repro.relational import AttributeType, Database, RelationSchema
from repro.service.config import ServiceConfig
from repro.service.server import QueryService
from repro.shard import (
    AsyncFrontDoor,
    ConsistentHashRing,
    ShardRouter,
    decode_error,
    encode_error,
    merge_metric_snapshots,
    merge_span_records,
    shard_cache_hit_rates,
)

from tests.conftest import CHAIN_SQL, assert_wellformed_exposition

SHARDS = 3

#: Four non-isomorphic templates over the chain schema — distinct
#: canonical fingerprints, so consistent hashing can spread them.
TEMPLATES = [
    CHAIN_SQL.strip() + " AND r0.a0 < {c}",
    CHAIN_SQL.strip() + " AND r1.a1 < {c}",
    "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}",
    "SELECT r2.a2, r3.a3 FROM r2, r3 WHERE r2.b2 = r3.a3 AND r2.a2 < {c}",
]

REPETITIONS = 6


def workload():
    """Round-robin over the templates, constants varying per repetition."""
    return [
        template.format(c=3 + (rep % 4))
        for rep in range(REPETITIONS)
        for template in TEMPLATES
    ]


# ---------------------------------------------------------------------------
# Consistent hash ring
# ---------------------------------------------------------------------------


class TestConsistentHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"fingerprint-{i}" for i in range(200)]
        first = ConsistentHashRing(4)
        second = ConsistentHashRing(4)
        assert [first.shard_for(k) for k in keys] == [
            second.shard_for(k) for k in keys
        ]

    def test_every_shard_owns_keys(self):
        keys = [f"template:{i}" for i in range(500)]
        counts = ConsistentHashRing(4).distribution(keys)
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == len(keys)

    def test_single_shard_owns_everything(self):
        ring = ConsistentHashRing(1)
        assert {ring.shard_for(f"k{i}") for i in range(50)} == {0}

    def test_resize_moves_a_minority_of_keys(self):
        """The consistent-hashing property: growing 4 -> 5 shards must
        relocate roughly 1/5 of the keys, not rehash the world."""
        keys = [f"fingerprint-{i}" for i in range(1000)]
        small, large = ConsistentHashRing(4), ConsistentHashRing(5)
        moved = sum(
            1 for k in keys if small.shard_for(k) != large.shard_for(k)
        )
        assert 0 < moved < len(keys) // 2

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(0)
        with pytest.raises(ValueError):
            ConsistentHashRing(2, replicas=0)


# ---------------------------------------------------------------------------
# Error codec
# ---------------------------------------------------------------------------


class TestErrorCodec:
    @pytest.mark.parametrize(
        "original",
        [
            WorkBudgetExceeded(1000, 1234, phase="exec.join"),
            DeadlineExceeded(0.5, 0.7, site="exec.scan"),
            QueryCancelled("shard draining", site="shard.queue"),
            MemoryBudgetExceeded(
                "exec.join", rows=10, row_width=4, cells=40, budget_cells=30
            ),
            InjectedFault("decompose.search"),
            ServiceOverloaded(queued=64, capacity=64),
            SqlSyntaxError("unexpected token", position=17),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_round_trip_preserves_type_and_attributes(self, original):
        rebuilt = decode_error(*encode_error(original))
        assert type(rebuilt) is type(original)
        assert str(rebuilt) == str(original)
        for attr, value in vars(original).items():
            assert getattr(rebuilt, attr) == value

    def test_message_only_types_round_trip(self):
        rebuilt = decode_error(*encode_error(ServiceClosed("router closed")))
        assert type(rebuilt) is ServiceClosed
        assert str(rebuilt) == "router closed"

    def test_unknown_type_degrades_to_shard_error(self):
        rebuilt = decode_error("NotARealError", "boom", {})
        assert isinstance(rebuilt, ShardError)
        assert rebuilt.original_type == "NotARealError"
        assert "boom" in str(rebuilt)

    def test_non_error_attribute_never_leaks_arbitrary_types(self):
        """Only ReproError subclasses reconstruct; e.g. a name that
        resolves to a non-exception in the errors module degrades."""
        rebuilt = decode_error("Dict", "boom", {})
        assert isinstance(rebuilt, ShardError)


# ---------------------------------------------------------------------------
# Aggregation: snapshots, spans, registries
# ---------------------------------------------------------------------------


class TestMergeMetricSnapshots:
    def test_counters_sum_and_derived_fields_recompute(self):
        busy, idle = Histogram(), Histogram()
        busy.observe(0.25)
        busy.observe(0.75)
        left = {
            "queries": {"submitted": 3, "finished": 3},
            "latency_seconds": summarised(busy.snapshot()),
            "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
        }
        right = {
            "queries": {"submitted": 5, "finished": 4},
            # count == 0: the summary's min/max are 0.0 placeholders.
            "latency_seconds": summarised(idle.snapshot()),
            "cache": {"hits": 1, "misses": 3, "hit_rate": 0.25},
        }
        assert right["latency_seconds"]["min"] == 0.0
        merged = merge_metric_snapshots([left, right])
        assert merged["queries"] == {"submitted": 8, "finished": 7}
        latency = merged["latency_seconds"]
        assert latency["count"] == 2
        assert latency["total"] == 1.0
        assert latency["mean"] == 0.5  # recomputed, not summed
        # The empty shard's 0.0 placeholders must not win the extrema.
        assert latency["min"] == 0.25
        assert latency["max"] == 0.75
        assert latency == left["latency_seconds"]
        assert merged["cache"]["hit_rate"] == 0.5  # 4 hits / 8 lookups

    def test_empty_input(self):
        assert merge_metric_snapshots([]) == {}
        assert merge_metric_snapshots([{}, {}]) == {}


class TestMergeSpanRecords:
    def spans(self, n, parented=True):
        records = []
        for i in range(n):
            records.append({
                "span_id": i,
                "parent_id": (i - 1 if parented and i else None),
                "name": f"op{i}",
                "start": 0.1 * i,
                "duration": 0.01,
                "work_units": 1,
                "tags": {"k": 2},
            })
        return records

    def test_ids_namespaced_and_shard_tagged(self):
        per_shard = {0: self.spans(3), 2: self.spans(2)}
        merged = merge_span_records(per_shard, stride=1000)
        ids = [r["span_id"] for r in merged]
        assert ids == [1000, 1001, 1002, 3000, 3001]
        assert merged[1]["parent_id"] == 1000
        assert merged[4]["parent_id"] == 3000
        assert [r["tags"]["shard"] for r in merged] == [0, 0, 0, 2, 2]
        # Original tags survive alongside the added shard tag.
        assert merged[0]["tags"]["k"] == 2
        # The merged timeline passes the cross-process contract.
        assert validate_span_records(merged, require_shard_tag=True) == []

    def test_inputs_not_mutated(self):
        records = self.spans(2)
        merge_span_records({1: records})
        assert records[0]["span_id"] == 0
        assert "shard" not in records[0]["tags"]

    def test_span_id_overflowing_stride_raises(self):
        with pytest.raises(ValueError):
            merge_span_records({0: [{"span_id": 1000, "tags": {}}]},
                               stride=1000)


class TestValidateSpanRecords:
    def record(self, span_id, **overrides):
        base = {
            "span_id": span_id, "parent_id": None, "name": "op",
            "start": 0.0, "duration": 0.01, "work_units": 0,
            "tags": {"shard": 0},
        }
        base.update(overrides)
        return base

    def test_clean_records_pass(self):
        records = [self.record(1), self.record(2, parent_id=1)]
        assert validate_span_records(records, require_shard_tag=True) == []

    def test_duplicate_ids_detected(self):
        problems = validate_span_records([self.record(1), self.record(1)])
        assert any("duplicate" in p for p in problems)

    def test_dangling_parent_detected_only_when_nothing_dropped(self):
        records = [self.record(1, parent_id=99)]
        assert any(
            "unknown parent" in p for p in validate_span_records(records)
        )
        # With drops reported, the parent may legitimately be gone.
        assert validate_span_records(records, dropped=1) == []

    def test_missing_or_bool_shard_tag_detected(self):
        records = [self.record(1, tags={})]
        assert validate_span_records(records) == []  # tag not demanded
        problems = validate_span_records(records, require_shard_tag=True)
        assert any("'shard' tag" in p for p in problems)
        sneaky = [self.record(1, tags={"shard": True})]
        assert validate_span_records(sneaky, require_shard_tag=True)

    def test_open_spans_and_negative_durations_detected(self):
        assert validate_span_records([], open_count=2)
        problems = validate_span_records([self.record(1, duration=-0.5)])
        assert any("negative" in p for p in problems)


class TestRegistryAggregation:
    def populated_registry(self, scale):
        registry = MetricsRegistry()
        counter = registry.counter("rpc_total", help="requests")
        counter.inc(3 * scale)
        gauge = registry.gauge("inflight", help="current")
        gauge.set(2 * scale)
        histogram = registry.histogram("latency", help="seconds")
        histogram.observe(0.05 * scale)
        registry.histogram("idle", help="never observed")
        return registry

    def test_single_export_renders_like_the_live_registry(self):
        registry = self.populated_registry(1)
        live = render_prometheus(registry.export())
        shipped = pickle.loads(pickle.dumps(registry.export()))
        assert render_prometheus(shipped) == live
        assert render_prometheus(merge_registry_exports([shipped])) == live
        assert_wellformed_exposition(live, sums={"latency": 0.05, "idle": 0.0})

    def test_merge_sums_counters_and_histograms(self):
        exports = [
            self.populated_registry(1).export(),
            self.populated_registry(2).export(),
        ]
        merged = merge_registry_exports(exports)
        assert merged["rpc_total"]["value"] == 9
        assert merged["inflight"]["value"] == 6
        histogram = merged["latency"]["value"]
        assert histogram["count"] == 2
        assert histogram["min"] == 0.05
        assert histogram["max"] == 0.1
        # Extrema ignore histograms that never observed anything.
        assert merged["idle"]["value"]["count"] == 0
        assert merged["idle"]["value"]["min"] is None
        text = render_prometheus(merged)
        assert "rpc_total 9" in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert_wellformed_exposition(text, sums={"latency": 0.15})

    def test_kind_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_registry_exports([
                {"m": {"kind": "counter", "help": "", "value": 1}},
                {"m": {"kind": "gauge", "help": "", "value": 1}},
            ])


class TestShardCacheHitRates:
    def test_per_query_rate_from_planning_counters(self):
        rates = shard_cache_hit_rates({
            0: {"planning": {"built": 2, "cache_hits": 14}},
            1: {"planning": {"built": 0, "cache_hits": 0}},
        })
        assert rates == {0: 0.875, 1: None}


# ---------------------------------------------------------------------------
# The real cluster (one spawn per module)
# ---------------------------------------------------------------------------


def _make_chain_db():
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


@pytest.fixture(scope="module")
def cluster():
    """One sharded run, fully captured: results, snapshots, trace, exits."""
    database = _make_chain_db()
    queries = workload()

    baseline_service = QueryService(
        SimulatedDBMS(database, COMMDB_PROFILE),
        max_width=2,
        workers=4,
        queue_capacity=64,
        cache_capacity=64,
    )
    try:
        baseline_results = baseline_service.run_all(queries)
        baseline_snapshot = baseline_service.snapshot()
    finally:
        baseline_service.close()

    config = ServiceConfig(
        database=database,
        max_width=2,
        workers=2,
        queue_capacity=32,
        cache_capacity=64,
        trace=True,
    )
    router = ShardRouter(config, shards=SHARDS)
    routes = {sql: router.route(sql) for sql in queries}
    routes_again = {sql: router.route(sql) for sql in queries}
    sharded_results = router.run_all(queries)

    async def front_door_pass():
        async with AsyncFrontDoor(router, queue_depth=8) as door:
            results = await door.run_all(queries)
            return results, door.snapshot()

    frontdoor_results, frontdoor_snapshot = asyncio.run(front_door_pass())
    live_snapshot = router.snapshot()
    prometheus_text = router.render_prometheus()
    latencies = router.client_latencies()
    drained = router.drain(grace_seconds=30.0)
    yield SimpleNamespace(
        database=database,
        queries=queries,
        baseline_results=baseline_results,
        baseline_snapshot=baseline_snapshot,
        router=router,
        routes=routes,
        routes_again=routes_again,
        sharded_results=sharded_results,
        frontdoor_results=frontdoor_results,
        frontdoor_snapshot=frontdoor_snapshot,
        live_snapshot=live_snapshot,
        prometheus_text=prometheus_text,
        latencies=latencies,
        drained=drained,
    )


class TestClusterParity:
    def test_sharded_answers_are_byte_identical(self, cluster):
        assert len(cluster.sharded_results) == len(cluster.baseline_results)
        for base, shard in zip(
            cluster.baseline_results, cluster.sharded_results
        ):
            assert isinstance(shard, DBMSResult)
            assert shard.finished
            # Rows AND order — the acceptance bar, not set equality.
            assert shard.relation.attributes == base.relation.attributes
            assert shard.relation.tuples == base.relation.tuples

    def test_front_door_answers_match_router_answers(self, cluster):
        for direct, doored in zip(
            cluster.sharded_results, cluster.frontdoor_results
        ):
            assert doored.relation.tuples == direct.relation.tuples

    def test_deterministic_work_survives_the_boundary(self, cluster):
        for base, shard in zip(
            cluster.baseline_results, cluster.sharded_results
        ):
            assert shard.work == base.work


class TestClusterRouting:
    def test_routing_is_deterministic(self, cluster):
        assert cluster.routes == cluster.routes_again

    def test_isomorphic_queries_share_a_shard(self, cluster):
        by_template = {}
        for template in TEMPLATES:
            instances = [
                sql
                for sql in cluster.queries
                if sql.startswith(template.split("{c}")[0])
            ]
            shards = {cluster.routes[sql] for sql in instances}
            assert len(shards) == 1, template
            by_template[template] = shards.pop()
        # ... and the workload genuinely exercised more than one shard.
        assert len(set(by_template.values())) > 1

    def test_routing_cache_served_the_repeats(self, cluster):
        routing = cluster.live_snapshot["router"]["routing_cache"]
        assert routing["misses"] <= len(TEMPLATES)
        assert routing["hits"] > 0


class TestClusterObservability:
    def test_merged_counters_cover_every_query(self, cluster):
        # 3 passes over the workload: router.run_all, front door, and the
        # baseline ran separately (not merged here).
        merged = cluster.live_snapshot["merged"]
        expected = 2 * len(cluster.queries)
        assert merged["queries"]["submitted"] == expected
        assert merged["queries"]["finished"] == expected
        per_shard = cluster.live_snapshot["shards"]
        assert sum(
            s["queries"]["submitted"] for s in per_shard.values()
        ) == expected

    def test_per_shard_hit_rate_no_worse_than_baseline(self, cluster):
        planning = cluster.baseline_snapshot["planning"]
        baseline_rate = planning["cache_hits"] / (
            planning["cache_hits"] + planning["built"]
        )
        rates = [
            rate
            for rate in cluster.live_snapshot["cache_hit_rates"].values()
            if rate is not None
        ]
        assert rates
        assert min(rates) >= round(baseline_rate, 4)

    def test_prometheus_exposition_is_cluster_wide(self, cluster):
        text = cluster.prometheus_text
        expected = 2 * len(cluster.queries)
        assert f"service_queries_submitted_total {expected}" in text
        assert "# TYPE service_queries_submitted_total counter" in text
        assert f"service_latency_seconds_count {expected}" in text
        merged = cluster.live_snapshot["merged"]["latency_seconds"]
        assert_wellformed_exposition(
            text, sums={"service_latency_seconds": merged["total"]}
        )

    def test_client_latencies_recorded_per_query(self, cluster):
        assert len(cluster.latencies) == 2 * len(cluster.queries)
        assert all(latency >= 0 for latency in cluster.latencies)

    def test_front_door_saw_no_expiries_or_leftovers(self, cluster):
        snapshot = cluster.frontdoor_snapshot
        assert snapshot["expired_in_queue"] == 0
        assert sum(
            view["enqueued"] for view in snapshot["per_shard"].values()
        ) == len(cluster.queries)


class TestClusterDrain:
    def test_drain_was_clean_and_is_idempotent(self, cluster):
        assert cluster.drained is True
        assert cluster.router.drain() is True  # idempotent
        exits = cluster.router.worker_exits()
        assert set(exits) == set(range(SHARDS))
        assert all(exit_.drained for exit_ in exits.values())
        assert cluster.router.lock_violations() == {}

    def test_submit_after_drain_is_refused(self, cluster):
        with pytest.raises(ServiceClosed):
            cluster.router.submit(cluster.queries[0])

    def test_merged_trace_passes_cross_process_validation(self, cluster):
        records = cluster.router.span_records()
        assert records  # tracing was on in every worker
        problems = validate_span_records(
            records,
            dropped=cluster.router.spans_dropped(),
            open_count=cluster.router.open_spans(),
            require_shard_tag=True,
        )
        assert problems == []
        shards_seen = {record["tags"]["shard"] for record in records}
        assert shards_seen == set(range(SHARDS))
        assert cluster.router.open_spans() == 0

    def test_final_snapshot_merges_worker_exits(self, cluster):
        final = cluster.router.final_snapshot()
        assert final["unresponsive"] == []
        assert final["merged"]["queries"]["submitted"] == 2 * len(
            cluster.queries
        )


# ---------------------------------------------------------------------------
# Front-door semantics against a stub router (deterministic, no processes)
# ---------------------------------------------------------------------------


class _StubRouter:
    """Just enough router surface for front-door unit tests."""

    def __init__(self, shards=1, max_inflight_per_shard=1):
        self.shards = shards
        self.max_inflight_per_shard = max_inflight_per_shard
        self.submitted = []
        self.futures = []
        self.fail_with = None

    def route(self, sql):
        return 0

    def submit(self, sql, work_budget=None, deadline_seconds=None):
        if self.fail_with is not None:
            raise self.fail_with
        from concurrent.futures import Future

        future = Future()
        self.submitted.append((sql, work_budget, deadline_seconds))
        self.futures.append(future)
        return future


class TestFrontDoorSemantics:
    def test_submit_nowait_rejects_when_the_queue_is_full(self):
        async def scenario():
            router = _StubRouter(max_inflight_per_shard=1)
            async with AsyncFrontDoor(router, queue_depth=1) as door:
                # q1 occupies the router slot (its future never resolves
                # here), q2 occupies the dispatcher awaiting the
                # semaphore, q3 fills the queue; q4 must bounce.
                tasks = [
                    asyncio.create_task(door.submit(f"q{i}"))
                    for i in range(3)
                ]
                await asyncio.sleep(0.05)  # let the dispatcher settle
                with pytest.raises(ServiceOverloaded):
                    await door.submit_nowait("q3")
                for future in router.futures:
                    future.set_result("done")
                for task in tasks:
                    task.cancel()
            return router

        router = asyncio.run(scenario())
        assert len(router.submitted) == 1  # only q0 reached the router

    def test_deadline_expires_while_queued(self):
        async def scenario():
            router = _StubRouter()
            async with AsyncFrontDoor(router, queue_depth=4) as door:
                blocker = asyncio.create_task(door.submit("block"))
                await asyncio.sleep(0.05)
                # The only router slot is held, so this waits in the
                # dispatcher past its entire (tiny) deadline.
                doomed = asyncio.create_task(
                    door.submit("late", deadline_seconds=0.01)
                )
                await asyncio.sleep(0.1)
                router.futures[0].set_result("done")
                assert await blocker == "done"
                with pytest.raises(DeadlineExceeded) as err:
                    await doomed
                assert err.value.site == "shard.frontdoor"
                return door.snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["expired_in_queue"] == 1

    def test_expired_items_drain_without_consuming_the_slot(self):
        """Submissions that expire *while queued* are rejected at
        dequeue, before the semaphore acquire: they neither strand a
        dispatch slot nor linger in the bounded queue."""

        async def scenario():
            router = _StubRouter(max_inflight_per_shard=1)
            async with AsyncFrontDoor(router, queue_depth=8) as door:
                blocker = asyncio.create_task(door.submit("block"))
                await asyncio.sleep(0.05)  # blocker holds the only slot
                doomed = [
                    asyncio.create_task(
                        door.submit(f"late{i}", deadline_seconds=0.01)
                    )
                    for i in range(3)
                ]
                await asyncio.sleep(0.1)  # all three expire while queued
                router.futures[0].set_result("done")
                assert await blocker == "done"
                for task in doomed:
                    with pytest.raises(DeadlineExceeded):
                        await task
                # The slot came back: a fresh submission dispatches.
                fresh = asyncio.create_task(door.submit("fresh"))
                await asyncio.sleep(0.05)
                router.futures[-1].set_result("done")
                assert await fresh == "done"
                return door.snapshot(), [s for s, _, _ in router.submitted]

        snapshot, submitted = asyncio.run(scenario())
        assert snapshot["expired_in_queue"] == 3
        assert submitted == ["block", "fresh"]  # the doomed never dispatch
        assert all(
            view["queued"] == 0 for view in snapshot["per_shard"].values()
        )

    def test_abandoned_submission_skipped_at_dequeue(self):
        """A caller that gave up while queued is dropped at dequeue
        without taking (or leaking) a semaphore slot."""

        async def scenario():
            router = _StubRouter(max_inflight_per_shard=1)
            async with AsyncFrontDoor(router, queue_depth=8) as door:
                blocker = asyncio.create_task(door.submit("block"))
                await asyncio.sleep(0.05)
                abandoned = [
                    asyncio.create_task(door.submit(f"gone{i}"))
                    for i in range(2)
                ]
                await asyncio.sleep(0.05)
                for task in abandoned:
                    task.cancel()
                await asyncio.sleep(0.05)
                router.futures[0].set_result("done")
                assert await blocker == "done"
                fresh = asyncio.create_task(door.submit("fresh"))
                await asyncio.sleep(0.05)
                router.futures[-1].set_result("done")
                assert await fresh == "done"
                for task in abandoned:
                    with pytest.raises(asyncio.CancelledError):
                        await task
                return [sql for sql, _, _ in router.submitted]

        submitted = asyncio.run(scenario())
        assert submitted == ["block", "fresh"]

    def test_router_side_errors_surface_through_submit(self):
        async def scenario():
            router = _StubRouter()
            router.fail_with = ShardError("shard 0 worker is dead",
                                          shard_id=0)
            async with AsyncFrontDoor(router) as door:
                with pytest.raises(ShardError):
                    await door.submit("q")

        asyncio.run(scenario())

    def test_remaining_deadline_is_decremented_by_queue_wait(self):
        async def scenario():
            router = _StubRouter(max_inflight_per_shard=2)
            async with AsyncFrontDoor(router) as door:
                task = asyncio.create_task(
                    door.submit("q", deadline_seconds=30.0)
                )
                await asyncio.sleep(0.05)
                router.futures[0].set_result("done")
                await task
            return router.submitted[0][2]

        forwarded = asyncio.run(scenario())
        assert forwarded is not None
        assert 0 < forwarded <= 30.0

    def test_use_before_enter_is_an_error(self):
        door = AsyncFrontDoor(_StubRouter())

        async def scenario():
            with pytest.raises(RuntimeError):
                await door.submit("q")

        asyncio.run(scenario())

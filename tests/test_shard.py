"""Shard subsystem: ring, typed errors on the wire, aggregation, router.

The cheap layers (hash ring, error pickling, snapshot/span merges,
span-record validation) are tested in-process.  The expensive layer —
real worker processes behind a :class:`ShardRouter` — runs **once** in a
module-scoped fixture that drives a multi-template workload through the
router twice (the second pass from two threads at once), captures every
artifact (results, snapshots, merged trace, Prometheus text), drains,
and lets the assertions below pick the run apart.  The contract under
test is the acceptance bar: a sharded cluster answers byte-identically
(rows *and* order) to one single-process service, with per-shard
plan-cache hit rates no worse than the baseline's.  Worker death on the
transport — continuous traffic, orphaned workers — is tested at the end.
"""

import json
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.engine.dbms import COMMDB_PROFILE, DBMSResult, SimulatedDBMS
from repro.errors import (
    DeadlineExceeded,
    DecompositionError,
    DecompositionNotFound,
    ExecutionError,
    HypergraphError,
    InjectedFault,
    LockOrderViolation,
    MemoryBudgetExceeded,
    OptimizationError,
    QueryCancelled,
    QueryError,
    ReproError,
    SchemaError,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ShardError,
    ShardUnavailable,
    SqlSyntaxError,
    WorkBudgetExceeded,
)
from repro.obs.histogram import Histogram, summarised
from repro.obs.metrics import render_prometheus
from repro.obs.tracing import validate_span_records
from repro.relational import AttributeType, Database, RelationSchema
from repro.service.config import ServiceConfig
from repro.service.server import QueryService
from repro.shard import (
    ConsistentHashRing,
    QueryFailure,
    ShardRouter,
    merge_metric_snapshots,
    merge_span_records,
    shard_cache_hit_rates,
    wire_error,
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
# Typed errors on the wire
# ---------------------------------------------------------------------------


def wire_round_trip(exc):
    """What the router receives when a worker's query fails with ``exc``:
    the error :func:`wire_error` picks, sent through a real pipe."""
    receiver, sender = multiprocessing.Pipe(duplex=False)
    try:
        sender.send(QueryFailure(0, 0, wire_error(exc)))
        return receiver.recv().error
    finally:
        sender.close()
        receiver.close()


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


#: One example per error type whose constructor takes structured arguments.
STRUCTURED_ERRORS = [
    WorkBudgetExceeded(1000, 1234, phase="exec.join"),
    DeadlineExceeded(0.5, 0.7, site="exec.scan"),
    QueryCancelled("shard draining", site="shard.queue"),
    MemoryBudgetExceeded(
        "exec.join", rows=10, row_width=4, cells=40, budget_cells=30
    ),
    InjectedFault("decompose.search"),
    ServiceOverloaded(queued=64, capacity=64),
    SqlSyntaxError("unexpected token", position=17),
    DecompositionNotFound("no width-2 decomposition", width=2),
    ShardError("worker raised", original_type="KeyError", shard_id=1),
    ShardUnavailable(
        "no live shard", shard_id=2, attempts=3, reason="no-live-shard"
    ),
    LockOrderViolation(("A._lock", "B._lock", "A._lock")),
]

#: One example per error type whose constructor takes just a message.
MESSAGE_ONLY_ERRORS = [
    ReproError("base"),
    HypergraphError("unknown vertex"),
    QueryError("unsupported construct"),
    SchemaError("unknown relation"),
    ExecutionError("operator failed"),
    DecompositionError("invariant violated"),
    OptimizationError("no plan"),
    ServiceError("service failed"),
    ServiceClosed("router closed"),
]


def assert_same_error(rebuilt, original):
    assert type(rebuilt) is type(original)
    assert str(rebuilt) == str(original)
    assert vars(rebuilt) == vars(original)


class TestErrorCodec:
    """Every error crosses the shard pipe as itself (type, message,
    attributes); what cannot degrades to ``ShardError`` naming its type."""

    @pytest.mark.parametrize(
        "original", STRUCTURED_ERRORS, ids=lambda e: type(e).__name__
    )
    def test_round_trip_preserves_type_and_attributes(self, original):
        assert_same_error(wire_round_trip(original), original)

    def test_message_only_types_round_trip(self):
        for original in MESSAGE_ONLY_ERRORS:
            assert_same_error(wire_round_trip(original), original)

    def test_every_error_type_has_an_example(self):
        covered = {type(e) for e in STRUCTURED_ERRORS + MESSAGE_ONLY_ERRORS}
        missing = sorted(
            cls.__name__
            for cls in {ReproError, *all_subclasses(ReproError)} - covered
        )
        assert not missing, f"add a wire round-trip example for {missing}"

    def test_unknown_type_degrades_to_shard_error(self):
        rebuilt = wire_round_trip(KeyError("boom"))
        assert type(rebuilt) is ShardError
        assert rebuilt.original_type == "KeyError"
        assert "boom" in str(rebuilt)

    def test_unpicklable_attribute_degrades_to_shard_error(self):
        original = QueryError("bad callback")
        original.callback = lambda: None
        rebuilt = wire_round_trip(original)
        assert type(rebuilt) is ShardError
        assert rebuilt.original_type == "QueryError"
        assert str(rebuilt) == "bad callback"


# ---------------------------------------------------------------------------
# Aggregation: snapshots and spans
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

    @staticmethod
    def shard_snapshot(scale):
        busy, idle = Histogram(), Histogram()
        busy.observe(0.05 * scale)
        return {
            "queries": {"submitted": 3 * scale},
            "pool": {"active": 2 * scale},
            "latency_seconds": summarised(busy.snapshot()),
            "recovery_seconds": summarised(idle.snapshot()),
        }

    def test_shipped_snapshot_renders_like_the_live_one(self):
        live = self.shard_snapshot(1)
        text = render_prometheus(live)
        shipped = pickle.loads(pickle.dumps(live))
        assert render_prometheus(shipped) == text
        assert render_prometheus(merge_metric_snapshots([shipped])) == text
        assert_wellformed_exposition(
            text,
            sums={"hdqo_latency_seconds": 0.05, "hdqo_recovery_seconds": 0.0},
        )

    def test_merged_snapshot_renders_summed_counters_and_histograms(self):
        merged = merge_metric_snapshots(
            [self.shard_snapshot(1), self.shard_snapshot(2)]
        )
        text = render_prometheus(merged)
        assert "hdqo_queries_submitted 9" in text
        assert "hdqo_pool_active 6" in text
        assert 'hdqo_latency_seconds_bucket{le="+Inf"} 2' in text
        assert merged["latency_seconds"]["min"] == 0.05
        assert merged["latency_seconds"]["max"] == 0.1
        # Extrema ignore histograms that never observed anything.
        assert merged["recovery_seconds"]["count"] == 0
        assert merged["recovery_seconds"]["hdr"]["min"] is None
        assert_wellformed_exposition(
            text, sums={"hdqo_latency_seconds": 0.15}
        )


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
    first_snapshot = router.snapshot()
    first_prometheus_text = render_prometheus(first_snapshot["merged"])

    # The second pass: the same workload from two threads at once (even
    # and odd positions), reassembled in submission order.
    second_pass = [None] * len(queries)

    def half(parity):
        positions = range(parity, len(queries), 2)
        results = router.run_all([queries[i] for i in positions])
        for i, result in zip(positions, results):
            second_pass[i] = result

    threads = [threading.Thread(target=half, args=(p,)) for p in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    live_snapshot = router.snapshot()
    prometheus_text = render_prometheus(live_snapshot["merged"])
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
        second_pass=second_pass,
        first_snapshot=first_snapshot,
        first_prometheus_text=first_prometheus_text,
        live_snapshot=live_snapshot,
        prometheus_text=prometheus_text,
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

    def test_second_pass_answers_match_first_pass(self, cluster):
        assert len(cluster.second_pass) == len(cluster.sharded_results)
        for first, second in zip(
            cluster.sharded_results, cluster.second_pass
        ):
            assert second.relation.attributes == first.relation.attributes
            assert second.relation.tuples == first.relation.tuples

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
        # Two passes over the workload (the baseline ran separately and
        # is not merged here).
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
        assert f"hdqo_queries_submitted {expected}" in text
        assert "# TYPE hdqo_queries_submitted untyped" in text
        assert f"hdqo_latency_seconds_count {expected}" in text
        assert f"hdqo_pool_workers {SHARDS * 2}" in text
        merged = cluster.live_snapshot["merged"]["latency_seconds"]
        assert_wellformed_exposition(
            text, sums={"hdqo_latency_seconds": merged["total"]}
        )

    def test_prometheus_exposition_is_fresh(self, cluster):
        """A live router's exposition renders the snapshot taken for it:
        after N more queries it reads the new count."""
        views = [
            (cluster.first_snapshot, cluster.first_prometheus_text),
            (cluster.live_snapshot, cluster.prometheus_text),
        ]
        counts = []
        for snapshot, text in views:
            samples = dict(
                line.rsplit(" ", 1)
                for line in text.splitlines()
                if not line.startswith("#")
            )
            submitted = int(samples["hdqo_queries_submitted"])
            assert submitted == snapshot["merged"]["queries"]["submitted"]
            assert_wellformed_exposition(text)
            counts.append(submitted)
        assert counts == [len(cluster.queries), 2 * len(cluster.queries)]


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
# Worker death on the transport
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

#: Starts a 2-shard router, prints its worker pids, then waits to be killed.
ORPHAN_SCRIPT = """
import json, time
from repro.relational import AttributeType, Database, RelationSchema
from repro.service.config import ServiceConfig
from repro.shard import ShardRouter

db = Database("orphans")
db.create_table(RelationSchema.of("r", {"a": AttributeType.INT}), [(1,), (2,)])
router = ShardRouter(ServiceConfig(database=db, max_width=2, workers=1), shards=2)
print(json.dumps(sorted(router.shard_pids().values())), flush=True)
time.sleep(600)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestTransportDeath:
    def test_death_is_noticed_under_continuous_traffic(self):
        """A worker's death fails its futures at once, even while another
        shard keeps the collector busy with answers."""
        config = ServiceConfig(
            database=_make_chain_db(), max_width=2, workers=2,
            queue_capacity=32, cache_capacity=64,
        )
        router = ShardRouter(config, shards=2)
        owners = {router.route(t.format(c=3)): t.format(c=3)
                  for t in TEMPLATES}
        busy = router.route(TEMPLATES[0].format(c=3))
        victim = 1 - busy
        stop = threading.Event()
        busy_outcomes = []

        def traffic():
            while not stop.is_set():
                busy_outcomes.extend(router.run_all(
                    [owners[busy]] * 4, return_exceptions=True
                ))

        thread = threading.Thread(target=traffic, daemon=True)
        thread.start()
        try:
            assert set(owners) == {0, 1}
            time.sleep(0.3)  # answers are flowing from the busy shard
            os.kill(router.shard_pids()[victim], signal.SIGKILL)
            started = time.monotonic()
            try:
                future = router.submit(owners[victim])
            except ShardError:
                pass  # the death was already read
            else:
                with pytest.raises(ShardError):
                    future.result(timeout=2.0)
            assert time.monotonic() - started < 2.0
            answered = len(busy_outcomes)
            time.sleep(0.2)
            assert thread.is_alive() and len(busy_outcomes) > answered
        finally:
            stop.set()
            thread.join(timeout=60)
            router.drain(grace_seconds=10.0)
        assert not thread.is_alive()
        assert all(isinstance(o, DBMSResult) for o in busy_outcomes)

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process state from /proc"
    )
    def test_orphaned_workers_exit_when_the_router_is_killed(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        pids = []
        try:
            pids = json.loads(proc.stdout.readline())
            assert len(pids) == 2
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, pids))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)

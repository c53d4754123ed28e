"""Query insights: histograms, slow log, registry, top, report.

The contract under test is the PR's acceptance bar:

* histogram merging is **exact** — associative, commutative, and
  bucket-identical to a single process fed the same observations — so a
  sharded cluster's merged per-template view is byte-identical to the
  view one process would have held;
* the disabled path (:data:`NULL_INSIGHTS`) costs **zero work units**:
  a service with insights off does exactly the work of one that never
  heard of them;
* the sharded serving path carries the per-shard registries through the
  existing snapshot merge, and the deterministic work histograms come
  out byte-identical to a single-process run of the same workload;
* ``hdqo report`` flags a seeded regression against an earlier span
  export (the baseline, analysed by the same rule) and passes clean on an
  honest trace — including one whose template falls back to the built-in
  planner, and a sharded run checked against its single-process twin.
"""

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.obs.flush import FlushRegistry
from repro.obs.histogram import (
    DEFAULT_SCALE,
    LATENCY_RANGE,
    WORK_RANGE,
    Histogram,
    bucket_upper_bound,
    merge_snapshots,
    quantile_from_snapshot,
    summarised,
    summary,
)
from repro.obs.insights import (
    NULL_INSIGHTS,
    InsightsRegistry,
    SlowQueryLog,
    analyze_spans,
    check_baseline,
    load_snapshot_file,
    load_span_records,
    merge_insights_snapshots,
    merge_slow_entries,
    publish_snapshot_file,
    render_insights_prometheus,
    render_report,
    render_top,
    replay_mismatches,
    run_top,
)
from repro.obs.insights.report import DEFAULT_TOLERANCE
from repro.obs.metrics import render_prometheus
from repro.obs.tracing import tracing
from repro.service.metrics import ServiceMetrics
from repro.service.server import QueryService
from repro.shard.aggregate import merge_metric_snapshots
from tests.conftest import assert_wellformed_exposition


# ---------------------------------------------------------------------------
# Streaming histogram
# ---------------------------------------------------------------------------


class TestStreamingHistogram:
    def test_bucketing_is_deterministic_and_clamped(self):
        h = Histogram(index_range=(-8, 8))
        h.observe(0.0)       # non-positive -> reserved bucket below lo
        h.observe(-3.0)
        h.observe(1e-9)      # far below range -> clamps to lo
        h.observe(1e9)       # far above range -> clamps to hi
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"-9": 2, "-8": 1, "8": 1}

    def test_quantile_is_a_bucket_upper_bound(self):
        h = Histogram()
        for v in (0.010, 0.011, 0.012, 0.500):
            h.observe(v)
        p50 = quantile_from_snapshot(h.snapshot(), 0.50)
        # The bound encloses the observed median within one bucket width.
        assert 0.011 <= p50 <= 0.011 * 2 ** (1 / DEFAULT_SCALE)
        snap = h.snapshot()
        indexes = [int(k) for k in snap["buckets"]]
        assert p50 in {bucket_upper_bound(i, DEFAULT_SCALE) for i in indexes}

    def test_empty_histogram_quantile_and_totals(self):
        snap = Histogram().snapshot()
        assert quantile_from_snapshot(snap, 0.99) == 0.0
        assert snap["count"] == 0
        assert snap["total"] == 0.0
        assert snap["min"] is None and snap["max"] is None

    def test_quantile_of_nonpositive_bucket_is_zero(self):
        h = Histogram()
        h.observe(0)
        assert quantile_from_snapshot(h.snapshot(), 0.5) == 0.0

    def test_geometry_mismatch_refuses_to_merge(self):
        latency = Histogram(index_range=LATENCY_RANGE)
        work = Histogram(index_range=WORK_RANGE)
        with pytest.raises(ValueError, match="geometry"):
            merge_snapshots([latency.snapshot(), work.snapshot()])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Histogram(index_range=(5, 4))
        with pytest.raises(ValueError):
            quantile_from_snapshot({}, 1.5)

    def test_snapshot_round_trip(self):
        h = Histogram()
        for v in (0.001, 0.25, 7.5):
            h.observe(v)
        snap = h.snapshot()
        # The snapshot is the wire format: it survives JSON and the merge.
        assert json.loads(json.dumps(snap)) == snap
        assert merge_snapshots([snap]) == snap
        assert merge_snapshots([snap, {}, Histogram().snapshot()]) == snap

    def test_merge_empty_inputs(self):
        assert merge_snapshots([]) == {}
        assert merge_snapshots([{}, {}]) == {}


observations = st.lists(
    st.floats(
        min_value=1e-6, max_value=4000.0,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=0,
    max_size=60,
)


class TestMergeIsExact:
    """The cross-shard law: merged snapshots == one process's snapshot."""

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(observations, min_size=1, max_size=5))
    def test_sharded_equals_single_process(self, parts):
        single = Histogram()
        shards = []
        for part in parts:
            shard = Histogram()
            for v in part:
                single.observe(v)
                shard.observe(v)
            shards.append(shard.snapshot())
        merged = merge_snapshots(shards)
        expected = single.snapshot()
        if not expected["count"]:
            # All-empty snapshots merge to the empty sentinel.
            assert merged == {} or merged["count"] == 0
            return
        assert merged == expected  # byte-identical: buckets, totals, extrema

    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(observations, min_size=1, max_size=5),
        geometry=st.sampled_from([LATENCY_RANGE, WORK_RANGE, (-8, 8)]),
    )
    def test_quantiles_lie_within_the_observed_range(self, parts, geometry):
        """A bucket bound may overshoot the data (and a clamp bucket may
        undershoot it); the reported quantile never does, merged or not."""
        single = Histogram(index_range=geometry)
        shards = []
        for part in parts:
            shard = Histogram(index_range=geometry)
            for v in part:
                single.observe(v)
                shard.observe(v)
            shards.append(shard.snapshot())
        digest = summary(merge_snapshots(shards))
        assert digest == summary(single.snapshot())
        assert (
            digest["min"] <= digest["p50"] <= digest["p90"]
            <= digest["p99"] <= digest["max"]
        )
        values = [v for part in parts for v in part]
        if values:
            assert digest["min"] == round(min(values), 9)
            assert digest["max"] == round(max(values), 9)

    @settings(max_examples=40, deadline=None)
    @given(
        parts=st.lists(observations, min_size=2, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_commutative_and_associative(self, parts, seed):
        snaps = []
        for part in parts:
            h = Histogram()
            for v in part:
                h.observe(v)
            snaps.append(h.snapshot())
        flat = merge_snapshots(snaps)
        shuffled = list(snaps)
        random.Random(seed).shuffle(shuffled)
        assert merge_snapshots(shuffled) == flat
        # Regrouping: merge a prefix first, then fold in the rest.
        split = max(1, len(snaps) // 2)
        regrouped = merge_snapshots(
            [merge_snapshots(snaps[:split]), merge_snapshots(snaps[split:])]
        )
        assert regrouped == flat


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_retains_top_k_slowest(self):
        log = SlowQueryLog(top_k=2)
        for ms in (10, 50, 30, 70, 20):
            log.offer("t", ms / 1000.0, lambda ms=ms: {"plan": f"p{ms}"})
        entries = log.snapshot()["outliers"]["t"]
        assert [e["seconds"] for e in entries] == [0.07, 0.05]
        assert entries[0]["plan"] == "p70"

    def test_payload_runs_only_on_admission(self):
        log = SlowQueryLog(top_k=1)
        calls = []

        def capture(tag):
            def build():
                calls.append(tag)
                return {"tag": tag}
            return build

        assert log.offer("t", 1.0, capture("fast-enough"))
        assert not log.qualifies("t", 0.5)
        assert not log.offer("t", 0.5, capture("too-fast"))
        assert calls == ["fast-enough"]  # the losing capture never built

    def test_events_are_bounded_newest_win(self):
        log = SlowQueryLog(top_k=1, max_events=3)
        for i in range(5):
            log.record_event("t", f"kind{i}", {"n": i})
        events = log.snapshot()["events"]
        assert [e["kind"] for e in events] == ["kind2", "kind3", "kind4"]

    def test_rejects_degenerate_top_k(self):
        with pytest.raises(ValueError):
            SlowQueryLog(top_k=0)

    def test_merge_rebuilds_global_top_k(self):
        shard_a = [{"seconds": 0.9}, {"seconds": 0.1}]
        shard_b = [{"seconds": 0.5}, {"seconds": 0.7}]
        merged = merge_slow_entries([shard_a, shard_b], top_k=3)
        assert [e["seconds"] for e in merged] == [0.9, 0.7, 0.5]


# ---------------------------------------------------------------------------
# Flush registry
# ---------------------------------------------------------------------------


class TestFlushRegistry:
    def test_flush_runs_exactly_once_in_fifo_order(self):
        flushers = FlushRegistry()
        ran = []
        flushers.register("first", lambda: ran.append("first"))
        flushers.register("second", lambda: ran.append("second"))
        assert flushers.flush() == 2
        assert flushers.flush() == 0  # a second exit path is a no-op
        assert ran == ["first", "second"]
        assert flushers.flushed

    def test_one_broken_sink_does_not_stop_the_rest(self):
        flushers = FlushRegistry()
        ran = []
        flushers.register("broken", lambda: 1 / 0)
        flushers.register("healthy", lambda: ran.append("healthy"))
        assert flushers.flush() == 2
        assert ran == ["healthy"]
        assert len(flushers.errors) == 1 and "broken" in flushers.errors[0]

    def test_registering_after_flush_fails_loudly(self):
        flushers = FlushRegistry()
        flushers.flush()
        with pytest.raises(RuntimeError, match="already flushed"):
            flushers.register("late", lambda: None)


# ---------------------------------------------------------------------------
# Insights registry
# ---------------------------------------------------------------------------


def _query(registry, template, seconds=0.010, work=100, *, executed=True,
           cache_hit=False, events=(), error=None):
    registry.record_query(
        template,
        plan_seconds=0.001,
        plan_units=7,
        cache_hit=cache_hit,
        execute_seconds=seconds if executed else None,
        execute_work=work,
        events=events,
        error=error,
    )


def _feed(registry, template, n, base=0.010, work=100):
    for i in range(n):
        _query(registry, template, base * (i + 1), work, cache_hit=i > 0)


class TestInsightsRegistry:
    def test_snapshot_shape(self):
        registry = InsightsRegistry()
        _feed(registry, "T1", 3)
        _query(registry, "T1", executed=False, events=["breaker_open"],
               error="DecompositionNotFound")
        snap = registry.snapshot()
        entry = snap["templates"]["T1"]
        assert entry["queries"] == 4 and entry["errors"] == 1
        assert entry["cache_hits"] == 2
        assert entry["events"] == {
            "breaker_open": 1, "error:DecompositionNotFound": 1,
        }
        assert set(entry["phases"]) == {"decompose", "execute"}
        # decompose is observed for every query, execute only when it ran
        assert entry["phases"]["decompose"]["latency"]["count"] == 4
        assert entry["phases"]["decompose"]["work"]["total"] == 28.0
        assert entry["phases"]["execute"]["latency"]["count"] == 3
        assert entry["phases"]["execute"]["work"]["total"] == 300.0
        assert [e["kind"] for e in snap["slow_log"]["events"]] == [
            "breaker_open", "error:DecompositionNotFound",
        ]

    def test_merge_parity_with_single_registry(self):
        single = InsightsRegistry()
        shard_a = InsightsRegistry()
        shard_b = InsightsRegistry()
        _feed(single, "T1", 4)
        _feed(shard_a, "T1", 4)
        _feed(single, "T2", 2, base=0.020)
        _feed(shard_b, "T2", 2, base=0.020)
        merged = merge_insights_snapshots(
            [shard_a.snapshot(), shard_b.snapshot()]
        )
        expected = single.snapshot()
        for key in ("T1", "T2"):
            assert (
                merged["templates"][key]["phases"]
                == expected["templates"][key]["phases"]
            )
            for counter in ("queries", "errors", "cache_hits"):
                assert (
                    merged["templates"][key][counter]
                    == expected["templates"][key][counter]
                )
        assert merge_insights_snapshots([]) == {}

    def test_overflow_folds_new_templates(self):
        registry = InsightsRegistry(max_templates=2)
        for name in ("T1", "T2", "T3", "T4"):
            _query(registry, name)
        snap = registry.snapshot()
        assert set(snap["templates"]) == {"T1", "T2", "(overflow)"}
        assert snap["templates"]["(overflow)"]["queries"] == 2

    def test_overflow_folds_slow_captures(self):
        registry = InsightsRegistry(slow_k=1, max_templates=4)
        for n in range(50):
            name = f"T{n}"
            _query(registry, name)
            if registry.qualifies_slow(name, 0.5):
                registry.record_slow(name, 0.5, {"plan": name})
        snap = registry.snapshot()
        assert len(snap["templates"]) == 5
        outliers = snap["slow_log"]["outliers"]
        assert set(outliers) == set(snap["templates"])
        assert [e["plan"] for e in outliers["(overflow)"]] == ["T4"]

    def test_slow_capture_via_registry(self):
        registry = InsightsRegistry(slow_k=1)
        assert registry.qualifies_slow("T1", 0.5)
        assert registry.record_slow("T1", 0.5, {"plan": "scan"})
        assert not registry.record_slow("T1", 0.1, {"plan": "cheap"})
        outliers = registry.snapshot()["slow_log"]["outliers"]["T1"]
        assert [e["plan"] for e in outliers] == ["scan"]

    def test_null_insights_is_inert(self):
        assert not NULL_INSIGHTS.enabled
        _query(NULL_INSIGHTS, "T", events=["kind"], error="QueryError")
        assert not NULL_INSIGHTS.qualifies_slow("T", 99.0)
        assert not NULL_INSIGHTS.record_slow("T", 99.0, {})
        assert NULL_INSIGHTS.snapshot() == {}

    def test_prometheus_exposition(self):
        registry = InsightsRegistry()
        _feed(registry, 'T"1', 2)
        text = render_insights_prometheus(registry.snapshot())
        assert 'hdqo_template_queries_total{template="T\\"1"} 2' in text
        assert 'phase="execute",quantile="p99"' in text
        assert "burn" not in text
        assert_wellformed_exposition(text)
        # An empty snapshot still renders the metric headers.
        assert "# TYPE hdqo_template_queries_total counter" in (
            render_insights_prometheus({})
        )


# ---------------------------------------------------------------------------
# Service integration: zero work-unit cost when disabled
# ---------------------------------------------------------------------------


def _tiny_db():
    rng = random.Random(0)
    from repro.relational import AttributeType, Database, RelationSchema

    db = Database("pair")
    for i in range(2):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(
            schema, [(rng.randrange(6), rng.randrange(6)) for _ in range(30)]
        )
    db.analyze()
    return db


PAIR_SQL = "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}"


class TestServiceIntegration:
    def _run(self, insights):
        service = QueryService(
            SimulatedDBMS(_tiny_db(), COMMDB_PROFILE),
            max_width=2,
            workers=2,
            insights=insights,
        )
        try:
            queries = [PAIR_SQL.format(c=2 + (i % 3)) for i in range(6)]
            results = service.run_all(queries)
            return results, service.snapshot()
        finally:
            service.close()

    def test_insights_cost_zero_work_units(self):
        off_results, off_snapshot = self._run(insights=None)
        on_results, on_snapshot = self._run(insights=InsightsRegistry())
        assert [r.work for r in on_results] == [r.work for r in off_results]
        assert [
            sorted(r.relation.tuples) for r in on_results
        ] == [sorted(r.relation.tuples) for r in off_results]
        assert "insights" not in off_snapshot
        insights = on_snapshot["insights"]
        assert insights["templates"], "enabled run must observe templates"
        total = sum(
            entry["queries"] for entry in insights["templates"].values()
        )
        assert total == len(on_results)

    def test_execute_work_histogram_matches_results(self):
        _, snapshot = self._run(insights=InsightsRegistry())
        work_total = sum(
            entry["phases"]["execute"]["work"]["total"]
            for entry in snapshot["insights"]["templates"].values()
            if "execute" in entry["phases"]
        )
        queries = snapshot["queries"]
        assert queries["finished"] == 6
        assert work_total > 0


# ---------------------------------------------------------------------------
# Metrics: latency quantiles from the streaming histogram
# ---------------------------------------------------------------------------


class TestLatencyQuantiles:
    def test_latency_stat_quantiles_and_merge(self):
        left, right = Histogram(), Histogram()
        for v in (0.010, 0.020):
            left.observe(v)
        right.observe(0.500)
        snap = summarised(
            merge_snapshots([left.snapshot(), right.snapshot()])
        )
        assert snap["count"] == 3
        assert snap["p50"] == quantile_from_snapshot(snap["hdr"], 0.50)
        assert 0.02 <= snap["p50"] < 0.03
        # The bucket holding 0.5 ends at 0.545…; the quantile is capped
        # at the observed maximum.
        assert snap["p99"] == snap["max"] == 0.5
        assert {"count", "total", "mean", "min", "max"} <= set(snap)

    def test_service_metrics_snapshot_has_quantiles(self):
        metrics = ServiceMetrics()
        metrics.record_query(finished=True, work=10, seconds=0.25)
        latency = metrics.snapshot()["latency_seconds"]
        assert latency["count"] == 1
        assert latency["p50"] == latency["p99"] == latency["max"] == 0.25
        assert latency["hdr"]["count"] == 1


class TestAggregateMergeSpecialCases:
    def test_hdr_merges_exactly_and_quantiles_recompute(self):
        shards = []
        single = Histogram()
        for values in ((0.010, 0.040), (0.080, 0.120, 0.500)):
            stat = Histogram()
            for v in values:
                stat.observe(v)
                single.observe(v)
            shards.append({"latency_seconds": summarised(stat.snapshot())})
        merged = merge_metric_snapshots(shards)["latency_seconds"]
        expected = summarised(single.snapshot())
        assert merged["hdr"] == expected["hdr"]  # byte-identical buckets
        assert json.dumps(merged) == json.dumps(expected)

    def test_merged_latency_equals_single_process_key_for_key(self):
        """The determinism defect: float totals summed per shard and then
        across shards differed from one process's sum in the 6th decimal.
        ``total`` and ``mean`` now derive from the integer ``total_ns``."""
        rng = random.Random(20260928)
        latencies = [rng.lognormvariate(-6.0, 1.5) for _ in range(3001)]
        for seed in range(20):
            shuffled = list(latencies)
            random.Random(seed).shuffle(shuffled)
            single = ServiceMetrics()
            shards = [ServiceMetrics() for _ in range(3)]
            for index, seconds in enumerate(shuffled):
                single.record_query(finished=True, work=1, seconds=seconds)
                shards[index % 3].record_query(
                    finished=True, work=1, seconds=seconds
                )
            merged = merge_metric_snapshots([s.snapshot() for s in shards])
            expected = single.snapshot()["latency_seconds"]
            assert merged["latency_seconds"] == expected, seed
            assert json.dumps(merged["latency_seconds"]) == json.dumps(
                expected
            ), seed

    def test_every_histogram_renders_identically_however_it_was_fed(self):
        """Single process, its shipped snapshot, and N merged snapshots
        fed the same observations in another order: one exposition text,
        and byte-identical histogram sections in the nested snapshot."""
        rng = random.Random(7)
        observations = [
            (f"T{rng.randrange(3)}", rng.lognormvariate(-5.0, 1.0),
             rng.randrange(1, 5000))
            for _ in range(300)
        ]

        def feed(stream, shards):
            metrics = [ServiceMetrics() for _ in range(shards)]
            insights = [InsightsRegistry() for _ in range(shards)]
            for index, (template, seconds, work) in enumerate(stream):
                shard = index % shards
                metrics[shard].record_query(
                    finished=True, work=work, seconds=seconds
                )
                _query(insights[shard], template, seconds, work)
            snapshots = [
                {**m.snapshot(), "insights": i.snapshot()}
                for m, i in zip(metrics, insights)
            ]
            return snapshots, merge_metric_snapshots(snapshots)

        (live,), single = feed(observations, 1)
        shuffled = list(observations)
        rng.shuffle(shuffled)
        _, merged = feed(shuffled, 4)

        text = render_prometheus(live)
        assert render_prometheus(json.loads(json.dumps(live))) == text
        assert render_prometheus(single) == text
        assert render_prometheus(merged) == text
        assert_wellformed_exposition(
            text,
            sums={"hdqo_latency_seconds": single["latency_seconds"]["total"]},
        )
        assert json.dumps(merged["latency_seconds"]) == json.dumps(
            single["latency_seconds"]
        )
        for template, entry in single["insights"]["templates"].items():
            phases = merged["insights"]["templates"][template]["phases"]
            for kind in ("latency", "work"):
                assert json.dumps(phases["execute"][kind]) == json.dumps(
                    entry["phases"]["execute"][kind]
                ), (template, kind)
        assert_wellformed_exposition(
            render_insights_prometheus(merged["insights"])
        )

    def test_insights_snapshots_merge_not_sum(self):
        shards = []
        single = InsightsRegistry()
        for template in ("T1", "T2"):
            registry = InsightsRegistry()
            _feed(registry, template, 3)
            _feed(single, template, 3)
            shards.append({"insights": registry.snapshot()})
        merged = merge_metric_snapshots(shards)["insights"]
        expected = single.snapshot()
        assert merged["templates"] == expected["templates"]
        # The generic numeric sum would have doubled "slow_k"; the
        # special-cased merge must keep it a configuration value.
        assert merged["slow_k"] == expected["slow_k"]


# ---------------------------------------------------------------------------
# hdqo top
# ---------------------------------------------------------------------------


def _top_payload():
    registry = InsightsRegistry()
    _feed(registry, "SELECT-chain", 5)
    _query(registry, "SELECT-chain", events=["degraded"])
    return {
        "service": {
            "queries": 5,
            "cache_hit_rate": 0.8,
            "saturation": 0.25,
            "shards": 4,
        },
        "insights": registry.snapshot(),
    }


class TestTop:
    def test_publish_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        payload = _top_payload()
        publish_snapshot_file(path, payload)
        loaded = load_snapshot_file(path)
        assert loaded["service"]["shards"] == 4
        assert "SELECT-chain" in loaded["insights"]["templates"]
        assert not (tmp_path / "snapshot.json.tmp").exists()

    def test_load_missing_or_torn_returns_none(self, tmp_path):
        assert load_snapshot_file(str(tmp_path / "missing.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"service": {')
        assert load_snapshot_file(str(torn)) is None
        not_object = tmp_path / "list.json"
        not_object.write_text("[1, 2]")
        assert load_snapshot_file(str(not_object)) is None

    def test_render_top_frame(self):
        frame = render_top(_top_payload())
        assert "SELECT-chain" in frame
        assert "cache-hit=80.0%" in frame
        assert "shards=4" in frame
        assert "degraded template=SELECT-chain" in frame
        assert "\x1b" not in frame  # plain text, no escape codes

    def test_render_top_empty_payload(self):
        frame = render_top({})
        assert "no template traffic" in frame
        assert "saturation=-" in frame  # missing fields render as dashes

    def test_run_top_non_tty_renders_exactly_one_frame(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        publish_snapshot_file(path, _top_payload())
        out = io.StringIO()
        sleeps = []
        code = run_top(
            path, interval=0.5, stream=out, is_tty=False,
            sleep=sleeps.append,
        )
        assert code == 0
        assert sleeps == []  # one frame, no polling loop
        assert out.getvalue().count("hdqo top —") == 1

    def test_run_top_without_snapshot_fails(self, tmp_path):
        out = io.StringIO()
        code = run_top(
            str(tmp_path / "never.json"), stream=out, is_tty=False,
        )
        assert code == 1
        assert "no snapshot" in out.getvalue()

    def test_run_top_tty_polls_for_iterations(self, tmp_path):
        path = str(tmp_path / "snapshot.json")
        publish_snapshot_file(path, _top_payload())
        out = io.StringIO()
        sleeps = []
        code = run_top(
            path, interval=0.25, iterations=3, stream=out, is_tty=True,
            sleep=sleeps.append,
        )
        assert code == 0
        assert sleeps == [0.25, 0.25]
        assert out.getvalue().count("hdqo top —") == 3


# ---------------------------------------------------------------------------
# hdqo report
# ---------------------------------------------------------------------------


def _span(span_id, parent_id, name, start, duration, work, tags):
    return {
        "span_id": span_id, "parent_id": parent_id, "name": name,
        "start": start, "duration": duration, "work_units": work,
        "tags": tags,
    }


def _serving_spans(execute_seconds, errors=0, cache_hits=True, n=8):
    """A synthetic but contract-valid serving trace for one template:
    per query a ``serve.query`` root over ``serve.plan`` (with a nested
    ``decompose.optimize``) and ``serve.execute``."""
    records = []
    for i in range(n):
        root, start = 4 * i, 0.1 * i
        hit = cache_hits and i > 0
        query_tags = {"template": "chain-template", "cache_hit": hit,
                      "events": []}
        execute_tags = {"template": "chain-template"}
        if i < errors:
            query_tags["error"] = execute_tags["error"] = "WorkBudgetExceeded"
        records += [
            _span(root + 1, root, "serve.plan", start, 0.002, 0, {
                "template": "chain-template", "plan_units": 40,
                "cache_hit": hit,
            }),
            _span(root + 2, root + 1, "decompose.optimize", start, 0.001,
                  12, {}),
            _span(root + 3, root, "serve.execute", start + 0.01,
                  execute_seconds, 250, execute_tags),
            _span(root, None, "serve.query", start,
                  0.01 + execute_seconds, 250, query_tags),
        ]
    return records


def _write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )
    return str(path)


class TestReport:
    def test_load_span_records_reports_problems(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            json.dumps({"span_id": 1, "name": "serve.plan", "duration": 0.1,
                        "tags": {"template": "t"}})
            + "\nnot json\n"
            + json.dumps({"no_span_id": True})
            + "\n\n"
        )
        records, problems = load_span_records(str(path))
        assert len(records) == 1
        assert len(problems) == 2
        missing, missing_problems = load_span_records(
            str(tmp_path / "absent.jsonl")
        )
        assert missing == [] and len(missing_problems) == 1

    def test_analyze_reconstructs_phases(self, tmp_path):
        records = _serving_spans(execute_seconds=0.004)
        analysis = analyze_spans(records)
        assert analysis["problems"] == []
        assert analysis["spans"] == len(records)
        entry = analysis["templates"]["chain-template"]
        assert entry["queries"] == 8 and entry["errors"] == 0
        assert entry["cache_hits"] == 7
        # Optimize runs inside decompose; it is not a phase of its own.
        assert set(entry["phases"]) == {"decompose", "execute"}
        assert entry["phases"]["decompose"]["work"]["total"] == 8 * 40.0
        execute = entry["phases"]["execute"]
        assert execute["latency"]["count"] == 8
        assert execute["work"]["total"] == 8 * 250.0

    def test_untagged_serving_spans_are_a_problem(self):
        records = [_span(0, None, "serve.query", 0.0, 0.01, 1, {})]
        analysis = analyze_spans(records)
        assert any("attribution" in p for p in analysis["problems"])

    def test_clean_run_passes_committed_baseline(self, tmp_path):
        """An honest trace against an earlier export of the same traffic
        is clean; problems in the baseline trace are warnings only."""
        baseline = analyze_spans(_serving_spans(execute_seconds=0.004))
        analysis = analyze_spans(_serving_spans(execute_seconds=0.006))
        assert check_baseline(analysis, baseline) == ([], [])
        untagged = _span(100, None, "serve.query", 0.0, 0.01, 1, {})
        flawed = analyze_spans(
            _serving_spans(execute_seconds=0.004) + [untagged]
        )
        flags, warnings = check_baseline(analysis, flawed)
        assert flags == []
        assert len(warnings) == 1
        assert warnings[0].startswith("baseline trace: ")
        assert "attribution" in warnings[0]

    def test_builtin_fallback_run_passes_committed_baseline(self):
        """A healthy run whose template falls back to the built-in planner:
        the absorbed planning failures are events, not errors, so the
        replay agrees with the live registry and the baseline is clean."""
        from tests.conftest import CHAIN_SQL

        baseline = analyze_spans(_serving_spans(execute_seconds=0.004))
        insights = InsightsRegistry()
        with QueryService(
            SimulatedDBMS(_chain_db(), COMMDB_PROFILE),
            max_width=1,
            workers=1,
            insights=insights,
        ) as service:
            with tracing() as tracer:
                for _ in range(4):
                    service.execute(PAIR_SQL.format(c=3))
                    assert service.execute(CHAIN_SQL).optimizer == (
                        "builtin-fallback"
                    )
        analysis = analyze_spans(tracer.to_records())
        assert analysis["problems"] == []
        flags, _ = check_baseline(analysis, baseline)
        assert flags == []
        live = insights.snapshot()["templates"]
        assert len(live) == 2
        for key, entry in live.items():
            replayed = analysis["templates"][key]
            assert replayed["queries"] == entry["queries"] == 4
            assert replayed["errors"] == entry["errors"] == 0
            assert replayed["events"] == entry["events"]
            assert set(replayed["phases"]) == {"decompose", "execute"}

    def test_replay_mismatches_names_each_differing_field(self):
        live, replayed = InsightsRegistry(), InsightsRegistry()
        for registry in (live, replayed):
            _feed(registry, "T1", 3)
        assert replay_mismatches(live.snapshot(), replayed.snapshot()) == []
        _query(live, "T1", executed=False, events=["breaker_open"])
        _query(replayed, "T2")
        mismatches = replay_mismatches(live.snapshot(), replayed.snapshot())
        fields = [m.split(": ")[1].split()[0] for m in mismatches[:-1]]
        assert fields == [
            "decompose.latency.count", "decompose.work", "events", "queries",
        ]
        assert mismatches[-1] == "template T2: only in the replay"

    def test_seeded_regression_is_flagged(self):
        """Each flag on its own, then all three at once."""
        baseline = analyze_spans(_serving_spans(execute_seconds=0.004))
        for seeded, expected in (
            ({"execute_seconds": 0.004 * 20}, ["latency regression"]),
            ({"execute_seconds": 0.004, "errors": 2}, ["error regression"]),
            ({"execute_seconds": 0.004, "cache_hits": False},
             ["cache amortization lost"]),
        ):
            flags, _ = check_baseline(
                analyze_spans(_serving_spans(**seeded)), baseline
            )
            assert [flag.split(":")[0] for flag in flags] == expected, seeded
        seeded = analyze_spans(
            _serving_spans(execute_seconds=0.004 * 20, errors=2,
                           cache_hits=False)
        )
        flags, _ = check_baseline(seeded, baseline)
        assert len(flags) == 3
        # A baseline that itself raised does not turn errors into a flag.
        erring = analyze_spans(_serving_spans(execute_seconds=0.004, errors=1))
        flags, _ = check_baseline(seeded, erring)
        assert not any("error regression" in flag for flag in flags)

    def test_tolerance_is_respected(self):
        """The latency flag compares execute p99 against the baseline
        trace's execute p99, at :data:`DEFAULT_TOLERANCE` (10×)."""
        baseline = analyze_spans(_serving_spans(execute_seconds=0.004))
        assert DEFAULT_TOLERANCE == 10
        under, _ = check_baseline(
            analyze_spans(_serving_spans(execute_seconds=0.004 * 9)), baseline
        )
        over, _ = check_baseline(
            analyze_spans(_serving_spans(execute_seconds=0.004 * 11)), baseline
        )
        assert under == []
        assert [flag.split(":")[0] for flag in over] == ["latency regression"]

    def test_render_report_text(self):
        analysis = analyze_spans(_serving_spans(execute_seconds=0.004))
        clean = render_report(analysis, flags=[], warnings=[])
        assert "chain-template" in clean
        assert "baseline comparison: clean" in clean
        flagged = render_report(
            analysis, flags=["latency regression: ..."],
            warnings=["baseline trace: duplicate span_id 3"],
        )
        assert "REGRESSIONS FLAGGED" in flagged
        assert "warning: baseline trace: duplicate span_id 3" in flagged


class TestReportCli:
    def test_cli_report_clean_and_seeded(self, tmp_path, capsys):
        from repro.cli import main

        baseline = _write_jsonl(
            tmp_path / "baseline.jsonl", _serving_spans(execute_seconds=0.004)
        )
        clean = _write_jsonl(
            tmp_path / "clean.jsonl", _serving_spans(execute_seconds=0.004)
        )
        assert main(["report", clean, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "chain-template" in out
        assert "baseline comparison: clean" in out

        seeded = _write_jsonl(
            tmp_path / "seeded.jsonl",
            _serving_spans(execute_seconds=5.0, errors=3, cache_hits=False),
        )
        assert main(["report", seeded, "--baseline", baseline]) == 1
        assert "REGRESSIONS FLAGGED" in capsys.readouterr().out

    def test_cli_report_bad_baseline(self, tmp_path, capsys):
        """A baseline with no span record in it — missing, empty, or a
        JSON document that is not a span export — exits 1."""
        from repro.cli import main

        spans = _write_jsonl(
            tmp_path / "spans.jsonl", _serving_spans(execute_seconds=0.004)
        )
        not_spans = tmp_path / "record.json"
        not_spans.write_text(json.dumps({"benchmark": "x"}, indent=2))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        for bad in (tmp_path / "missing.jsonl", not_spans, empty):
            assert main(["report", spans, "--baseline", str(bad)]) == 1
            assert "cannot read baseline" in capsys.readouterr().err

    def test_cli_report_sharded_trace_against_single_process(
        self, tmp_path, capsys, monkeypatch
    ):
        """The CI path: one stdin served single-process and by a supervised
        2-shard cluster, each exporting its spans; the sharded export is
        clean against the single-process one, and a seeded 10×-tail,
        erring, never-cached export is not."""
        from repro.cli import main

        stdin = "q3\nq5\nq10\n" * 3
        argv = ["serve", "--size-mb", "20", "--seed", "7", "--workers", "2",
                "--insights", "--trace"]
        single = str(tmp_path / "single.jsonl")
        sharded = str(tmp_path / "sharded.jsonl")
        for extra in ([single], [sharded, "--shards", "2", "--supervise"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv + extra) == 0
        capsys.readouterr()

        assert main(["report", sharded, "--baseline", single]) == 0
        out = capsys.readouterr().out
        assert "baseline comparison: clean" in out

        records, _ = load_span_records(single)
        slowest = max(
            record["duration"] for record in records
            if record["name"] == "serve.execute"
        )
        seeded = _write_jsonl(
            tmp_path / "seeded.jsonl",
            _serving_spans(execute_seconds=slowest * 11, errors=2,
                           cache_hits=False),
        )
        assert main(["report", seeded, "--baseline", single]) == 1
        out = capsys.readouterr().out
        for flag in ("latency regression", "error regression",
                     "cache amortization lost"):
            assert flag in out

        # serve checks its own export: a replay that loses a query no
        # longer rebuilds the live registry, and that is exit 2.
        import repro.obs.insights.report as report_module

        replay = report_module.analyze_spans

        def lossy(records):
            names = [record["name"] for record in records]
            first = names.index("serve.query")
            return replay(records[:first] + records[first + 1:])

        monkeypatch.setattr(report_module, "analyze_spans", lossy)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv + [str(tmp_path / "lossy.jsonl")]) == 2
        assert "trace problem: replay != live" in capsys.readouterr().err

    def test_cli_top_non_tty(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "snapshot.json")
        publish_snapshot_file(path, _top_payload())
        assert main(["top", path, "--iterations", "1"]) == 0
        assert "SELECT-chain" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Sharded serving: merged insights byte-identical to one process
# ---------------------------------------------------------------------------


def _chain_db():
    rng = random.Random(0)
    from repro.relational import AttributeType, Database, RelationSchema

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


CLUSTER_TEMPLATES = [
    "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}",
    "SELECT r2.a2, r3.a3 FROM r2, r3 WHERE r2.b2 = r3.a3 AND r2.a2 < {c}",
    "SELECT r1.a1 FROM r1, r2 WHERE r1.b1 = r2.a2 AND r1.a1 < {c}",
]


@pytest.fixture(scope="module")
def insights_cluster():
    """One 2-shard run with ``insights=True`` + its single-process twin."""
    from repro.service.config import ServiceConfig
    from repro.shard import ShardRouter

    database = _chain_db()
    queries = [
        template.format(c=2 + (rep % 3))
        for rep in range(4)
        for template in CLUSTER_TEMPLATES
    ]

    single = QueryService(
        SimulatedDBMS(database, COMMDB_PROFILE),
        max_width=2,
        workers=2,
        insights=InsightsRegistry(),
    )
    try:
        single_results = single.run_all(queries)
        single_snapshot = single.snapshot()
    finally:
        single.close()

    config = ServiceConfig(
        database=database, max_width=2, workers=2, insights=True
    )
    router = ShardRouter(config, shards=2)
    sharded_results = router.run_all(queries)
    drained = router.drain(grace_seconds=30.0)
    final = router.final_snapshot()
    return {
        "queries": queries,
        "single_results": single_results,
        "single_insights": single_snapshot["insights"],
        "sharded_results": sharded_results,
        "merged_insights": final["merged"]["insights"],
        "drained": drained,
    }


class TestShardedInsightsParity:
    def test_cluster_drained_and_answers_match(self, insights_cluster):
        assert insights_cluster["drained"]
        for single, sharded in zip(
            insights_cluster["single_results"],
            insights_cluster["sharded_results"],
        ):
            assert single.relation.tuples == sharded.relation.tuples
            assert single.work == sharded.work

    def test_merged_work_histograms_are_byte_identical(self, insights_cluster):
        """The acceptance bar: per-template work histograms, merged across
        shards, equal a single process's — exactly, bucket for bucket.
        (Latency histograms are wall-clock and legitimately differ.)"""
        merged = insights_cluster["merged_insights"]["templates"]
        expected = insights_cluster["single_insights"]["templates"]
        assert set(merged) == set(expected)
        assert len(merged) == len(CLUSTER_TEMPLATES)
        for key, entry in expected.items():
            assert set(merged[key]["phases"]) == set(entry["phases"])
            for phase, data in entry["phases"].items():
                assert merged[key]["phases"][phase]["work"] == data["work"], (
                    f"template {key} phase {phase} work histogram diverged"
                )

    def test_merged_counters_match_single_process(self, insights_cluster):
        merged = insights_cluster["merged_insights"]["templates"]
        expected = insights_cluster["single_insights"]["templates"]
        for key, entry in expected.items():
            assert merged[key]["queries"] == entry["queries"]
            assert merged[key]["errors"] == entry["errors"]
            assert merged[key]["events"] == entry["events"]

    def test_latency_histograms_share_geometry_and_counts(
        self, insights_cluster
    ):
        merged = insights_cluster["merged_insights"]["templates"]
        expected = insights_cluster["single_insights"]["templates"]
        for key, entry in expected.items():
            for phase, data in entry["phases"].items():
                latency = merged[key]["phases"][phase]["latency"]
                for field in ("scale", "lo", "hi", "count"):
                    assert latency[field] == data["latency"][field]

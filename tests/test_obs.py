"""Tests for the observability subsystem: tracing, metrics, EXPLAIN ANALYZE."""

import io
import json
import os
import sys
import threading

import pytest

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.core.optimizer import HybridOptimizer
from repro.metering import WorkMeter, split_phases
from repro.obs.explain import estimation_error, stats_by_node
from repro.obs.histogram import (
    WORK_RANGE,
    Histogram,
    merge_snapshots,
    summarised,
    summary,
)
from repro.obs.metrics import render_prometheus
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    set_tracer,
    tracing,
)
from repro.service.metrics import ServiceMetrics, render_snapshot
from repro.service.server import QueryService
from tests.conftest import CHAIN_SQL, assert_wellformed_exposition


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Completion order: inner closes first.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_work_unit_delta(self):
        tracer = Tracer()
        meter = WorkMeter()
        with tracer.span("work", meter=meter):
            meter.charge(7, "join")
        assert tracer.spans("work")[0].work_units == 7

    def test_tags_and_chaining(self):
        tracer = Tracer()
        with tracer.span("t", k=4) as span:
            span.tag(rows_out=3).tag(algorithm="hash")
        record = tracer.spans()[0].to_record()
        assert record["tags"] == {"k": 4, "rows_out": 3, "algorithm": "hash"}

    def test_error_tagged(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        assert tracer.spans()[0].tags["error"] == "ValueError"

    def test_jsonl_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", meter=None, n=1):
            pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) == 1
        record = json.loads(path.read_text().strip())
        assert record["name"] == "a"
        assert record["tags"] == {"n": 1}
        buffer = io.StringIO()
        assert tracer.export_jsonl(buffer) == 1
        assert json.loads(buffer.getvalue()) == record

    def test_validate_clean(self):
        tracer = Tracer()
        with tracer.span("ok"):
            pass
        assert tracer.validate() == []

    def test_validate_reports_open_span(self):
        tracer = Tracer()
        span = tracer.span("stuck")
        span.__enter__()
        problems = tracer.validate()
        assert any("still open" in p for p in problems)
        span.__exit__(None, None, None)
        assert tracer.validate() == []

    def test_retention_cap(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3

    def test_null_tracer_is_default_and_inert(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", meter=WorkMeter(), k=1) as span:
            assert span.tag(x=1) is span
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.validate() == []
        assert NULL_TRACER.export_jsonl(io.StringIO()) == 0

    def test_tracing_context_installs_and_restores(self):
        assert isinstance(current_tracer(), NullTracer)
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracing() as nested:
                assert current_tracer() is nested
            assert current_tracer() is tracer
        assert isinstance(current_tracer(), NullTracer)

    def test_set_tracer_none_disables(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(None)
        assert current_tracer() is NULL_TRACER

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.span(f"root-{name}"):
                barrier.wait(timeout=5)
                with tracer.span(f"child-{name}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"w{i}")
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert tracer.validate() == []
        spans = {s.name: s for s in tracer.spans()}
        for i in range(2):
            assert spans[f"child-{i}"].parent_id == spans[f"root-{i}"].span_id
            assert spans[f"root-{i}"].parent_id is None


# ---------------------------------------------------------------------------
# Histogram and its Prometheus rendering
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_histogram_buckets_and_summary(self):
        histogram = Histogram(index_range=WORK_RANGE)
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        # floor(8 * log2(v)), clamped below at lo = 0 for the 0.5.
        assert snap["buckets"] == {"0": 1, "18": 1, "45": 1, "71": 1}
        assert snap["min"] == 0.5
        assert snap["max"] == 500
        digest = summary(snap)
        assert digest["count"] == 4
        assert digest["total"] == 555.5
        assert digest["mean"] == pytest.approx(138.875)
        assert (digest["min"], digest["max"]) == (0.5, 500)
        assert set(digest) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99"
        }

    def test_histogram_empty_snapshot_has_no_inf(self):
        snap = Histogram().snapshot()
        assert snap["min"] is None and snap["max"] is None
        assert "Infinity" not in json.dumps(snap)  # must be JSON-safe
        text = render_prometheus({"h": summarised(snap)})
        assert 'hdqo_h_bucket{le="+Inf"} 0' in text
        assert "hdqo_h_sum 0.0" in text
        assert_wellformed_exposition(text, sums={"hdqo_h": 0.0})

    def test_histogram_merge(self):
        a = Histogram()
        b = Histogram()
        a.observe(0.5)
        b.observe(20)
        snap = merge_snapshots([a.snapshot(), b.snapshot()])
        assert snap["count"] == 2
        assert snap["min"] == 0.5 and snap["max"] == 20
        with pytest.raises(ValueError, match="geometry"):
            merge_snapshots(
                [snap, Histogram(index_range=WORK_RANGE).snapshot()]
            )

    def test_render_text(self):
        histogram = Histogram()
        histogram.observe(0.05)
        text = render_prometheus({
            "requests": {"total": 3, "rate": 0.5, "busy": True},
            "latency": summarised(histogram.snapshot()),
            "note": "skipped",
            "per_shard": {0: {"inflight": 1}},
            "insights": {"templates": 1},
        })
        assert "# HELP" not in text
        assert "# TYPE hdqo_requests_total untyped" in text
        assert "hdqo_requests_total 3" in text
        assert "hdqo_requests_rate 0.5" in text
        # le steps over the powers of two; 0.05 lies in [2^-5, 2^-4).
        assert "# TYPE hdqo_latency histogram" in text
        assert 'hdqo_latency_bucket{le="0.03125"} 0' in text
        assert 'hdqo_latency_bucket{le="0.0625"} 1' in text
        assert 'hdqo_latency_bucket{le="+Inf"} 1' in text
        assert "hdqo_latency_sum 0.05" in text
        assert "hdqo_latency_count 1" in text
        # The summary fields are the histogram's, not samples of their own.
        assert "hdqo_latency_p50" not in text
        # Bools, strings, shard-keyed tables and insights are skipped.
        for skipped in ("busy", "note", "inflight", "templates"):
            assert skipped not in text
        assert_wellformed_exposition(text)

    def test_le_label_set_is_fixed_and_boundaries_are_exclusive(self):
        def bucket_lines(*values):
            histogram = Histogram()
            for value in values:
                histogram.observe(value)
            text = render_prometheus(
                {"latency": summarised(histogram.snapshot())}
            )
            assert_wellformed_exposition(text)
            return [
                line.rsplit(" ", 1)
                for line in text.splitlines()
                if line.startswith("hdqo_latency_bucket")
            ]

        empty = bucket_lines()
        busy = bucket_lines(0.0, 1e-9, 0.0625, 3.0, 1e9)
        # A scraper sees the same series whatever was observed.
        assert [label for label, _ in empty] == [label for label, _ in busy]
        counts = dict(busy)
        assert counts['hdqo_latency_bucket{le="0"}'] == "1"
        assert counts['hdqo_latency_bucket{le="0.0625"}'] == "2"  # exclusive
        assert counts['hdqo_latency_bucket{le="0.125"}'] == "3"
        assert counts['hdqo_latency_bucket{le="4096.0"}'] == "4"  # hi clamp
        assert counts['hdqo_latency_bucket{le="+Inf"}'] == "5"    # only here


# ---------------------------------------------------------------------------
# Latency summaries / ServiceMetrics
# ---------------------------------------------------------------------------


class TestLatencyStat:
    """What the deleted ``LatencyStat`` guaranteed, held by ``summary``."""

    def test_minimum_never_inf_in_snapshot(self):
        empty = Histogram().snapshot()
        assert empty["min"] is None
        digest = summary(empty)
        assert digest["min"] == 0.0 and digest["p99"] == 0.0
        # The historic bug: min serialized as Infinity in JSON exports.
        assert "Infinity" not in json.dumps(digest)
        assert summary({}) == digest

    def test_observe_and_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(2.0)
        b.observe(0.5)
        b.observe(4.0)
        digest = summary(merge_snapshots([a.snapshot(), b.snapshot()]))
        assert digest["count"] == 3
        assert digest["min"] == 0.5
        assert digest["max"] == 4.0
        assert digest["total"] == 6.5
        assert digest["mean"] == pytest.approx(6.5 / 3)

    def test_merge_empty_keeps_minimum_none(self):
        a, b = Histogram(), Histogram()
        assert merge_snapshots([a.snapshot(), b.snapshot()])["min"] is None
        a.observe(1.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["min"] == 1.0 and merged["max"] == 1.0


class TestServiceMetrics:
    def test_snapshot_shape_preserved(self):
        metrics = ServiceMetrics()
        metrics.record_query(finished=True, work=100, seconds=0.01)
        metrics.record_plan(cache_hit=False, units=5, seconds=0.001)
        snap = metrics.snapshot(cache={"capacity": 8})
        assert snap["queries"]["submitted"] == 1
        assert snap["queries"]["work_units"] == 100
        assert snap["latency_seconds"]["count"] == 1
        assert snap["planning"]["built"] == 1
        assert snap["planning"]["work_units"] == 5
        assert snap["cache"]["capacity"] == 8
        json.dumps(snap)

    def test_one_observation_per_query(self):
        """One histogram behind latency_seconds: one total, one min/max,
        one bucket table, and no quantile above the observed maximum."""
        metrics = ServiceMetrics()
        metrics.record_query(finished=True, work=1, seconds=0.002629)
        latency = metrics.snapshot()["latency_seconds"]
        assert set(latency) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99", "hdr"
        }
        assert latency["hdr"]["count"] == latency["count"] == 1
        assert latency["total"] == latency["hdr"]["total"] == 0.002629
        assert latency["p50"] == latency["p99"] == latency["max"] == 0.002629
        histograms = [
            line.split()[2]
            for line in render_prometheus(metrics.snapshot()).splitlines()
            if line.endswith(" histogram")
        ]
        assert histograms == ["hdqo_latency_seconds"]

    def test_concurrent_updates_are_not_lost(self):
        """Writers on more threads than cores, and a reader whose every
        snapshot must be consistent: one query is one counter step and
        one latency observation, never half of it."""
        metrics = ServiceMetrics()
        threads_n, per_thread = 2 * (os.cpu_count() or 1) + 2, 2000
        torn = []

        def record():
            for _ in range(per_thread):
                metrics.record_query(finished=True, work=3, seconds=0.001)

        def read():
            while any(thread.is_alive() for thread in writers):
                snap = metrics.snapshot()
                submitted = snap["queries"]["submitted"]
                if submitted != snap["latency_seconds"]["count"]:
                    torn.append(submitted)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [
                threading.Thread(target=record) for _ in range(threads_n)
            ]
            reader = threading.Thread(target=read)
            for thread in writers:
                thread.start()
            reader.start()
            for thread in (*writers, reader):
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads_n * per_thread
        snap = metrics.snapshot()
        assert not torn
        assert snap["queries"]["submitted"] == total
        assert snap["queries"]["finished"] == total
        assert snap["queries"]["work_units"] == 3 * total
        assert snap["latency_seconds"]["count"] == total

    def test_instances_do_not_share_instruments(self):
        a, b = ServiceMetrics(), ServiceMetrics()
        a.record_query(finished=True, work=1, seconds=0.0)
        assert b.queries == 0

    def test_render_text_exposes_service_instruments(self):
        metrics = ServiceMetrics()
        metrics.record_query(finished=False, work=2, seconds=0.5)
        text = render_prometheus(metrics.snapshot())
        assert "hdqo_queries_submitted 1" in text
        assert "hdqo_queries_dnf 1" in text
        assert "hdqo_latency_seconds_count 1" in text
        assert_wellformed_exposition(text, sums={"hdqo_latency_seconds": 0.5})

    def test_service_exposition_covers_every_section(self, chain_db):
        """The exposition is the snapshot's: the plan cache, pool and text
        memo sections are scraped too."""
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=2
        ) as service:
            service.run_all([CHAIN_SQL] * 3)
            snapshot = service.snapshot()
        text = render_prometheus(snapshot)
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert samples["hdqo_cache_hits"] == str(snapshot["cache"]["hits"])
        assert samples["hdqo_pool_workers"] == "2"
        assert samples["hdqo_texts_hits"] == str(snapshot["texts"]["hits"])
        assert samples["hdqo_queries_submitted"] == "3"
        assert_wellformed_exposition(
            text,
            sums={"hdqo_latency_seconds": snapshot["latency_seconds"]["total"]},
        )

    def test_render_snapshot_prints_summaries_not_bucket_tables(self):
        metrics = ServiceMetrics()
        metrics.record_query(finished=True, work=2, seconds=0.5)
        text = render_snapshot(metrics.snapshot())
        assert "latency_seconds:\n  count: 1\n  total: 0.5" in text
        assert "p99: 0.5" in text
        for wire_key in ("hdr", "buckets", "total_ns", "scale"):
            assert wire_key not in text
        # A bare wire snapshot (an insights phase) is summarised too.
        bare = render_snapshot({"latency": Histogram().snapshot()})
        assert "p50: 0.0" in bare and "buckets" not in bare


# ---------------------------------------------------------------------------
# Phase split
# ---------------------------------------------------------------------------


class TestSplitPhases:
    def test_split(self):
        phases = split_phases({"plan": 5, "scan": 10, "join": 20, "total": 35})
        assert phases == {"decompose": 5, "optimize": 0, "execute": 30}

    def test_empty(self):
        assert split_phases({}) == {"decompose": 0, "optimize": 0, "execute": 0}


# ---------------------------------------------------------------------------
# End-to-end: zero-cost guarantee, pool nesting, EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestZeroCostWhenDisabled:
    def test_identical_work_with_and_without_tracing(self, chain_db):
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        baseline = dbms.run_sql(CHAIN_SQL)
        with tracing() as tracer:
            traced = dbms.run_sql(CHAIN_SQL)
        assert traced.work == baseline.work
        assert traced.work_breakdown == baseline.work_breakdown
        assert len(tracer.spans()) > 0
        again = dbms.run_sql(CHAIN_SQL)  # tracer uninstalled again
        assert again.work == baseline.work

    def test_identical_qhd_work_with_and_without_tracing(self, chain_db):
        plan = HybridOptimizer(chain_db, max_width=2).optimize(CHAIN_SQL)
        baseline = plan.execute()
        traced = plan.execute(tracer=Tracer())
        assert traced.work == baseline.work
        assert traced.work_breakdown == baseline.work_breakdown


class TestPoolTracing:
    def test_span_nesting_under_worker_pool(self, chain_db):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=8
        ) as service:
            with tracing() as tracer:
                results = service.run_all([CHAIN_SQL] * 16)
        assert all(r.finished for r in results)
        assert tracer.validate() == []
        spans = tracer.spans()
        assert len(spans) >= 32  # ≥ one plan + one execute span per query
        assert len(tracer.spans("serve.execute")) == 16
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                # Parent-child pairs never cross threads.
                assert by_id[span.parent_id].thread == span.thread
        for child in tracer.spans("qhd.node"):
            assert child.parent_id is not None

    def test_traced_pool_run_charges_identical_work(self, chain_db):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=4
        ) as service:
            plain = service.execute(CHAIN_SQL)
            with tracing():
                traced = service.execute(CHAIN_SQL)
        assert traced.work == plain.work


class TestExplainAnalyze:
    @pytest.fixture(scope="class")
    def tpch(self):
        from repro.workloads.tpch import generate_tpch_database
        from repro.workloads.tpch_queries import query_q5

        return (
            generate_tpch_database(size_mb=20, seed=0, analyze=True),
            query_q5(),
        )

    def test_engine_row_counts_match_actual_result(self, tpch):
        database, sql = tpch
        dbms = SimulatedDBMS(database, COMMDB_PROFILE)
        analyzed = dbms.explain_analyze(sql)
        result = dbms.run_sql(sql)
        assert analyzed.result.finished
        assert analyzed.result.work == result.work
        assert analyzed.result.relation.same_content(result.relation)
        assert f"answer rows: {len(result.relation)}" in analyzed.text
        # Root operator's actual row count equals the conjunctive answer's
        # pre-projection cardinality recorded in the root exec span.
        root_stats = analyzed.node_stats[id(analyzed.plan)]
        assert root_stats.rows is not None
        assert "actual=" in analyzed.text
        assert "work=" in analyzed.text

    def test_estimation_error_annotations(self, tpch):
        database, sql = tpch
        dbms = SimulatedDBMS(database, COMMDB_PROFILE)
        text = dbms.explain_analyze(sql).text
        assert "rows≈" in text
        assert "planner: " in text

    def test_qhd_explain_analyze(self, tpch):
        database, sql = tpch
        plan = HybridOptimizer(database, max_width=3).optimize(sql)
        executed = plan.execute()
        text = plan.explain(analyze=True)
        assert "λ=" in text
        assert f"total work: {executed.work}" in text
        assert f"answer rows: {len(executed.relation)}" in text
        # Plain explain is unchanged.
        assert plan.explain() == plan.decomposition.render()

    def test_work_budget_dnf_explain(self, tpch):
        database, sql = tpch
        dbms = SimulatedDBMS(database, COMMDB_PROFILE)
        analyzed = dbms.explain_analyze(sql, work_budget=10)
        assert not analyzed.result.finished
        assert "DNF" in analyzed.text


class TestEstimationError:
    def test_markers(self):
        assert estimation_error(None, 5) == "?"
        assert estimation_error(100, 100) == "✓"
        assert estimation_error(100, 95) == "✓"
        assert estimation_error(100, 10) == "×10.0 over"
        assert estimation_error(10, 100) == "×10.0 under"
        assert estimation_error(0, 0) == "✓"

    def test_stats_by_node_filters_names(self):
        tracer = Tracer()
        with tracer.span("exec.scan", node=1, est_rows=10) as span:
            span.tag(rows_out=8)
        with tracer.span("other", node=2):
            pass
        stats = stats_by_node(tracer.spans())
        assert set(stats) == {1}
        assert stats[1].rows == 8
        assert stats[1].est_rows == 10

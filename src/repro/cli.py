"""Command-line interface: ``hdqo`` (or ``python -m repro``).

Subcommands:

* ``decompose`` — parse a SQL query (against the TPC-H schema or a named
  workload), print its hypergraph and q-hypertree decomposition;
* ``run`` — execute a TPC-H query on a generated database with every
  configured system and print the comparison;
* ``experiment`` — reproduce a paper figure (fig7a…fig10, overhead) and
  print its series table;
* ``explain`` — show the engine join plan vs the decomposition plan;
* ``serve`` — run queries (stdin, one per line) through a concurrent
  :class:`~repro.service.server.QueryService` and print per-query results
  plus the serving metrics snapshot (``--insights`` adds the per-template
  insights registry: counters, streaming histograms, slow-query log);
* ``top`` — live terminal view over a published insights snapshot;
* ``report`` — offline per-template analytics over exported span JSONL,
  with optional regression checks against a ``BENCH_*.json`` baseline;
* ``bench-serve`` — the repeated-template serving benchmark (plan cache
  cold vs warm).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import render_series_table
from repro.core.integration import install_structural_optimizer
from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.errors import DecompositionError, OptimizationError
from repro.workloads.tpch import TPCH_SCHEMA, generate_tpch_database
from repro.workloads.tpch_queries import TPCH_QUERIES


def _query_text(args: argparse.Namespace) -> str:
    if args.query in TPCH_QUERIES:
        return TPCH_QUERIES[args.query]()
    if args.query == "-":
        return sys.stdin.read()
    return args.query


def cmd_decompose(args: argparse.Namespace) -> int:
    database = generate_tpch_database(size_mb=args.size_mb, seed=args.seed, analyze=True)
    optimizer = HybridOptimizer(database, max_width=args.width)
    sql = _query_text(args)
    translation = optimizer.translate(sql)
    print("Conjunctive query:")
    print(f"  {translation.query}")
    hypergraph = translation.query.hypergraph()
    print(f"Hypergraph: {len(hypergraph)} edges, {len(hypergraph.vertices)} variables")
    plan = optimizer.optimize(translation)
    print(f"q-hypertree decomposition (width {plan.width}, "
          f"{plan.decomposition_seconds * 1000:.1f} ms):")
    print(plan.explain())
    if args.views:
        print()
        print("Stand-alone SQL views:")
        print(plan.to_sql_views().render())
    if args.dot:
        from repro.hypergraph.dot import decomposition_to_dot, hypergraph_to_dot

        print()
        print(hypergraph_to_dot(
            hypergraph, highlight_vertices=set(translation.query.output_variables)
        ))
        print()
        print(decomposition_to_dot(plan.decomposition))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    database = generate_tpch_database(size_mb=args.size_mb, seed=args.seed, analyze=True)
    sql = _query_text(args)
    dbms = SimulatedDBMS(database, COMMDB_PROFILE)
    budget = args.budget

    rows = []
    result = dbms.run_sql(sql, use_statistics=True, work_budget=budget)
    rows.append(("commdb+stats", result))
    result = dbms.run_sql(sql, optimizer_enabled=False, work_budget=budget)
    rows.append(("commdb-no-opt", result))

    plan = HybridOptimizer(database, max_width=args.width).optimize(sql)
    qhd = plan.execute(work_budget=budget, spill=dbms.spill_model)
    rows.append(("q-hd", qhd))

    coupled = SimulatedDBMS(database, POSTGRES_PROFILE)
    install_structural_optimizer(coupled, max_width=args.width)
    rows.append(("postgres+q-hd", coupled.run_sql(sql, work_budget=budget)))

    print(f"{'system':<16} {'work':>12} {'rows':>8} {'wall(s)':>9}")
    for name, res in rows:
        work = str(res.work) if res.finished else "DNF"
        count = str(len(res.relation)) if res.relation is not None else "-"
        print(f"{name:<16} {work:>12} {count:>8} {res.elapsed_seconds:>9.3f}")
    finished = [res.relation for _name, res in rows if res.relation is not None]
    if len(finished) > 1:
        agree = all(finished[0].same_content(rel) for rel in finished[1:])
        print(f"answers agree: {agree}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.hypergraph.treedecomp import structural_summary

    database = generate_tpch_database(size_mb=args.size_mb, seed=args.seed, analyze=True)
    optimizer = HybridOptimizer(database, max_width=args.width)
    sql = _query_text(args)
    translation = optimizer.translate(sql)
    hypergraph = translation.query.hypergraph()
    summary = structural_summary(hypergraph)
    print(f"query: {translation.query.name}")
    print(f"  atoms:               {summary['edges']}")
    print(f"  variables:           {summary['variables']}")
    print(f"  acyclic:             {summary['acyclic']}")
    print(f"  hypertree width:     {summary['hypertree_width']}")
    print(f"  treewidth (minfill): {summary.get('treewidth_min_fill', '-')}")
    print(f"  biconnected width:   {summary['biconnected_width']}")
    print(f"  hinge degree:        {summary['hinge_degree']}")
    out = sorted(translation.query.output_variables)
    print(f"  output variables:    {len(out)} ({', '.join(out)})")
    try:
        plan = optimizer.optimize(translation)
        print(f"  q-hypertree width:   {plan.width} (k ≤ {args.width})")
    except (DecompositionError, OptimizationError) as exc:
        print(f"  q-hypertree width:   failure at k = {args.width} ({exc})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules over the repro sources.

    With no paths, lints the installed ``repro`` package itself — the
    self-clean gate CI enforces.  Exits 1 when any error-severity finding
    survives suppression, or when a ``--select``-ed rule id is unknown.
    """
    import os.path

    import repro
    from repro.analysis import render_json, render_text, run_analysis
    from repro.analysis.driver import write_graphs
    from repro.analysis.rules import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id} ({rule.severity}): {rule.description}")
        return 0
    paths = args.paths or [os.path.dirname(repro.__file__)]
    try:
        report = run_analysis(
            paths,
            select=args.select.split(",") if args.select else None,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.graphs_out:
        for path in write_graphs(report.model, args.graphs_out):
            print(f"wrote {path}", file=sys.stderr)
    print(render_json(report) if args.format == "json" else render_text(report))
    return 0 if report.ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.id, scale=args.scale)
    print(render_series_table(result, metric=args.metric, point_label="x"))
    if args.chart:
        from repro.bench.plotting import render_ascii_chart

        print()
        print(render_ascii_chart(result, metric=args.metric))
    return 0


def _top_payload(view, saturation: Optional[float], shards: int) -> dict:
    """The ``hdqo top`` snapshot payload from a service-shaped snapshot:
    one service's own, or a cluster's merged view."""
    from repro.service.metrics import plan_hit_rate

    return {
        "service": {
            "queries": (view.get("queries") or {}).get("submitted", 0),
            "cache_hit_rate": plan_hit_rate(view.get("planning") or {}) or 0.0,
            "saturation": saturation,
            "shards": shards,
        },
        "insights": view.get("insights") or {},
    }


def _start_insights_publisher(args, flushers, payload):
    """Publish the insights snapshot file periodically + once on flush.

    Returns the publisher's stop event (or None when not publishing).
    The final publish is a registered flusher, so whichever exit path
    runs — SIGINT, SIGTERM, normal drain — writes the last snapshot
    exactly once, from ``payload(final=True)`` (a cluster reads its
    worker-exit snapshots there, the live poll path being closed by then).
    """
    if not args.insights or not args.insights_snapshot:
        return None
    import threading

    from repro.obs.insights.top import publish_snapshot_file

    path = args.insights_snapshot
    flushers.register(
        "insights-snapshot",
        lambda: publish_snapshot_file(path, payload(final=True)),
    )
    stop = threading.Event()

    def _loop() -> None:
        while not stop.wait(args.insights_interval):
            try:
                publish_snapshot_file(path, payload())
            except Exception:  # hdqo: ignore[error-swallowing] — a failed periodic publish (or a draining cluster) must not kill serving; the flush-time publish reports errors
                pass

    threading.Thread(
        target=_loop, name="hdqo-insights-publisher", daemon=True
    ).start()
    return stop


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve queries read from stdin (one per line) through one serving world.

    Lines are TPC-H query names (``q5``) or inline SQL; blank lines and
    ``#`` comments are skipped.  Repeated templates exercise the plan
    cache — the point of the serving layer.  The world is one
    :class:`~repro.service.config.ServiceConfig`, served by its
    :class:`~repro.service.server.QueryService` or, with ``--shards N``,
    by a :class:`~repro.shard.router.ShardRouter` over N worker processes
    — same result lines either way; the sharded metrics snapshot is the
    *merged* cluster view (plus per-shard detail) and its trace the
    merged, shard-tagged cross-process timeline.

    ``--trace FILE`` turns end-to-end tracing on for the whole batch and
    exports every span (``serve.plan``, ``serve.execute``, ``qhd.node``,
    ``exec.*``) as validated JSONL; ``--metrics-format`` picks the final
    snapshot rendering (human text, JSON, or Prometheus exposition).

    SIGINT/SIGTERM trigger a graceful drain: no new queries start, queued
    queries are cancelled, in-flight queries get ``--grace`` seconds to
    finish, and the trace/metrics snapshot is still flushed before exit
    (exit status 130).
    """
    import json as json_module
    import signal

    from repro.analysis.lockwitness import GLOBAL_WITNESS, lockcheck_enabled
    from repro.obs.flush import FlushRegistry
    from repro.obs.metrics import render_prometheus
    from repro.obs.tracing import (
        NULL_TRACER,
        Tracer,
        tracing,
        validate_span_records,
    )
    from repro.service.config import ServiceConfig
    from repro.service.metrics import render_snapshot

    database = generate_tpch_database(
        size_mb=args.size_mb, seed=args.seed, analyze=True
    )
    queries: List[str] = []
    for line in sys.stdin:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        queries.append(TPCH_QUERIES[text]() if text in TPCH_QUERIES else text)
    if not queries:
        print("no queries on stdin", file=sys.stderr)
        return 1

    config = ServiceConfig(
        database=database,
        max_width=args.width,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
        work_budget=args.budget,
        deadline_seconds=(
            args.deadline_ms / 1000.0 if args.deadline_ms else None
        ),
        fault_spec=args.inject,
        seed=args.seed,
        trace=bool(args.trace),
        insights=args.insights,
    )
    router = None
    if args.shards >= 2:
        from repro.shard import ShardRouter, SupervisorPolicy

        policy = (
            SupervisorPolicy(max_restarts=args.max_restarts, seed=args.seed)
            if args.supervise
            else None
        )
        backend = router = ShardRouter(
            config, shards=args.shards, supervise=policy
        )
        units = f"{args.shards} shards"
    else:
        backend = service = config.build()
        units = "in-flight queries"

    def payload(final: bool = False) -> dict:
        if router is None:
            return _top_payload(service.snapshot(), None, 1)
        snapshot = router.final_snapshot() if final else router.snapshot()
        return _top_payload(
            snapshot["merged"], router.saturation(), args.shards
        )

    # Every exit path (SIGINT, SIGTERM, normal end-of-input) funnels
    # through one FlushRegistry: each registered flusher runs exactly once.
    flushers = FlushRegistry()
    stop_publisher = _start_insights_publisher(args, flushers, payload)
    exit_code = 0
    # A cluster traces inside its workers (config.trace); one process here.
    tracer = Tracer() if config.trace and router is None else NULL_TRACER

    def _on_signal(signum, frame):  # pragma: no cover - exercised via tests
        raise KeyboardInterrupt

    old_handlers = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            old_handlers[sig] = signal.signal(sig, _on_signal)
        except (ValueError, OSError):
            pass  # not the main thread (tests) or unsupported platform
    try:
        with tracing(tracer):
            print(f"{'#':>3} {'optimizer':<16} {'work':>12} {'rows':>8} {'wall(s)':>9}")
            try:
                outcomes = backend.run_all(queries, return_exceptions=True)
            except KeyboardInterrupt:
                exit_code = 130
                print(
                    f"\ninterrupted: draining {units} "
                    f"(grace {args.grace:.1f}s)...",
                    file=sys.stderr,
                )
                outcomes = []
            for index, result in enumerate(outcomes, 1):
                if isinstance(result, Exception):
                    print(f"{index:>3} error: {result}")
                    exit_code = 2
                    continue
                work = str(result.work) if result.finished else "DNF"
                count = str(len(result.relation)) if result.relation is not None else "-"
                print(
                    f"{index:>3} {result.optimizer:<16} {work:>12} "
                    f"{count:>8} {result.elapsed_seconds:>9.3f}"
                )
                if not result.finished:
                    exit_code = 2
    finally:
        for sig, handler in old_handlers.items():
            signal.signal(sig, handler)
        # Stop accepting work and drain before flushing observability, so
        # the exported trace and metrics cover every query that ran.
        drained = backend.drain(grace_seconds=args.grace)
        if not drained and exit_code == 130:
            print(
                f"warning: draining {units} outlasted the grace period",
                file=sys.stderr,
            )
        problems: List[str] = []
        if config.trace:
            if router is None:
                records = tracer.to_records()
                dropped, still_open = tracer.dropped, tracer.open_spans
                source = ""
            else:
                records = router.span_records()
                dropped, still_open = router.spans_dropped(), router.open_spans()
                source = f" from {units}"
            with open(args.trace, "w") as handle:
                for record in records:
                    handle.write(json_module.dumps(record) + "\n")
            print()
            print(f"trace: {len(records)} spans{source} -> {args.trace}")
            problems += [
                f"trace problem: {problem}"
                for problem in validate_span_records(
                    records,
                    dropped=dropped,
                    open_count=still_open,
                    require_shard_tag=router is not None,
                )
            ]
        if router is not None:
            problems += [
                f"lock-order violation on shard {shard_id}: {violation}"
                for shard_id, violation in sorted(
                    router.lock_violations().items()
                )
            ]
        if lockcheck_enabled():
            problems += [
                f"lock-order violation: {violation}"
                for violation in GLOBAL_WITNESS.violations
            ]
        if stop_publisher is not None:
            stop_publisher.set()
        flushers.flush()
        problems += [f"flush error: {error}" for error in flushers.errors]
        for problem in problems:
            print(problem, file=sys.stderr)
            if exit_code == 0:
                exit_code = 2
        print()
        snapshot = (
            service.snapshot() if router is None else router.final_snapshot()
        )
        view = dict(snapshot if router is None else snapshot["merged"])
        if args.metrics_format == "json":
            print(json_module.dumps(snapshot, indent=2, sort_keys=True))
        elif args.metrics_format == "prom":
            print(
                render_prometheus(service.metrics.registry.export())
                if router is None
                else router.render_prometheus()
            )
            if args.insights and view.get("insights"):
                from repro.obs.insights.registry import (
                    render_insights_prometheus,
                )

                print(render_insights_prometheus(view["insights"]))
        else:
            has_insights = view.pop("insights", None) is not None
            if router is None:
                print(render_snapshot(view))
            else:
                print("merged cluster metrics:")
                print(render_snapshot(view, indent="  "))
                print("per-shard cache hit rates:")
                for shard_id, rate in sorted(
                    snapshot["cache_hit_rates"].items()
                ):
                    shown = f"{rate:.2%}" if rate is not None else "-"
                    print(f"  shard {shard_id}: {shown}")
                supervisor_view = snapshot.get("supervisor")
                if supervisor_view is not None:
                    sup = supervisor_view["metrics"]
                    print(
                        "supervision: "
                        f"deaths={sup['worker_deaths']}  "
                        f"restarts={sup['restarts']}  "
                        f"failovers={sup['failovers']}  "
                        f"breaker opens={sup['breaker_opens']}"
                    )
            if has_insights:
                from repro.obs.insights.top import render_top

                print()
                print(render_top(payload(final=True)))
    return exit_code


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.bench.serving import run_serving_throughput

    if args.shards >= 2:
        return _bench_serve_sharded(args)
    result = run_serving_throughput(
        scale=args.scale,
        workers=args.workers,
        repetitions=args.repetitions,
        deadline_ms=args.deadline_ms,
        inject=args.inject,
        insights=args.insights,
    )
    print(render_series_table(result, metric="work", point_label="repetitions"))
    cold = result.series("cold")[-1]
    warm = result.series("warm")[-1]
    print()
    print(
        f"planning work: cold={cold.work}  warm={warm.work}  "
        f"({cold.work / warm.work:.1f}× amortization)"
        if warm.work
        else f"planning work: cold={cold.work}  warm={warm.work}"
    )
    print(
        f"plans built:   cold={cold.extra['plans_built']}  "
        f"warm={warm.extra['plans_built']} "
        f"(+{warm.extra['cache_hits']} cache hits)"
    )
    print(
        f"throughput:    cold={cold.extra['throughput_qps']} q/s  "
        f"warm={warm.extra['throughput_qps']} q/s"
    )
    print(
        f"fallbacks:     cold={cold.extra['fallbacks']}  "
        f"warm={warm.extra['fallbacks']}  "
        f"(lower-k: cold={cold.extra['degraded_lower_k']} "
        f"warm={warm.extra['degraded_lower_k']})"
    )
    if args.deadline_ms is not None or args.inject:
        print(
            f"deadline miss: cold={cold.extra['deadline_miss_rate']:.2%} "
            f"({cold.extra['deadline_misses']})  "
            f"warm={warm.extra['deadline_miss_rate']:.2%} "
            f"({warm.extra['deadline_misses']})"
        )
        print(
            f"errors:        cold={cold.extra['errors']}  "
            f"warm={warm.extra['errors']}"
        )
    if cold.phase_work and warm.phase_work:
        print(
            "phase work:    "
            f"cold decompose={cold.phase_work['decompose']} "
            f"execute={cold.phase_work['execute']}  |  "
            f"warm decompose={warm.phase_work['decompose']} "
            f"execute={warm.phase_work['execute']}"
        )
    print(
        f"latency:       cold p99={cold.extra['latency_p99_ms']}ms  "
        f"warm p99={warm.extra['latency_p99_ms']}ms"
    )
    if args.insights:
        print(
            f"insights:      cold templates={cold.extra['insight_templates']} "
            f"warm templates={warm.extra['insight_templates']}  "
            f"(slow outliers: cold={cold.extra['slow_outliers']} "
            f"warm={warm.extra['slow_outliers']})"
        )
    return 0


def _bench_serve_sharded(args: argparse.Namespace) -> int:
    """``bench-serve --shards N``: the multi-tenant cluster benchmark."""
    from repro.bench.serving import run_sharded_serving

    report = run_sharded_serving(
        scale=args.scale,
        shards=args.shards,
        workers=args.workers,
        repetitions=args.repetitions,
        deadline_ms=args.deadline_ms,
        inject=args.inject,
        insights=args.insights,
        kill_rate=args.kill_rate,
        supervise=args.supervise or args.kill_rate > 0,
    )
    base, shard = report["baseline"], report["sharded"]
    print(
        f"sharded serving: {report['queries']} queries "
        f"({report['tenants']} tenants × {report['repetitions']} reps) "
        f"over {report['shards']} shards × {report['workers_per_shard']} workers"
    )
    print(
        f"throughput:  baseline={base['throughput_qps']} q/s  "
        f"sharded={shard['throughput_qps']} q/s"
    )
    print(
        f"latency:     p50={shard['latency_p50_ms']}ms  "
        f"p99={shard['latency_p99_ms']}ms  "
        f"max={shard['latency_max_ms']}ms  "
        f"saturation={shard['saturation']:.2f}"
    )
    rates = ", ".join(
        f"{shard_id}:{rate:.2%}" if rate is not None else f"{shard_id}:-"
        for shard_id, rate in shard["per_shard_cache_hit_rates"].items()
    )
    print(
        f"cache:       baseline={base['cache_hit_rate']:.2%}  "
        f"per-shard [{rates}]"
    )
    parity = report["parity"]
    if parity["checked"]:
        print(
            f"parity:      identical={parity['identical']} "
            f"({parity['compared']} queries, {parity['rows']} rows)"
        )
    print(
        f"hit-rate:    every shard ≥ baseline: {report['hit_rate_ok']}  "
        f"drain clean: {shard['drained_clean']}"
    )
    resilience = report.get("resilience")
    if resilience is not None:
        print(
            f"resilience:  availability={resilience['availability']:.2%}  "
            f"kills={resilience['kills']}  "
            f"restarts={resilience['restarts']}  "
            f"failovers={resilience['failovers']}  "
            f"recovered={resilience['recovered_to_full']}"
        )
        print(
            f"recovery:    p50={resilience['recovery_p50_ms']}ms  "
            f"p99={resilience['recovery_p99_ms']}ms"
        )
    if args.insights and "insights" in shard:
        templates = shard["insights"]["templates"]
        worst = max(
            (entry["latency_p99_ms"] for entry in templates.values()),
            default=0.0,
        )
        print(
            f"insights:    {len(templates)} template(s), "
            f"worst p99={worst}ms"
        )
    if args.record:
        from repro.bench.record import write_record

        write_record(report, args.record)
        print(f"recorded -> {args.record}")
    ok = (
        (report["parity"]["identical"] or not parity["checked"])
        and report["hit_rate_ok"]
        and shard["drained_clean"]
    )
    if resilience is not None:
        ok = ok and resilience["recovered_to_full"]
    return 0 if ok else 1


def cmd_top(args: argparse.Namespace) -> int:
    """Live top-style view over a published insights snapshot file.

    Point it at the ``--insights-snapshot`` file a ``hdqo serve
    --insights`` process publishes.  On a TTY the view refreshes in place
    every ``--interval`` seconds; piped/CI output degrades to one plain
    text frame.
    """
    from repro.obs.insights.top import run_top

    return run_top(
        args.snapshot,
        interval=args.interval,
        iterations=args.iterations,
    )


def cmd_report(args: argparse.Namespace) -> int:
    """Offline per-template analytics over an exported span JSONL file.

    Replays every ``serve.query`` span into a fresh insights registry (the
    record the live registry held, by the same rule), validates the
    trace's internal consistency, and — with ``--baseline`` — flags regressions
    against a recorded ``BENCH_*.json`` trajectory point.  Exits 1 on any
    trace problem or flagged regression.
    """
    import json as json_module

    from repro.obs.insights.report import (
        analyze_spans,
        check_baseline,
        load_span_records,
        render_report,
    )

    records, load_problems = load_span_records(args.spans)
    analysis = analyze_spans(records)
    analysis["problems"] = load_problems + list(analysis["problems"])

    flags = None
    warnings = None
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline = json_module.load(handle)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 1
        if not isinstance(baseline, dict):
            print(f"baseline {args.baseline} is not a JSON object", file=sys.stderr)
            return 1
        flags, warnings = check_baseline(
            analysis, baseline, tolerance=args.tolerance
        )

    print(render_report(analysis, flags, warnings))
    problems = analysis["problems"]
    if problems or flags:
        return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Engine plan vs decomposition plan — optionally EXPLAIN ANALYZE.

    The query is translated once and one decomposition serves both
    renderings; the shared template fingerprint (the plan-cache key) is
    printed so repeated ``explain`` calls can be correlated with ``serve``
    cache behaviour.  With ``--analyze`` both plans are *executed* and each
    operator is annotated with actual rows, work units, and wall time.
    """
    from repro.obs.tracing import tracing
    from repro.service.fingerprint import fingerprint_translation

    database = generate_tpch_database(size_mb=args.size_mb, seed=args.seed, analyze=True)
    sql = _query_text(args)
    dbms = SimulatedDBMS(database, COMMDB_PROFILE)
    optimizer = HybridOptimizer(database, max_width=args.width)
    translation = optimizer.translate(sql)
    fingerprint = fingerprint_translation(translation)
    print(f"template fingerprint: {fingerprint.key}")
    print()
    if args.analyze:
        print("Engine join plan (EXPLAIN ANALYZE, with statistics):")
        print(dbms.explain_analyze(translation, work_budget=args.budget).text)
    else:
        print("Engine join plan (dp-bushy, with statistics):")
        print(dbms.explain(translation, use_statistics=True))
    print()
    with tracing() as tracer:
        plan = optimizer.optimize(translation)
    if args.analyze:
        (search,) = tracer.spans("decompose.search")
        tags = search.tags
        print(
            f"planning: {tags['candidates']} candidate separators "
            f"({tags['pruned']} pruned) over {tags['subproblems']} subproblems; "
            f"weighting: {tags['distinct_lambdas']} distinct λ, "
            f"{tags['estimate_joins']} join estimates; "
            f"{search.duration * 1e3:.1f} ms"
        )
    print(f"q-hypertree decomposition (width {plan.width}):")
    print(plan.explain(analyze=args.analyze, work_budget=args.budget))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdqo",
        description="Hypertree decompositions for query optimization "
        "(ICDE 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "query",
            help="SQL text, a TPC-H query name (q3/q5/q8/q10), or '-' for stdin",
        )
        p.add_argument("--size-mb", type=float, default=100.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--width", type=int, default=4, help="width bound k")

    def bounds(p: argparse.ArgumentParser) -> None:
        """The deadline/fault flags ``serve`` and ``bench-serve`` share."""
        p.add_argument(
            "--deadline-ms",
            type=float,
            default=None,
            help="per-query wall-clock deadline in milliseconds",
        )
        p.add_argument(
            "--inject",
            metavar="FAULTSPEC",
            default=None,
            help="deterministic fault injection: site:kind:rate[:param], "
            "comma separated (e.g. 'exec.join:error:0.1,decompose.search:latency:0.05:20')",
        )

    p = sub.add_parser("decompose", help="show the q-hypertree decomposition")
    common(p)
    p.add_argument("--views", action="store_true", help="also print SQL views")
    p.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("run", help="run a query on every system and compare")
    common(p)
    p.add_argument("--budget", type=int, default=5_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explain", help="engine plan vs decomposition plan")
    common(p)
    p.add_argument(
        "--analyze",
        action="store_true",
        help="execute both plans and annotate operators with actual "
        "rows/work/time (EXPLAIN ANALYZE)",
    )
    p.add_argument(
        "--budget", type=int, default=None, help="work budget for --analyze"
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "analyze", help="structural measures of a query (widths, acyclicity)"
    )
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "lint",
        help="run the domain static-analysis rules over the sources",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering",
    )
    p.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    p.add_argument(
        "--graphs-out",
        metavar="DIR",
        default=None,
        help="write call-graph.json and lock-graph.json artifacts here",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("experiment", help="reproduce a paper figure")
    p.add_argument("id", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", choices=["quick", "full"], default="quick")
    p.add_argument(
        "--metric",
        choices=["work", "simulated_seconds", "elapsed_seconds"],
        default="work",
    )
    p.add_argument("--chart", action="store_true", help="ASCII line chart")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "serve",
        help="serve queries from stdin through a concurrent QueryService",
    )
    p.add_argument("--size-mb", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=4, help="width bound k")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--queue-capacity", type=int, default=32)
    p.add_argument("--cache-capacity", type=int, default=128)
    p.add_argument(
        "--budget", type=int, default=None, help="per-query work budget"
    )
    p.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable tracing and export spans as JSONL to FILE",
    )
    p.add_argument(
        "--metrics-format",
        choices=["text", "json", "prom"],
        default="text",
        help="rendering of the final metrics snapshot",
    )
    bounds(p)
    p.add_argument(
        "--grace",
        type=float,
        default=5.0,
        help="drain grace period (seconds) on SIGINT/SIGTERM",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="serve from N worker processes routed by template fingerprint "
        "(1 = the unchanged single-process path; answers are identical "
        "either way)",
    )
    p.add_argument(
        "--supervise",
        action="store_true",
        help="with --shards: self-heal the cluster — restart dead workers "
        "(seeded jittered backoff, per-shard breaker), fail traffic over "
        "to live shards, and retry crash-stranded queries within their "
        "original deadlines",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="with --supervise: consecutive restarts per shard before its "
        "breaker opens (further restarts wait out the cooldown)",
    )
    p.add_argument(
        "--insights",
        action="store_true",
        help="record per-template query insights (counters, streaming "
        "latency/work histograms, slow-query log); zero work-unit "
        "cost when off",
    )
    p.add_argument(
        "--insights-snapshot",
        metavar="FILE",
        default=None,
        help="with --insights: periodically publish the (merged) insights "
        "snapshot JSON to FILE for `hdqo top`",
    )
    p.add_argument(
        "--insights-interval",
        type=float,
        default=2.0,
        help="seconds between insights snapshot publishes",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live terminal view over a published insights snapshot",
    )
    p.add_argument(
        "snapshot",
        help="snapshot JSON published by `hdqo serve --insights "
        "--insights-snapshot FILE`",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, help="refresh seconds (TTY)"
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render N frames then exit (default: loop on a TTY, one "
        "frame otherwise)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "report",
        help="offline per-template analytics over exported span JSONL",
    )
    p.add_argument("spans", help="span JSONL exported by `hdqo serve --trace`")
    p.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="BENCH_*.json record to check for regressions against",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        help="allowed p99 ratio over the baseline before flagging",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "bench-serve",
        help="repeated-template serving benchmark (plan cache cold vs warm)",
    )
    p.add_argument("--scale", choices=["quick", "full"], default="quick")
    p.add_argument("--workers", type=int, default=8)
    p.add_argument(
        "--repetitions", type=int, default=0, help="0 = scale default"
    )
    bounds(p)
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="benchmark multi-tenant traffic over N shard processes "
        "(reports p50/p99 latency, saturation, per-shard cache hit rates)",
    )
    p.add_argument(
        "--kill-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="with --shards: SIGKILL a random live shard with probability "
        "R per killer tick while the workload runs (implies --supervise "
        "semantics are what is being measured: availability and recovery "
        "percentiles land in the report)",
    )
    p.add_argument(
        "--supervise",
        action="store_true",
        help="with --shards: run the cluster under the self-healing "
        "supervisor (required for a --kill-rate > 0 run to recover)",
    )
    p.add_argument(
        "--record",
        metavar="FILE",
        default=None,
        help="with --shards: also write the report JSON "
        "(BENCH_serving.json format) to FILE",
    )
    p.add_argument(
        "--insights",
        action="store_true",
        help="record per-template insights during the benchmark and "
        "report the per-template summary",
    )
    p.set_defaults(func=cmd_bench_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

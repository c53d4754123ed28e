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
  with optional regression checks against an earlier span export.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import render_series_table
from repro.core.detkdecomp import hypertree_width
from repro.core.integration import install_structural_optimizer
from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.errors import DecompositionError, OptimizationError
from repro.hypergraph.algorithms import is_acyclic
from repro.workloads.tpch import generate_tpch_database
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
    database = generate_tpch_database(size_mb=args.size_mb, seed=args.seed, analyze=True)
    optimizer = HybridOptimizer(database, max_width=args.width)
    name = args.query if args.query in TPCH_QUERIES else "Q"
    translation = optimizer.translate(_query_text(args), name=name)
    hypergraph = translation.query.hypergraph()
    try:
        width: object = hypertree_width(hypergraph, max_k=6)
    except DecompositionError:
        width = ">6"
    print(f"query: {translation.query.name}")
    print(f"  atoms:               {len(hypergraph)}")
    print(f"  variables:           {len(hypergraph.vertices)}")
    print(f"  acyclic:             {is_acyclic(hypergraph)}")
    print(f"  hypertree width:     {width}")
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
    ``exec.*``) as validated JSONL — with ``--insights``, also replayed
    against the live registries; ``--metrics-format`` picks the final
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
    from repro.obs.insights.report import analyze_spans, replay_mismatches
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
        snapshot = (
            service.snapshot() if router is None else router.final_snapshot()
        )
        view = dict(snapshot if router is None else snapshot["merged"])
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
            if args.insights:
                # The span replay must rebuild the live registries' records.
                problems += [
                    f"trace problem: replay != live: {mismatch}"
                    for mismatch in replay_mismatches(
                        view.get("insights") or {}, analyze_spans(records)
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
        if args.metrics_format == "json":
            print(json_module.dumps(snapshot, indent=2, sort_keys=True))
        elif args.metrics_format == "prom":
            print(render_prometheus(view))
            supervisor_view = snapshot.get("supervisor")
            if supervisor_view is not None:
                print(render_prometheus({"shard": supervisor_view["metrics"]}))
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
    against an earlier span export, analysed by the same rule.  Exits 1 on
    any trace problem or flagged regression; problems in the baseline
    trace are only warnings.
    """
    from repro.obs.insights.report import (
        analyze_spans,
        check_baseline,
        load_span_records,
        render_report,
    )

    def analyze(path: str) -> dict:
        records, load_problems = load_span_records(path)
        analysis = analyze_spans(records)
        analysis["problems"] = load_problems + list(analysis["problems"])
        return analysis

    analysis = analyze(args.spans)
    flags = None
    warnings = None
    if args.baseline:
        baseline = analyze(args.baseline)
        if not baseline["spans"]:
            reason = (baseline["problems"] or ["no span records"])[0]
            print(f"cannot read baseline {args.baseline}: {reason}", file=sys.stderr)
            return 1
        flags, warnings = check_baseline(analysis, baseline)

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
            f"({tags['pruned']} pruned, {tags['bounded']} bounded) "
            f"over {tags['subproblems']} subproblems; "
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
        "analyze", help="structural measures of a query (hypertree widths, acyclicity)"
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
        help="an earlier span JSONL export to check for regressions against",
    )
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

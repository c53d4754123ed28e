"""End-to-end observability: tracing, EXPLAIN ANALYZE, and the metrics record.

Walks the three layers of ``repro.obs`` over a TPC-H Q5 run:

1. install a :class:`~repro.obs.tracing.Tracer` with the ``tracing()``
   context manager and watch the span tree the planner and executor emit —
   ``decompose.search`` → ``decompose.qhd`` → ``qhd.node``/``exec.*`` —
   each span carrying wall time, deterministic work-unit deltas, and tags;
2. render ``EXPLAIN ANALYZE`` for both the engine's binary-join plan and
   the q-hypertree plan (estimated vs actual cardinality per operator);
3. serve the query through a :class:`~repro.service.QueryService`, render
   its snapshot — the one metrics record ``hdqo serve`` prints as text or
   JSON — as a Prometheus exposition, and export the collected spans as
   JSONL.

Tracing is strictly opt-in: outside ``tracing()`` the process-wide tracer
is a shared no-op and a run charges exactly the same work units.

Run:  python examples/tracing.py
"""

import io

from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.obs.histogram import WORK_RANGE, Histogram, summary
from repro.obs.metrics import render_prometheus
from repro.obs.tracing import tracing
from repro.service import QueryService
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import query_q5


def main() -> None:
    db = generate_tpch_database(size_mb=20, seed=0, analyze=True)
    sql = query_q5()
    dbms = SimulatedDBMS(db, COMMDB_PROFILE)
    optimizer = HybridOptimizer(db, max_width=4)

    # -- 1. trace a full plan + execute cycle --------------------------------
    with tracing() as tracer:
        plan = optimizer.optimize(sql)
        result = plan.execute()

    print(f"q-hd width {plan.decomposition.width}: "
          f"{len(result.relation)} rows, {result.work} work units\n")

    print("span tree (indent = nesting):")
    spans = tracer.spans()
    depth = {None: -1}
    for span in sorted(spans, key=lambda s: s.start):
        depth[span.span_id] = depth.get(span.parent_id, -1) + 1
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        print(f"  {'  ' * depth[span.span_id]}{span.name:<20} "
              f"work={span.work_units:<6} {tags}")

    # -- 2. EXPLAIN ANALYZE, both engines ------------------------------------
    print("\nengine EXPLAIN ANALYZE (est vs actual per operator):")
    print(dbms.explain_analyze(sql).text)

    print("\nq-hd EXPLAIN ANALYZE (per-node rows and fold counts):")
    print(plan.explain(analyze=True))

    # -- 3. the metrics record + JSONL export --------------------------------
    with QueryService(dbms, max_width=4, workers=2) as service:
        service.run_all([sql, sql])  # the second run is a plan-cache hit
        snapshot = service.snapshot()
    print(f"\nserved 2 queries: {snapshot['planning']['built']} plan built, "
          f"{snapshot['planning']['cache_hits']} served from the plan cache")
    print("Prometheus exposition (bucket lines elided):")
    for line in render_prometheus(snapshot).splitlines():
        if "_bucket{" not in line:
            print(f"  {line}")
    # The snapshot's histogram class summarises any distribution.
    work_units = Histogram(index_range=WORK_RANGE)
    work_units.observe(result.work)
    print(f"work-unit summary: {summary(work_units.snapshot())}")

    buffer = io.StringIO()
    exported = tracer.export_jsonl(buffer)
    first_line = buffer.getvalue().splitlines()[0]
    print(f"exported {exported} spans as JSONL; first record:")
    print(f"  {first_line}")

    # -- zero-cost check: identical work with the no-op tracer ---------------
    untraced = plan.execute()
    assert untraced.work == result.work, "tracing must not change work charges"
    print(f"\nuntraced re-run charges the same {untraced.work} work units — "
          "tracing is free when disabled.")


if __name__ == "__main__":
    main()

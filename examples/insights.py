"""Query insights: one per-template record, its span replay, and merging.

A walkthrough of ``repro.obs.insights`` — the observability layer that
answers *which template* got slower, *in which phase*:

1. **recording** — attach an :class:`~repro.obs.insights.InsightsRegistry`
   to a :class:`~repro.service.QueryService` and serve a mixed workload
   under tracing; the optimizer handler makes one ``record_query`` call
   per query (counters, per-phase latency/work histograms, events) plus
   slow-query captures, keyed by canonical template fingerprint (zero
   work-unit cost when the registry is off);
2. **inspection and replay** — the snapshot's per-template phase
   quantiles and the bounded top-K slow log; then ``hdqo report``'s
   :func:`~repro.obs.insights.analyze_spans` replays the exported
   ``serve.query`` spans through the same rule and rebuilds the live
   record;
3. **exact merging** — two registries fed disjoint traffic merge into
   the snapshot one registry holding all of it would produce, bucket for
   bucket (the property the sharded serving path relies on);
4. **rendering** — the ``hdqo top`` text frame and the Prometheus
   exposition, both derived from the same snapshot.

Run:  python examples/insights.py
"""

import random

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.obs.histogram import summary
from repro.obs.insights import (
    InsightsRegistry,
    analyze_spans,
    merge_insights_snapshots,
    render_insights_prometheus,
    render_top,
    replay_mismatches,
)
from repro.obs.tracing import tracing
from repro.relational import AttributeType, Database, RelationSchema
from repro.service import QueryService

TEMPLATES = [
    "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {c}",
    "SELECT r1.a1 FROM r1, r2 WHERE r1.b1 = r2.a2 AND r1.a1 < {c}",
    "SELECT r2.a2, r3.a3 FROM r2, r3 WHERE r2.b2 = r3.a3 AND r2.a2 < {c}",
]


def make_database() -> Database:
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


def serve(db: Database, queries: list) -> tuple:
    """Run a batch through a service with insights on, under tracing;
    return the registry snapshot and the span records."""
    insights = InsightsRegistry()
    service = QueryService(
        SimulatedDBMS(db, COMMDB_PROFILE), max_width=2, workers=2,
        insights=insights,
    )
    try:
        with tracing() as tracer:
            service.run_all(queries)
    finally:
        service.close()
    return insights.snapshot(), tracer.to_records()


def main() -> None:
    db = make_database()
    workload = [
        template.format(c=2 + (rep % 3))
        for rep in range(4)
        for template in TEMPLATES
    ]

    # -- 1 + 2. record a workload, inspect per-template phases ---------------
    snapshot, spans = serve(db, workload)
    print("per-template phase distributions:")
    for template, entry in snapshot["templates"].items():
        print(f"  {template[:16]}…  queries={entry['queries']} "
              f"errors={entry['errors']} cache_hits={entry['cache_hits']}")
        for phase, data in entry["phases"].items():
            latency = summary(data["latency"])
            print(f"    {phase:<10} n={latency['count']:<3} "
                  f"p50={latency['p50'] * 1000:7.2f}ms "
                  f"p99={latency['p99'] * 1000:7.2f}ms "
                  f"work={data['work']['total']:.0f}")

    outliers = snapshot["slow_log"]["outliers"]
    print(f"\nslow log: top-K outliers for {len(outliers)} template(s)")

    # The offline twin: replaying the serve.query spans through the same
    # record_query rule rebuilds the live record.
    mismatches = replay_mismatches(snapshot, analyze_spans(spans))
    print(f"span replay == live registry: {not mismatches}")
    assert not mismatches, mismatches

    # -- 3. exact cross-registry merging -------------------------------------
    # Split the workload across two registries the way the shard router
    # does — template-affine, each template entirely on one side — and
    # the merged work histograms equal the single registry's exactly.
    left, _ = serve(db, [q for q in workload if q.startswith(TEMPLATES[0][:18])])
    right, _ = serve(
        db, [q for q in workload if not q.startswith(TEMPLATES[0][:18])]
    )
    merged = merge_insights_snapshots([left, right])
    exact = all(
        merged["templates"][key]["phases"][phase]["work"]
        == entry["phases"][phase]["work"]
        for key, entry in snapshot["templates"].items()
        for phase in entry["phases"]
    )
    print(f"\nmerged(work histograms) == single-process: {exact}")

    # -- 4. the top frame and the Prometheus exposition -----------------------
    print("\n" + render_top({
        "service": {"queries": len(workload), "cache_hit_rate": 0.75,
                    "saturation": None, "shards": 1},
        "insights": merged,
    }))
    prometheus = render_insights_prometheus(merged)
    print("\nPrometheus exposition (first 8 lines):")
    for line in prometheus.splitlines()[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()

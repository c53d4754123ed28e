"""Query insights: per-template histograms, slow log, SLOs, and merging.

A walkthrough of ``repro.obs.insights`` — the observability layer that
answers *which template* got slower, *in which phase*:

1. **recording** — attach an :class:`~repro.obs.insights.InsightsRegistry`
   to a :class:`~repro.service.QueryService` and serve a mixed workload;
   the optimizer handler feeds per-phase latency/work histograms, SLO
   outcomes, and slow-query captures, keyed by canonical template
   fingerprint (zero work-unit cost when the registry is off);
2. **inspection** — the snapshot's per-template phase quantiles, the
   bounded top-K slow log, and the fast/slow SLO burn rates;
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
    merge_insights_snapshots,
    render_insights_prometheus,
    render_top,
)
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


def serve(db: Database, queries: list) -> dict:
    """Run a batch through a service with insights on; return the snapshot."""
    insights = InsightsRegistry()
    service = QueryService(
        SimulatedDBMS(db, COMMDB_PROFILE), max_width=2, workers=2,
        insights=insights,
    )
    try:
        service.run_all(queries)
    finally:
        service.close()
    return insights.snapshot()


def main() -> None:
    db = make_database()
    workload = [
        template.format(c=2 + (rep % 3))
        for rep in range(4)
        for template in TEMPLATES
    ]

    # -- 1 + 2. record a workload, inspect per-template phases ---------------
    snapshot = serve(db, workload)
    print("per-template phase distributions:")
    for template, entry in snapshot["templates"].items():
        print(f"  {template[:16]}…  queries={entry['queries']} "
              f"errors={entry['errors']}")
        for phase, data in entry["phases"].items():
            latency = summary(data["latency"])
            print(f"    {phase:<10} n={latency['count']:<3} "
                  f"p50={latency['p50'] * 1000:7.2f}ms "
                  f"p99={latency['p99'] * 1000:7.2f}ms "
                  f"work={data['work']['total']:.0f}")
        slo = entry["slo"]
        print(f"    slo: good={slo['good']} bad={slo['bad']} "
              f"fast-burn={slo['fast_burn_rate']}")

    outliers = snapshot["slow_log"]["outliers"]
    print(f"\nslow log: top-K outliers for {len(outliers)} template(s)")

    # -- 3. exact cross-registry merging -------------------------------------
    # Split the workload across two registries the way the shard router
    # does — template-affine, each template entirely on one side — and
    # the merged work histograms equal the single registry's exactly.
    left = serve(db, [q for q in workload if q.startswith(TEMPLATES[0][:18])])
    right = serve(db, [q for q in workload if not q.startswith(TEMPLATES[0][:18])])
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

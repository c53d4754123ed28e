"""Sharded serving: template-affine routing across worker processes.

A walkthrough of ``repro.shard`` — the multi-process layer over the
serving stack:

1. **routing** — every query's canonical template fingerprint lands on a
   consistent-hash ring, so isomorphic queries (different constants,
   renamed aliases) always share a shard and that shard's plan cache;
2. **parity** — a sharded batch answers byte-identically (rows *and*
   order) to one single-process service;
3. **one merged view** — per-shard metric snapshots, plan-cache hit
   rates, and shard-tagged span records aggregated cluster-wide.

Run:  python examples/sharded_serving.py
"""

from dataclasses import replace

from repro.obs.tracing import validate_span_records
from repro.service import ServiceConfig
from repro.shard import ShardRouter
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)

SHARDS = 2


def main() -> None:
    config = SyntheticConfig(
        n_atoms=5, cardinality=200, selectivity=60, cyclic=True, seed=3
    )
    db = generate_synthetic_database(config)
    db.analyze()
    base_sql = synthetic_query_sql(config)

    # Two non-isomorphic templates, each repeated with varying constants.
    templates = [
        base_sql + " AND rel0.x0 < {c}",
        "SELECT a.x0 FROM rel0 a, rel1 b WHERE a.y0 = b.x1 "
        "AND a.x0 < {c}",
    ]
    queries = [
        template.format(c=c)
        for c in (10, 20, 30, 40)
        for template in templates
    ]

    shard_config = ServiceConfig(
        database=db,
        max_width=3,
        workers=2,
        cache_capacity=64,
        trace=True,  # per-shard tracers; merged below
    )
    router = ShardRouter(shard_config, shards=SHARDS)

    # -- 1. routing is deterministic and template-affine ----------------
    for template in templates:
        shards = {router.route(template.format(c=c)) for c in (1, 2, 3)}
        print(f"template routes to shard {shards} "
              f"(constants never change the route)")

    # -- 2. parity with a single-process service ------------------------
    sharded = router.run_all(queries)
    # The same serving world in one process, with the cluster's threads.
    with replace(shard_config, workers=2 * SHARDS).build() as single:
        baseline = single.run_all(queries)
    identical = all(
        s.relation.attributes == b.relation.attributes
        and s.relation.tuples == b.relation.tuples
        for s, b in zip(sharded, baseline)
    )
    print(f"parity over {len(queries)} queries: identical={identical}")

    # -- 3. the merged cluster view --------------------------------------
    snapshot = router.snapshot()
    merged = snapshot["merged"]
    print(f"cluster: {merged['queries']['submitted']} submitted, "
          f"{merged['queries']['finished']} finished")
    for shard_id, rate in sorted(snapshot["cache_hit_rates"].items()):
        shown = f"{rate:.0%}" if rate is not None else "idle"
        print(f"  shard {shard_id} plan-cache hit rate: {shown}")

    clean = router.drain(grace_seconds=10.0)
    records = router.span_records()
    problems = validate_span_records(
        records,
        dropped=router.spans_dropped(),
        open_count=router.open_spans(),
        require_shard_tag=True,
    )
    shards_traced = sorted({r["tags"]["shard"] for r in records})
    print(f"drained clean: {clean}; merged trace: {len(records)} spans "
          f"from shards {shards_traced}, problems: {problems or 'none'}")


if __name__ == "__main__":
    main()

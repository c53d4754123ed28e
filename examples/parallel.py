"""Intra-query parallel q-HD evaluation: parity, accounting, and memoization.

There is one q-HD evaluator; ``parallel_workers`` / ``workers`` only says
whether its per-node folds run inline or on pool workers:

1. **parity** — the same rows in the same order, at any worker count;
2. **one accounting** — and the same work units: where a fold runs does
   not change what it charges (under the GIL the wall clock does not
   improve either — the pool is for multi-core hosts);
3. **memoization** — structurally identical subtrees are materialized
   once and shared, within a tree and across evaluations that pass the
   same ``NodeMemo``.

Run:  python examples/parallel.py
"""

import time

from repro.core.evaluator import QHDEvaluator
from repro.core.memo import NodeMemo
from repro.core.optimizer import HybridOptimizer
from repro.engine.scans import atom_relations
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)


def main() -> None:
    config = SyntheticConfig(
        n_atoms=10, cardinality=1000, selectivity=30, cyclic=True, seed=7
    )
    db = generate_synthetic_database(config)
    sql = synthetic_query_sql(config)
    plan = HybridOptimizer(db, max_width=2, use_statistics=False).optimize(
        sql, name="chain"
    )
    print(f"chain query: {config.n_atoms} atoms, width {plan.width}")

    # -- parity + accounting ---------------------------------------------
    started = time.perf_counter()
    serial = plan.execute()
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    parallel = plan.execute(parallel_workers=4)
    parallel_wall = time.perf_counter() - started

    assert parallel.relation.tuples == serial.relation.tuples
    assert parallel.work_breakdown == serial.work_breakdown
    print(f"inline:       {serial_wall * 1e3:7.1f} ms, {serial.work} work units")
    print(f"4 workers:    {parallel_wall * 1e3:7.1f} ms, {parallel.work} work units")
    print("identical rows, row order and work units: True")

    # -- memoization across evaluations ----------------------------------
    base = atom_relations(plan.translation.query, db, plan.translation)
    memo = NodeMemo()
    first = QHDEvaluator(
        plan.decomposition, plan.translation.query, workers=4, memo=memo
    ).evaluate(base)
    second = QHDEvaluator(
        plan.decomposition, plan.translation.query, workers=4, memo=memo
    ).evaluate(base)
    assert second.tuples == first.tuples
    print(f"memo after two evaluations: {memo!r}")


if __name__ == "__main__":
    main()

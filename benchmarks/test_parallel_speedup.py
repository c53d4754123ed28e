"""Pool-worker q-HD evaluation vs inline on the chain workload.

Measured at the evaluator (``QHDEvaluator(..., workers=4)``): a served or
stand-alone query always folds inline.

One evaluator folds every node with one kernel, so the worker count may
change only *where* a fold runs: the paper's chain query (10 cyclic atoms)
must return identical rows in identical order for identical work units at
4 workers, and — Python threads do not overlap computation — in a wall
clock within 1.5× of the inline run (scheduling overhead stays bounded).
The recorded numbers are the repo benchmark's ``parallel.eval2_ms`` /
``parallel.work_units`` / ``parallel.speedup`` (``python3 perf/run.py``).
"""

from __future__ import annotations

import time

from repro.core.evaluator import QHDEvaluator
from repro.core.optimizer import HybridOptimizer
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)

CHAIN = SyntheticConfig(
    n_atoms=10, cardinality=1000, selectivity=30, cyclic=True, seed=7
)
REPEATS = 3
PARALLEL_WORKERS = 4


def _measure(plan, base, workers: int):
    """Best-of-``REPEATS`` wall clock, the answer and its work by category."""
    best = None
    for _ in range(REPEATS):
        meter = WorkMeter()
        evaluator = QHDEvaluator(
            plan.decomposition, plan.translation.query, meter, workers=workers
        )
        started = time.perf_counter()
        answer = evaluator.evaluate(base)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, answer, meter.snapshot()


def _compare():
    db = generate_synthetic_database(CHAIN)
    plan = HybridOptimizer(db, max_width=2, use_statistics=False).optimize(
        synthetic_query_sql(CHAIN), name="chain"
    )
    base = atom_relations(plan.translation.query, db, plan.translation)
    serial_wall, serial, serial_work = _measure(plan, base, 0)
    parallel_wall, parallel, parallel_work = _measure(
        plan, base, PARALLEL_WORKERS
    )
    return {
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
        "serial_work": serial_work,
        "parallel_work": parallel_work,
        "serial": serial,
        "parallel": parallel,
    }


def test_parallel_speedup_chain(benchmark):
    stats = benchmark.pedantic(_compare, rounds=1, iterations=1)
    speedup = stats["serial_wall"] / stats["parallel_wall"]
    print()
    print(
        f"chain n={CHAIN.n_atoms} card={CHAIN.cardinality}: "
        f"serial {stats['serial_wall'] * 1e3:.0f}ms / "
        f"{stats['serial_work']['total']} units, "
        f"parallel({PARALLEL_WORKERS}) {stats['parallel_wall'] * 1e3:.0f}ms / "
        f"{stats['parallel_work']['total']} units, speedup {speedup:.2f}x"
    )

    # Determinism: identical rows in identical order, any worker count.
    assert stats["parallel"].tuples == stats["serial"].tuples

    # One accounting: where a fold runs does not change what it charges.
    assert stats["parallel_work"] == stats["serial_work"]

    # No scheduling pathology: pool hand-offs cost a bounded factor.
    assert stats["parallel_wall"] <= 1.5 * stats["serial_wall"]

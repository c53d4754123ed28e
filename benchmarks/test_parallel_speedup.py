"""Pool-worker q-HD evaluation vs inline on the chain workload.

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

from repro.core.optimizer import HybridOptimizer
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)

from .conftest import run_once

CHAIN = SyntheticConfig(
    n_atoms=10, cardinality=1000, selectivity=30, cyclic=True, seed=7
)
REPEATS = 3
PARALLEL_WORKERS = 4


def _measure(plan, workers: int):
    """Best-of-``REPEATS`` wall clock plus the (deterministic) work total."""
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = plan.execute(parallel_workers=workers)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _compare():
    db = generate_synthetic_database(CHAIN)
    plan = HybridOptimizer(db, max_width=2, use_statistics=False).optimize(
        synthetic_query_sql(CHAIN), name="chain"
    )
    serial_wall, serial = _measure(plan, 0)
    parallel_wall, parallel = _measure(plan, PARALLEL_WORKERS)
    return {
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
        "serial_work": serial.work,
        "parallel_work": parallel.work,
        "serial": serial,
        "parallel": parallel,
    }


def test_parallel_speedup_chain(benchmark):
    stats = run_once(benchmark, _compare)
    speedup = stats["serial_wall"] / stats["parallel_wall"]
    print()
    print(
        f"chain n={CHAIN.n_atoms} card={CHAIN.cardinality}: "
        f"serial {stats['serial_wall'] * 1e3:.0f}ms / {stats['serial_work']} units, "
        f"parallel({PARALLEL_WORKERS}) {stats['parallel_wall'] * 1e3:.0f}ms / "
        f"{stats['parallel_work']} units, speedup {speedup:.2f}x"
    )

    # Determinism: identical rows in identical order, any worker count.
    assert stats["parallel"].relation.tuples == stats["serial"].relation.tuples

    # One accounting: where a fold runs does not change what it charges.
    assert stats["parallel_work"] == stats["serial_work"]
    assert stats["parallel"].work_breakdown == stats["serial"].work_breakdown

    # No scheduling pathology: pool hand-offs cost a bounded factor.
    assert stats["parallel_wall"] <= 1.5 * stats["serial_wall"]

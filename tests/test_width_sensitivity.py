"""Width-bound sensitivity: the paper's "typically k = 4 is enough".

Sweeps the width bound k on TPC-H Q5 and on chain queries, checking the
achieved width and the evaluation work.  Two expectations from §4.1:

* below the query's q-hypertree width, the search fails fast;
* beyond it, larger k does not hurt plan quality (the min-cost search
  simply keeps choosing the same cheap decompositions), while search time
  grows — which is why a small fixed k is the right engineering choice.
"""

from repro.core.optimizer import HybridOptimizer
from repro.errors import DecompositionNotFound
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import query_q5


def test_width_sensitivity_q5():
    db = generate_tpch_database(size_mb=200, seed=3, analyze=True)
    widths, works = {}, []
    for k in (1, 2, 3, 4, 5):
        try:
            plan = HybridOptimizer(db, max_width=k).optimize(query_q5())
        except DecompositionNotFound:
            widths[k] = None
            continue
        widths[k] = plan.width
        works.append(plan.execute().work)

    # k = 1 must fail: Q5 is cyclic with q-hypertree width 2.
    assert widths[1] is None
    # k = 2 succeeds; larger k never worsens evaluation work by much.
    assert widths[2] is not None
    assert max(works) <= min(works) * 3


def test_width_sensitivity_chain():
    config = SyntheticConfig(
        n_atoms=8, cardinality=450, selectivity=60, cyclic=True, seed=8
    )
    db = generate_synthetic_database(config)
    db.analyze()
    sql = synthetic_query_sql(config)
    widths = []
    for k in (1, 2, 3, 4):
        try:
            widths.append(HybridOptimizer(db, max_width=k).optimize(sql).width)
        except DecompositionNotFound:
            widths.append(None)
    # Chains have q-hypertree width 2: k=1 fails, k≥2 succeeds.
    assert widths[0] is None
    assert all(width is not None for width in widths[1:])

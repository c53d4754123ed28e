"""Ablations of the design choices DESIGN.md calls out.

Not figures of the paper, but measurements of the choices its system makes:

* **single-pass vs classic** — the q-hypertree evaluator (one bottom-up
  pass, feature (a) of Definition 2) against the classical S₂′+S₂″ pipeline
  (materialize node relations, then 3-phase Yannakakis);
* **bushy vs left-deep vs GEQO** — the engine's search spaces on a TPC-H
  join (why the CommDB profile beats the PostgreSQL profile);
* **aggregate cost term** — the paper's future-work extension: charging
  the estimated answer size at the root.
"""

from repro.core.evaluator import evaluate_hd_classic, evaluate_qhd
from repro.core.optimizer import HybridOptimizer
from repro.engine.cost import atom_estimates
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.engine.geqo import GeqoOptimizer
from repro.engine.optimizer import JoinOrderOptimizer
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import query_q5


def test_single_pass_vs_classic_evaluation():
    """Feature (a): the single bottom-up pass must not lose to the classic
    three-phase pipeline, and the answers must match."""
    single_work = classic_work = 0
    for n_atoms in (4, 6, 8, 10):
        config = SyntheticConfig(
            n_atoms=n_atoms, cardinality=450, selectivity=60,
            cyclic=True, seed=n_atoms,
        )
        db = generate_synthetic_database(config)
        db.analyze()
        sql = synthetic_query_sql(config)
        plan = HybridOptimizer(db, max_width=3).optimize(sql)
        translation = plan.translation
        rels = atom_relations(translation.query, db, translation)

        m_single, m_classic = WorkMeter(), WorkMeter()
        single = evaluate_qhd(
            plan.decomposition, translation.query, rels, meter=m_single
        )
        classic = evaluate_hd_classic(
            plan.decomposition, translation.query, rels, meter=m_classic
        )
        assert single.same_content(classic)
        single_work += m_single.total
        classic_work += m_classic.total
    # The single pass wins on aggregate across the sweep.
    assert single_work <= classic_work


def test_search_space_ablation():
    """Executed work of the engine's three planners' plans on Q5."""
    db = generate_tpch_database(size_mb=400, seed=1, analyze=True)
    dbms = SimulatedDBMS(db, COMMDB_PROFILE)
    translation = dbms.translate(query_q5())
    estimates = atom_estimates(translation, db, True)

    results = {}
    for label, planner in (
        ("bushy", JoinOrderOptimizer(translation, estimates, "bushy")),
        ("leftdeep", JoinOrderOptimizer(translation, estimates, "leftdeep")),
        ("geqo", GeqoOptimizer(translation, estimates, seed=0)),
    ):
        meter = WorkMeter()
        base = atom_relations(translation.query, db, translation, meter)
        dbms._execute_plan(planner.optimize(), base, meter)
        results[label] = meter.total
    # Bushy search never loses to left-deep; GEQO is heuristic but sane.
    assert results["bushy"] <= results["leftdeep"] * 1.01
    assert results["geqo"] <= results["leftdeep"] * 10


def test_aggregate_cost_term_ablation():
    """The future-work aggregate term: same answers, bounded plan change."""
    db = generate_tpch_database(size_mb=200, seed=2, analyze=True)
    plain = HybridOptimizer(db, max_width=3).optimize(query_q5()).execute()
    weighted = HybridOptimizer(
        db, max_width=3, include_aggregates=True, aggregate_weight=5.0
    ).optimize(query_q5()).execute()
    assert plain.relation.same_content(weighted.relation)
    # The weighted plan must stay within a small factor of the plain plan.
    assert weighted.work <= plain.work * 2

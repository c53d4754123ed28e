"""One entry point per figure of the paper's evaluation (§6).

Every ``run_figX`` function sweeps the same parameters as the paper's
figure and returns an :class:`repro.bench.harness.ExperimentResult` whose
series have the paper's systems:

=============  ==========================================================
fig7a / fig7b  acyclic / chain queries, atoms 2–10, cardinality 500,
               selectivity ∈ {30, 60, 90}; CommDB (stats) vs q-HD
fig7c / fig7d  acyclic / chain queries, selectivity 30,
               cardinality ∈ {500, 750, 1000}
fig8a / fig8b  TPC-H Q5 / Q8, database size 200–1000 (scaled MB);
               CommDB with stats vs without its optimizer vs q-HD
fig9           PostgreSQL vs PostgreSQL + q-HD coupling, acyclic & chain,
               cardinality 450, selectivity 60
fig10          Procedure Optimize ablation on the fig9 chain dataset
overhead       §6.1: ANALYZE cost vs decomposition cost across sizes
=============  ==========================================================

All experiments measure *work units* (machine-independent tuples-touched)
under a budget; budget exhaustion is recorded as DNF, the paper's
"> 10 minutes".  ``scale="quick"`` shrinks the sweeps for CI.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult, RunRecord, run_with_budget
from repro.core.detkdecomp import det_k_decomp
from repro.core.evaluator import QHDEvaluator, atom_relations
from repro.core.integration import install_structural_optimizer
from repro.core.optimizer import HybridOptimizer
from repro.core.qhd import assign_atoms, procedure_optimize
from repro.engine.dbms import (
    COMMDB_PROFILE,
    POSTGRES_PROFILE,
    SimulatedDBMS,
)
from repro.metering import WorkMeter
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import query_q5, query_q8

SYNTHETIC_BUDGET = 3_000_000
TPCH_BUDGET = 500_000
MAX_WIDTH = 4


def _atoms_for(scale: str) -> List[int]:
    return [2, 4, 6, 8, 10] if scale == "quick" else list(range(2, 11))


def _sizes_for(scale: str) -> List[int]:
    return [200, 600, 1000] if scale == "quick" else [200, 400, 600, 800, 1000]


# ---------------------------------------------------------------------------
# Fig. 7 — CommDB vs q-HD on synthetic queries
# ---------------------------------------------------------------------------


def _run_synthetic_point(
    config: SyntheticConfig,
    budget: int,
) -> Tuple[RunRecord, RunRecord]:
    """Measure one (CommDB-with-stats, q-HD stand-alone) pair."""
    database = generate_synthetic_database(config)
    database.analyze()
    sql = synthetic_query_sql(config)
    dbms = SimulatedDBMS(database, COMMDB_PROFILE)

    commdb = run_with_budget(
        lambda: dbms.run_sql(sql, use_statistics=True, work_budget=budget),
        system="commdb",
        point=config.n_atoms,
    )

    optimizer = HybridOptimizer(database, max_width=MAX_WIDTH)
    started = time.perf_counter()
    plan = optimizer.optimize(sql)
    decomposition_seconds = time.perf_counter() - started
    qhd = run_with_budget(
        lambda: plan.execute(work_budget=budget, spill=dbms.spill_model),
        system="q-hd",
        point=config.n_atoms,
    )
    qhd.extra["decomposition_seconds"] = decomposition_seconds
    qhd.extra["width"] = plan.width
    # The stand-alone plan's search effort is not charged to the execution
    # meter; surface it in the decompose phase column.
    qhd.phase_work["decompose"] = plan.planning_work
    return commdb, qhd


def run_fig7(
    variant: str,
    scale: str = "quick",
    budget: int = SYNTHETIC_BUDGET,
) -> ExperimentResult:
    """Fig. 7 (a)–(d): execution time vs number of body atoms.

    Args:
        variant: ``"a"`` acyclic × selectivity sweep, ``"b"`` chain ×
            selectivity sweep, ``"c"`` acyclic × cardinality sweep,
            ``"d"`` chain × cardinality sweep.
    """
    if variant not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown fig7 variant {variant!r}")
    cyclic = variant in ("b", "d")
    kind = "chain" if cyclic else "acyclic"
    if variant in ("a", "b"):
        sweeps = [("sel", s, dict(cardinality=500, selectivity=s)) for s in (30, 60, 90)]
        subtitle = "cardinality 500, selectivity ∈ {30, 60, 90}"
    else:
        sweeps = [
            ("card", c, dict(cardinality=c, selectivity=30)) for c in (500, 750, 1000)
        ]
        subtitle = "selectivity 30, cardinality ∈ {500, 750, 1000}"

    result = ExperimentResult(
        experiment_id=f"fig7{variant}",
        title=f"Fig. 7({variant}) — {kind} queries, {subtitle} (work units)",
    )
    for label, value, kwargs in sweeps:
        for n_atoms in _atoms_for(scale):
            config = SyntheticConfig(
                n_atoms=n_atoms, cyclic=cyclic, seed=n_atoms, **kwargs
            )
            commdb, qhd = _run_synthetic_point(config, budget)
            commdb.system = f"commdb-{label}{value}"
            qhd.system = f"q-hd-{label}{value}"
            commdb.extra["group"] = f"{label}{value}"
            qhd.extra["group"] = f"{label}{value}"
            result.add(commdb)
            result.add(qhd)
    if not result.consistent_answers():
        result.notes.append("WARNING: systems disagree on answer sizes")
    return result


# ---------------------------------------------------------------------------
# Fig. 8 — TPC-H Q5 / Q8 on CommDB vs q-HD, database-size sweep
# ---------------------------------------------------------------------------


def run_fig8(
    query: str = "q5",
    scale: str = "quick",
    budget: int = TPCH_BUDGET,
    seed: int = 1,
) -> ExperimentResult:
    """Fig. 8 (a) Q5 / (b) Q8: execution time vs database size.

    Systems: CommDB with statistics, CommDB without its standard optimizer
    (syntactic order, no pushdown — the paper's no-statistics baseline),
    and the stand-alone q-HD plan.  q-HD uses the purely structural cost
    model here, matching the paper's observation that statistics did not
    change the chosen decomposition for Q5/Q8.
    """
    sql_factory = {"q5": query_q5, "q8": query_q8}.get(query)
    if sql_factory is None:
        raise ValueError(f"unknown TPC-H query {query!r}")
    sql = sql_factory()
    result = ExperimentResult(
        experiment_id=f"fig8{'a' if query == 'q5' else 'b'}",
        title=f"Fig. 8 — TPC-H {query.upper()}, database size sweep (work units)",
    )
    for size in _sizes_for(scale):
        database = generate_tpch_database(size_mb=size, seed=seed, analyze=True)
        dbms = SimulatedDBMS(database, COMMDB_PROFILE)

        result.add(
            run_with_budget(
                lambda: dbms.run_sql(sql, use_statistics=True, work_budget=budget),
                system="commdb+stats",
                point=size,
            )
        )
        result.add(
            run_with_budget(
                lambda: dbms.run_sql(
                    sql, optimizer_enabled=False, work_budget=budget
                ),
                system="commdb-no-opt",
                point=size,
            )
        )
        # Purely structural q-HD (no statistics), as in the paper's Fig. 8.
        optimizer = HybridOptimizer(database, max_width=3, use_statistics=False)
        plan = optimizer.optimize(sql)
        qhd = run_with_budget(
            lambda: plan.execute(work_budget=budget, spill=dbms.spill_model),
            system="q-hd",
            point=size,
        )
        qhd.extra["decomposition_seconds"] = plan.decomposition_seconds
        qhd.extra["width"] = plan.width
        qhd.phase_work["decompose"] = plan.planning_work
        result.add(qhd)
    if not result.consistent_answers():
        result.notes.append("WARNING: systems disagree on answer sizes")
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — PostgreSQL vs the tight coupling
# ---------------------------------------------------------------------------


def run_fig9(
    scale: str = "quick",
    budget: int = SYNTHETIC_BUDGET,
    cardinality: int = 450,
    selectivity: int = 60,
) -> ExperimentResult:
    """Fig. 9: stock PostgreSQL vs PostgreSQL with the structural coupling.

    Acyclic and chain queries, cardinality 450, selectivity 60 — the
    paper's synthetic dataset for the PostgreSQL experiments.
    """
    result = ExperimentResult(
        experiment_id="fig9",
        title=(
            "Fig. 9 — PostgreSQL vs PostgreSQL+q-HD, "
            f"cardinality {cardinality}, selectivity {selectivity} (work units)"
        ),
    )
    for cyclic in (False, True):
        kind = "chain" if cyclic else "acyclic"
        for n_atoms in _atoms_for(scale):
            config = SyntheticConfig(
                n_atoms=n_atoms,
                cardinality=cardinality,
                selectivity=selectivity,
                cyclic=cyclic,
                seed=n_atoms,
            )
            database = generate_synthetic_database(config)
            database.analyze()
            sql = synthetic_query_sql(config)

            stock = SimulatedDBMS(database, POSTGRES_PROFILE)
            stock_record = run_with_budget(
                lambda: stock.run_sql(sql, work_budget=budget),
                system=f"postgres-{kind}",
                point=n_atoms,
            )
            stock_record.extra["group"] = kind
            result.add(stock_record)

            coupled = SimulatedDBMS(database, POSTGRES_PROFILE)
            # The handler plans on its own meter; a ServiceMetrics instance
            # captures the deterministic planning effort per query.
            from repro.service.metrics import ServiceMetrics

            plan_metrics = ServiceMetrics()
            install_structural_optimizer(
                coupled, max_width=MAX_WIDTH, metrics=plan_metrics
            )
            coupled_record = run_with_budget(
                lambda: coupled.run_sql(sql, work_budget=budget),
                system=f"postgres+q-hd-{kind}",
                point=n_atoms,
            )
            coupled_record.extra["group"] = kind
            coupled_record.phase_work["decompose"] = plan_metrics.planning_units
            result.add(coupled_record)
    if not result.consistent_answers():
        result.notes.append("WARNING: systems disagree on answer sizes")
    return result


# ---------------------------------------------------------------------------
# Fig. 10 — impact of Procedure Optimize
# ---------------------------------------------------------------------------


def run_fig10(
    scale: str = "quick",
    budget: int = SYNTHETIC_BUDGET,
    cardinality: int = 450,
    selectivity: int = 60,
) -> ExperimentResult:
    """Fig. 10: chain queries evaluated with vs without Procedure Optimize
    (feature (b) of q-hypertree decompositions), on the fig9 dataset."""
    result = ExperimentResult(
        experiment_id="fig10",
        title=(
            "Fig. 10 — Procedure Optimize ablation on chain queries "
            f"(cardinality {cardinality}, selectivity {selectivity}; work units)"
        ),
    )
    result.notes.append(
        "baseline: first-found NF decomposition (det-k-decomp), which "
        "carries the redundant bounding atoms Procedure Optimize removes "
        "(the paper's HD₁ vs HD′₁); cost-k-decomp would optimize most of "
        "the redundancy away during the search"
    )
    for n_atoms in _atoms_for(scale):
        config = SyntheticConfig(
            n_atoms=n_atoms,
            cardinality=cardinality,
            selectivity=selectivity,
            cyclic=True,
            seed=n_atoms,
        )
        database = generate_synthetic_database(config)
        database.analyze()
        sql = synthetic_query_sql(config)
        dbms = SimulatedDBMS(database, COMMDB_PROFILE)
        translation = dbms.translate(sql)

        for optimize, label in ((True, "q-hd+optimize"), (False, "q-hd-no-optimize")):
            decomposition = det_k_decomp(
                translation.query.hypergraph(),
                2,
                required_root_cover=translation.query.output_variables,
            )
            if decomposition is None:
                continue
            assign_atoms(decomposition, translation.query)
            removed = procedure_optimize(decomposition) if optimize else 0

            def runner(decomp=decomposition):
                meter = WorkMeter(budget=budget)
                base = atom_relations(
                    translation.query, database, translation, meter
                )
                evaluator = QHDEvaluator(decomp, translation.query, meter)
                answer = evaluator.evaluate(base)
                return _SimpleResult(answer, meter)

            record = run_with_budget(runner, system=label, point=n_atoms)
            record.extra["lambda_atoms"] = sum(
                len(node.lam) for node in decomposition.root.walk()
            )
            record.extra["removed"] = removed
            result.add(record)
    if not result.consistent_answers():
        result.notes.append("WARNING: systems disagree on answer sizes")
    return result


class _SimpleResult:
    """Adapter exposing the DBMSResult fields run_with_budget reads."""

    def __init__(self, relation, meter: WorkMeter):
        self.relation = relation
        self.work = meter.total
        self.simulated_seconds = meter.total * COMMDB_PROFILE.work_time_factor
        self.elapsed_seconds = meter.elapsed_seconds
        self.finished = True
        self.optimizer = "q-hd"
        self.work_breakdown = meter.snapshot()


# ---------------------------------------------------------------------------
# §6.1 — optimization overhead: ANALYZE vs decomposition
# ---------------------------------------------------------------------------


def run_overhead(scale: str = "quick", seed: int = 1) -> ExperimentResult:
    """§6.1 overhead: statistics gathering grows with the database; the
    structural plan does not (the paper: 800 s for 1 GB vs ~1.5 s, size-
    independent).  Both rows record work units: ANALYZE's scan work and the
    cost-k-decomp search's plan units."""
    result = ExperimentResult(
        experiment_id="overhead",
        title="§6.1 — statistics gathering vs decomposition cost",
    )
    sql = query_q5()
    for size in _sizes_for(scale):
        database = generate_tpch_database(size_mb=size, seed=seed, analyze=False)
        meter = WorkMeter()
        started = time.perf_counter()
        database.analyze(meter=meter)
        analyze_elapsed = time.perf_counter() - started
        result.add(
            RunRecord(
                system="analyze",
                point=size,
                work=meter.total,
                simulated_seconds=meter.total * COMMDB_PROFILE.work_time_factor,
                elapsed_seconds=analyze_elapsed,
                finished=True,
            )
        )
        optimizer = HybridOptimizer(database, max_width=3)
        started = time.perf_counter()
        plan = optimizer.optimize(sql)
        decompose_elapsed = time.perf_counter() - started
        result.add(
            RunRecord(
                system="decompose",
                point=size,
                work=plan.planning_work,
                simulated_seconds=0.0,
                elapsed_seconds=decompose_elapsed,
                finished=True,
                extra={"width": plan.width},
            )
        )
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "fig7a": lambda scale="quick": run_fig7("a", scale),
    "fig7b": lambda scale="quick": run_fig7("b", scale),
    "fig7c": lambda scale="quick": run_fig7("c", scale),
    "fig7d": lambda scale="quick": run_fig7("d", scale),
    "fig8a": lambda scale="quick": run_fig8("q5", scale),
    "fig8b": lambda scale="quick": run_fig8("q8", scale),
    "fig9": lambda scale="quick": run_fig9(scale),
    "fig10": lambda scale="quick": run_fig10(scale),
    "overhead": lambda scale="quick": run_overhead(scale),
}


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        factory = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    return factory(scale=scale)

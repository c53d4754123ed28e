"""The hybrid optimizer pipeline (Fig. 5 of the paper).

``HybridOptimizer`` wires the architecture's modules together:

* *Sql Analyzer* — parse + conjunctive-query isolation
  (:mod:`repro.query.parser`, :mod:`repro.query.translate`);
* *Statistics Picker* — pull cardinalities/distincts from the database's
  statistics catalog (or accept user-supplied ones; or fall back to the
  purely structural uniform model);
* *cost-k-decomp* — the minimum-cost q-hypertree decomposition
  (:mod:`repro.core.costkdecomp` + :mod:`repro.core.qhd`);
* *Query Manipulator* — either a directly executable plan
  (:class:`OptimizedPlan`, used by the tight coupling) or a rewritten SQL
  view stack (:func:`OptimizedPlan.to_sql_views`, the stand-alone mode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import DecompositionNotFound, QueryError
from repro.engine.cost import atom_estimates
from repro.engine.dbms import DBMSResult, SimulatedDBMS
from repro.engine.postprocess import apply_sql_semantics
from repro.engine.scans import atom_relations
from repro.metering import SpillModel, WorkMeter
from repro.obs.tracing import NullTracer, Tracer, current_tracer
from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.core.costmodel import DecompositionCostModel
from repro.core.evaluator import QHDEvaluator
from repro.core.hypertree import Hypertree
from repro.core.qhd import q_hypertree_decomp
from repro.core.views import SqlViewPlan, decomposition_to_sql_views


def cost_model_from_database(
    translation: TranslationResult,
    database: Database,
    use_statistics: bool = True,
) -> DecompositionCostModel:
    """Build the Statistics-Picker cost model for a translated query.

    With statistics for every atom: :func:`repro.engine.cost.atom_estimates`.
    Without, or with some relation not analyzed: the uniform purely
    structural model.
    """
    estimates = atom_estimates(
        translation, database, use_statistics, whole_query_fallback=True
    )
    if estimates is None:
        return DecompositionCostModel.uniform(translation.query)
    return DecompositionCostModel(estimates)


@dataclass
class OptimizedPlan:
    """A structural query plan: decomposition + everything needed to run it.

    Attributes:
        translation: the SQL→CQ translation.
        decomposition: the good q-hypertree decomposition.
        database: the data the plan runs against.
        decomposition_seconds: time spent by cost-k-decomp (the paper's
            ~1.5 s, independent of database size).
        used_statistics: whether the cost model consulted ANALYZE data.
        planning_work: ``"plan"`` work units charged by the cost-k-decomp
            search — the deterministic planning-effort measure (the
            bench exports report it as the *decompose* phase).
    """

    translation: TranslationResult
    decomposition: Hypertree
    database: Database
    decomposition_seconds: float
    used_statistics: bool
    planning_work: int = 0

    @property
    def width(self) -> int:
        return self.decomposition.width

    def explain(
        self,
        analyze: bool = False,
        work_budget: Optional[int] = None,
        spill: Optional[SpillModel] = None,
    ) -> str:
        """Render the decomposition tree (the logical query plan).

        With ``analyze=True`` the plan is *executed* under a private tracer
        and each node is annotated with its actual row count, charged work
        units, and wall time — EXPLAIN ANALYZE for the structural engine.
        """
        if not analyze:
            return self.decomposition.render()
        from repro.obs.explain import render_analyzed_decomposition, stats_by_node

        tracer = Tracer()
        result = self.execute(
            work_budget=work_budget, spill=spill, tracer=tracer
        )
        stats = stats_by_node(tracer.spans(), names=("qhd.node",))
        lines = [render_analyzed_decomposition(self.decomposition, stats)]
        lines.append(
            f"total work: {result.work}   wall: {result.elapsed_seconds * 1e3:.1f}ms"
        )
        if result.finished and result.relation is not None:
            lines.append(f"answer rows: {len(result.relation)}")
        else:
            lines.append("answer: did not finish (work budget exhausted)")
        return "\n".join(lines)

    def execute(
        self,
        work_budget: Optional[int] = None,
        spill: Optional[SpillModel] = None,
        tracer: "Optional[Union[Tracer, NullTracer]]" = None,
    ) -> DBMSResult:
        """Evaluate via the q-hypertree evaluator and apply SQL semantics."""
        from repro.errors import WorkBudgetExceeded

        meter = WorkMeter(budget=work_budget)
        started = time.perf_counter()
        try:
            base = atom_relations(
                self.translation.query, self.database, self.translation, meter
            )
            evaluator = QHDEvaluator(
                self.decomposition,
                self.translation.query,
                meter,
                spill,
                tracer=tracer,
            )
            answer = evaluator.evaluate(base)
            final = apply_sql_semantics(answer, self.translation, meter)
            finished = True
        except WorkBudgetExceeded:
            answer, final, finished = None, None, False
        elapsed = time.perf_counter() - started
        return DBMSResult(
            relation=final,
            answer=answer,
            work=meter.total,
            simulated_seconds=float(meter.total) * 1e-6,
            elapsed_seconds=elapsed,
            plan_text=self.decomposition.render(),
            finished=finished,
            used_statistics=self.used_statistics,
            optimizer="q-hd",
            work_breakdown=meter.snapshot(),
        )

    def to_sql_views(self, view_prefix: str = "hdv") -> SqlViewPlan:
        """Rewrite as SQL views (the stand-alone deployment mode)."""
        return decomposition_to_sql_views(
            self.decomposition, self.translation, view_prefix
        )


class HybridOptimizer:
    """The paper's optimizer: structural search weighted by statistics.

    Args:
        database: data + (optional) statistics.
        max_width: the width bound k (the paper: "typically k = 4 is
            enough for database queries").
        use_statistics: consult the statistics catalog; ``None`` = use them
            when available.
        optimize: run Procedure Optimize (Fig. 4); disable for ablation.
    """

    def __init__(
        self,
        database: Database,
        max_width: int = 4,
        use_statistics: Optional[bool] = None,
        optimize: bool = True,
        include_aggregates: bool = False,
        aggregate_weight: float = 1.0,
    ):
        self.database = database
        self.max_width = max_width
        self.use_statistics = use_statistics
        self.optimize_procedure = optimize
        self.include_aggregates = include_aggregates
        self.aggregate_weight = aggregate_weight

    def translate(
        self, sql: Union[str, ast.SelectQuery], name: str = "Q"
    ) -> TranslationResult:
        """Parse and translate; uncorrelated IN-subqueries are flattened by
        :meth:`SimulatedDBMS.translate` on a default engine over this
        database."""
        return SimulatedDBMS(self.database).translate(sql, name=name)

    def optimize(
        self, sql: Union[str, ast.SelectQuery, TranslationResult], name: str = "Q"
    ) -> OptimizedPlan:
        """Produce a good q-hypertree decomposition plan for ``sql``.

        Raises:
            DecompositionNotFound: no width-≤k decomposition covers out(Q)
                at one node ("Failure" in Fig. 4).
        """
        translation = (
            sql if isinstance(sql, TranslationResult) else self.translate(sql, name)
        )
        use_stats = self.use_statistics
        if use_stats is None:
            use_stats = self.database.has_statistics()
        model = cost_model_from_database(translation, self.database, use_stats)
        # The aggregate term (future-work extension): when the SQL query
        # aggregates, charge the estimated answer size at the root so the
        # search prefers decompositions with smaller answers to aggregate.
        output_weight = 0.0
        if self.include_aggregates and translation.select_query.has_aggregates:
            output_weight = self.aggregate_weight
        started = time.perf_counter()
        # An internal meter captures the search's "plan" work units so the
        # plan can report its deterministic planning effort; callers that
        # pass no meter see identical charges to an uninstrumented build.
        planning_meter = WorkMeter()
        decomposition = q_hypertree_decomp(
            translation.query,
            self.max_width,
            cost_model=model,
            optimize=self.optimize_procedure,
            output_weight=output_weight,
            meter=planning_meter,
        )
        elapsed = time.perf_counter() - started
        return OptimizedPlan(
            translation=translation,
            decomposition=decomposition,
            database=self.database,
            decomposition_seconds=elapsed,
            used_statistics=use_stats,
            planning_work=planning_meter.total,
        )

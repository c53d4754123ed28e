"""The simulated DBMS façade: engine profiles, SQL entry point, handler hook.

Two profiles stand in for the paper's systems:

* :data:`COMMDB_PROFILE` — "a leader DBMS": bushy-tree exhaustive DP,
  no GEQO, low per-work-unit overhead.  Running it with
  ``optimizer_enabled=False`` reproduces the paper's "CommDB without its
  standard optimizer" baseline (syntactic join order, no predicate
  pushdown).
* :data:`POSTGRES_PROFILE` — PostgreSQL 8.3: left-deep DP below the GEQO
  threshold, genetic search above it, higher per-work-unit overhead.

The *optimizer handler* hook is the reproduction of Fig. 6: the tight
coupling (:func:`repro.core.integration.install_structural_optimizer`)
replaces the handler so queries are planned by cost-k-decomp instead of
the built-in join-order search — completely transparently to ``run_sql``
callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import WorkBudgetExceeded
from repro.engine.cost import Estimate, atom_estimates
from repro.engine.geqo import GeqoOptimizer
from repro.engine.optimizer import JoinOrderOptimizer, syntactic_plan
from repro.engine.plan import JoinNode, PlanNode, ScanNode, render_plan
from repro.engine.postprocess import apply_sql_semantics
from repro.engine.scans import apply_residual_filters, atom_relations_sql
from repro.metering import SpillModel, WorkMeter
from repro.obs.tracing import NullTracer, Tracer, current_tracer
from repro.resilience.context import current_context
from repro.query import ast
from repro.query.parser import parse_sql
from repro.query.translate import TranslationResult, sql_to_conjunctive
from repro.relational.database import Database
from repro.relational.relation import Relation

# An optimizer handler receives the DBMS, the translated query and the run's
# meter, and returns the conjunctive answer (variables covering out(Q)), a
# plan description for EXPLAIN, and the label of the planner that produced
# the plan ("q-hd", "q-hd(cached)", "builtin-fallback").
OptimizerHandler = Callable[
    ["SimulatedDBMS", TranslationResult, WorkMeter], Tuple[Relation, str, str]
]


@dataclass(frozen=True)
class EngineProfile:
    """Behavioural knobs of a simulated engine.

    Attributes:
        name: display name ("postgresql", "commdb").
        search: DP search space — ``"bushy"`` or ``"leftdeep"``.
        geqo_threshold: FROM-clause size at which the genetic optimizer
            replaces DP (None = never, like the commercial profile).
        work_time_factor: simulated seconds per work unit; models the
            engines' different per-tuple constants (the paper's PostgreSQL
            is markedly slower than CommDB on identical plans, cf. Fig. 9).
        geqo_generations / geqo_population: GA effort knobs.
        memory_tuples / spill_factor: memory-pressure model — intermediates
            larger than ``memory_tuples`` charge ``spill_factor`` extra
            work per overflowing tuple (the paper's 512 MB laptop spilling
            to a 5400 rpm disk).  None disables spilling.
        nlj_threshold: when a join input's estimated rows fall at or below
            this, nested loops replace the hash join (no build cost for
            tiny inputs).
    """

    name: str
    search: str = "bushy"
    geqo_threshold: Optional[int] = None
    work_time_factor: float = 1e-6
    geqo_generations: int = 40
    geqo_population: int = 32
    memory_tuples: Optional[int] = 20_000
    spill_factor: float = 10.0
    nlj_threshold: float = 4.0


POSTGRES_PROFILE = EngineProfile(
    name="postgresql",
    search="leftdeep",
    geqo_threshold=8,
    work_time_factor=4e-6,
)

COMMDB_PROFILE = EngineProfile(
    name="commdb",
    search="bushy",
    geqo_threshold=None,
    work_time_factor=1e-6,
)


@dataclass
class DBMSResult:
    """Outcome of one ``run_sql`` call.

    Attributes:
        relation: final SQL result (None when the run did not finish).
        answer: the conjunctive core's answer before post-processing.
        work: total work units; the machine-independent "time" measure.
        simulated_seconds: work × the profile's per-unit factor.
        elapsed_seconds: actual wall-clock duration.
        plan_text: EXPLAIN rendering of the executed plan.
        finished: False when the work budget was exhausted (DNF).
        used_statistics: whether the optimizer consulted ANALYZE data.
        optimizer: label of the planner that produced the plan
            ("dp-bushy", "dp-leftdeep", "geqo", "syntactic", "q-hd").
        work_breakdown: per-category work units (the run meter's
            :meth:`~repro.metering.WorkMeter.snapshot`); feed it to
            :func:`repro.metering.split_phases` for the per-phase view.
    """

    relation: Optional[Relation]
    answer: Optional[Relation]
    work: int
    simulated_seconds: float
    elapsed_seconds: float
    plan_text: str
    finished: bool
    used_statistics: bool
    optimizer: str
    work_breakdown: Dict[str, int] = field(default_factory=dict)


@dataclass
class AnalyzedExplain:
    """EXPLAIN ANALYZE output: the annotated tree plus everything behind it.

    Attributes:
        text: the rendered operator tree with per-node actual rows, work
            units, wall time, and estimation error, plus a totals footer.
        plan: the executed plan tree.
        result: the full :class:`DBMSResult` of the traced execution.
        node_stats: per-node observed stats keyed by ``id(node)``.
        tracer: the tracer holding the raw ``exec.*`` spans.
    """

    text: str
    plan: PlanNode
    result: DBMSResult
    node_stats: Dict[object, object]
    tracer: "Tracer"

    def __str__(self) -> str:
        return self.text


class SimulatedDBMS:
    """An instrumented DBMS over an in-memory :class:`Database`.

    Args:
        database: the stored data (+ statistics when analyzed).
        profile: behavioural profile (PostgreSQL-like or CommDB-like).
    """

    def __init__(self, database: Database, profile: EngineProfile = COMMDB_PROFILE):
        self.database = database
        self.profile = profile
        self.optimizer_handler: Optional[OptimizerHandler] = None
        self.spill_model: Optional[SpillModel] = None
        if profile.memory_tuples is not None:
            self.spill_model = SpillModel(
                profile.memory_tuples, profile.spill_factor
            )

    # ------------------------------------------------------------------
    # The Fig. 6 hook
    # ------------------------------------------------------------------

    def set_optimizer_handler(self, handler: Optional[OptimizerHandler]) -> None:
        """Install (or clear) a replacement optimizer handler.

        This is the modification the paper makes to PostgreSQL's
        *Optimizer handler* module: control no longer passes to the
        built-in planners but to the structural pipeline.
        """
        self.optimizer_handler = handler

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------

    def translate(
        self,
        sql: Union[str, ast.SelectQuery],
        name: str = "Q",
        work_budget: Optional[int] = None,
    ) -> TranslationResult:
        """Parse (if needed) and translate a query against this database.

        Uncorrelated IN-subqueries are flattened here: each subquery is
        executed once (through this engine, bypassing any structural
        handler) and replaced by the IN-list of its answers — so the
        conjunctive pipeline only ever sees flat queries.

        Args:
            work_budget: work-unit budget applied to subquery executions,
                so flattening cannot escape an outer query's budget.
        """
        from repro.query.subqueries import flatten_subqueries, has_subqueries

        query = parse_sql(sql) if isinstance(sql, str) else sql
        schema = self.database.schema.as_mapping()
        if has_subqueries(query):
            def run_subquery(subquery: ast.SelectQuery):
                result = self.run_sql(
                    subquery, bypass_handler=True, work_budget=work_budget
                )
                relation = result.relation
                if relation is None:
                    raise WorkBudgetExceeded(
                        work_budget or 0, result.work, phase="translate.subquery"
                    )
                return [row[0] for row in relation.tuples]

            query = flatten_subqueries(query, run_subquery, schema)
        return sql_to_conjunctive(query, schema, name=name)

    def run_sql(
        self,
        sql: Union[str, ast.SelectQuery, TranslationResult],
        use_statistics: Optional[bool] = None,
        optimizer_enabled: bool = True,
        work_budget: Optional[int] = None,
        bypass_handler: bool = False,
    ) -> DBMSResult:
        """Plan and execute a SQL query.

        Args:
            sql: SQL text, a parsed AST, or a pre-built translation.
            use_statistics: consult ANALYZE statistics; defaults to whether
                the database has them (a fresh database runs on magic
                defaults, like a real system before ANALYZE).
            optimizer_enabled: when False, run the syntactic baseline —
                FROM-order left-deep joins without predicate pushdown (the
                paper's "without its standard optimizer" mode).
            work_budget: abort after this many work units (DNF), the
                simulated "10-minute timeout".
            bypass_handler: ignore an installed structural handler (used by
                the tight coupling itself to delegate subproblems to the
                built-in engine).
        """
        translation = (
            sql
            if isinstance(sql, TranslationResult)
            else self.translate(sql, work_budget=work_budget)
        )
        # An installed handler is the optimizer (Fig. 6): it returns the same
        # (answer, plan, label) triple and reads the statistics mode itself.
        handler = None if bypass_handler else self.optimizer_handler
        if use_statistics is None or handler is not None:
            use_statistics = self.database.has_statistics()
        meter = WorkMeter(budget=work_budget)
        started = time.perf_counter()
        label = "q-hd"
        try:
            if handler is not None:
                answer, plan_text, label = handler(self, translation, meter)
            else:
                answer, plan_text, label = self.plan_and_join(
                    translation, meter, use_statistics, optimizer_enabled
                )
            final = apply_sql_semantics(answer, translation, meter)
            finished = True
        except WorkBudgetExceeded:
            answer, final, finished = None, None, False
            plan_text = "(aborted)"
            if handler is None:
                label = "aborted"
        elapsed = time.perf_counter() - started
        return DBMSResult(
            relation=final,
            answer=answer,
            work=meter.total,
            simulated_seconds=meter.total * self.profile.work_time_factor,
            elapsed_seconds=elapsed,
            plan_text=plan_text,
            finished=finished,
            used_statistics=use_statistics,
            optimizer=label,
            work_breakdown=meter.snapshot(),
        )

    def plan_and_join(
        self,
        translation: TranslationResult,
        meter: WorkMeter,
        use_statistics: bool,
        optimizer_enabled: bool,
    ) -> Tuple[Relation, str, str]:
        """Build and execute the join plan; returns (CQ answer, plan, label)."""
        estimates = atom_estimates(translation, self.database, use_statistics)
        push = optimizer_enabled
        base, residual = atom_relations_sql(
            translation.query, self.database, translation, meter, push_filters=push
        )

        plan, label = self._choose_plan(translation, estimates, optimizer_enabled)
        joined = self._execute_plan(plan, base, meter)
        if residual:
            joined = apply_residual_filters(joined, translation, residual, meter)
        output = list(translation.query.output)
        answer = joined.project(output, dedup=True, meter=meter)
        return answer, render_plan(plan), label

    def _choose_plan(
        self,
        translation: TranslationResult,
        estimates: Mapping[str, Estimate],
        optimizer_enabled: bool = True,
    ) -> Tuple[PlanNode, str]:
        """Run the profile's planner; returns (plan, planner label)."""
        n_relations = len(translation.query.atoms)
        if not optimizer_enabled:
            plan = syntactic_plan(translation, estimates)
            label = "syntactic"
        elif (
            self.profile.geqo_threshold is not None
            and n_relations >= self.profile.geqo_threshold
        ):
            plan = GeqoOptimizer(
                translation,
                estimates,
                population_size=self.profile.geqo_population,
                generations=self.profile.geqo_generations,
            ).optimize()
            label = "geqo"
        else:
            plan = JoinOrderOptimizer(
                translation, estimates, search=self.profile.search
            ).optimize()
            label = f"dp-{self.profile.search}"
        self._assign_join_algorithms(plan)
        return plan, label

    def _assign_join_algorithms(self, plan: PlanNode) -> None:
        """Pick a physical operator per join from the profile + estimates."""
        for node in plan.walk():
            if not isinstance(node, JoinNode):
                continue
            if not node.is_cross_product and (
                min(node.left.estimated_rows, node.right.estimated_rows)
                <= self.profile.nlj_threshold
            ):
                node.algorithm = "nlj"
            else:
                node.algorithm = "hash"  # natural_join handles the cross case

    def _execute_plan(
        self,
        plan: PlanNode,
        base: Mapping[str, Relation],
        meter: WorkMeter,
        tracer: "Optional[Union[Tracer, NullTracer]]" = None,
    ) -> Relation:
        if tracer is None:
            tracer = current_tracer()
        context = current_context()
        if isinstance(plan, ScanNode):
            context.checkpoint("exec.scan")
            with tracer.span(
                "exec.scan",
                meter=meter,
                node=id(plan),
                op=str(plan),
                est_rows=plan.estimated_rows,
            ) as span:
                relation = base[plan.alias]
                meter.charge(len(relation), "scan")
                span.tag(rows_out=len(relation))
            return relation
        assert isinstance(plan, JoinNode)
        context.checkpoint("exec.join")
        with tracer.span(
            "exec.join",
            meter=meter,
            node=id(plan),
            op=str(plan),
            algorithm=plan.algorithm,
            est_rows=plan.estimated_rows,
        ) as span:
            left = self._execute_plan(plan.left, base, meter, tracer)
            right = self._execute_plan(plan.right, base, meter, tracer)
            span.tag(rows_in_left=len(left), rows_in_right=len(right))
            if plan.algorithm == "nlj" and not plan.is_cross_product:
                small, big = (left, right) if len(left) <= len(right) else (right, left)
                joined = small.nested_loop_join(big, meter=meter)
            else:
                joined = left.natural_join(right, meter=meter)
            context.account(len(joined), len(joined.attributes), "exec.join")
            if self.spill_model is not None:
                self.spill_model.charge(meter, len(joined))
            span.tag(rows_out=len(joined))
        return joined

    # ------------------------------------------------------------------

    def explain(
        self,
        sql: Union[str, ast.SelectQuery, TranslationResult],
        use_statistics: Optional[bool] = None,
    ) -> str:
        """EXPLAIN without executing: render the chosen join plan."""
        translation = (
            sql if isinstance(sql, TranslationResult) else self.translate(sql)
        )
        if use_statistics is None:
            use_statistics = self.database.has_statistics()
        estimates = atom_estimates(translation, self.database, use_statistics)
        plan, _label = self._choose_plan(translation, estimates)
        return render_plan(plan)

    def explain_analyze(
        self,
        sql: Union[str, ast.SelectQuery, TranslationResult],
        use_statistics: Optional[bool] = None,
        work_budget: Optional[int] = None,
    ) -> "AnalyzedExplain":
        """EXPLAIN ANALYZE: execute the chosen plan under tracing.

        Plans exactly like :meth:`run_sql` with the built-in planner
        (ignoring any installed structural handler — the point is to show
        *this engine's* operator tree), executes it under a private
        :class:`~repro.obs.tracing.Tracer`, and returns the operator tree
        annotated with actual rows, work units, wall time, and the
        estimated-vs-actual cardinality error per node.
        """
        from repro.obs.explain import render_analyzed_plan, stats_by_node

        translation = (
            sql if isinstance(sql, TranslationResult) else self.translate(sql)
        )
        if use_statistics is None:
            use_statistics = self.database.has_statistics()
        estimates = atom_estimates(translation, self.database, use_statistics)
        plan, label = self._choose_plan(translation, estimates)

        tracer = Tracer()
        meter = WorkMeter(budget=work_budget)
        started = time.perf_counter()
        try:
            base, residual = atom_relations_sql(
                translation.query,
                self.database,
                translation,
                meter,
                push_filters=True,
            )
            joined = self._execute_plan(plan, base, meter, tracer)
            if residual:
                joined = apply_residual_filters(joined, translation, residual, meter)
            answer = joined.project(
                list(translation.query.output), dedup=True, meter=meter
            )
            final = apply_sql_semantics(answer, translation, meter)
            finished = True
        except WorkBudgetExceeded:
            answer, final, finished = None, None, False
        elapsed = time.perf_counter() - started
        result = DBMSResult(
            relation=final,
            answer=answer,
            work=meter.total,
            simulated_seconds=meter.total * self.profile.work_time_factor,
            elapsed_seconds=elapsed,
            plan_text=render_plan(plan),
            finished=finished,
            used_statistics=use_statistics,
            optimizer=label,
            work_breakdown=meter.snapshot(),
        )
        stats = stats_by_node(tracer.spans())
        text = render_analyzed_plan(plan, stats)
        footer = [
            "",
            f"planner: {label}   total work: {meter.total} units   "
            f"wall: {elapsed * 1000:.1f} ms",
        ]
        if final is not None:
            footer.append(
                f"answer rows: {len(final)}   "
                f"(conjunctive answer: {len(answer)} rows)"
            )
        else:
            footer.append("answer rows: DNF (work budget exhausted)")
        return AnalyzedExplain(
            text=text + "\n" + "\n".join(footer),
            plan=plan,
            result=result,
            node_stats=stats,
            tracer=tracer,
        )

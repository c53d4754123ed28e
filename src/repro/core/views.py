"""Stand-alone mode: rewrite a query as SQL views over its decomposition.

The paper's prototype, used on top of an external DBMS, "rewrites the user
query in a set of SQL views (based on its structural decomposition), which
can be evaluated on top of any DBMS" (§5).  This module produces exactly
that artifact:

* one ``CREATE VIEW`` per decomposition node (post-order): the view joins
  the node's λ relations with the node's child views, equates every shared
  CQ variable, applies the pushed-down constant filters, and projects
  (DISTINCT) onto χ(p);
* a final statement re-expressing the original SELECT (aggregates, GROUP
  BY, ORDER BY, LIMIT) over the root view.

The produced SQL stays inside this library's own SQL subset, so
:func:`execute_view_plan` can run the stack on a :class:`SimulatedDBMS` —
the self-contained equivalent of pointing the rewriting at CommDB.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import DecompositionError, QueryError, WorkBudgetExceeded
from repro.obs.tracing import current_tracer
from repro.resilience.context import current_context
from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.schema import AttributeType, RelationSchema
from repro.core.hypertree import Hypertree, HypertreeNode


@dataclass
class SqlViewPlan:
    """The rewritten query: ordered view definitions plus the final SELECT.

    Attributes:
        views: ``(view_name, select_sql)`` in dependency (post-)order.
        final_sql: the SELECT over the root view producing the SQL answer.
        root_view: the root view's name.
        variable_columns: CQ variable → column name used inside the views.
    """

    views: List[Tuple[str, str]]
    final_sql: str
    root_view: str
    variable_columns: Dict[str, str]

    def create_statements(self) -> List[str]:
        return [f"CREATE VIEW {name} AS {sql};" for name, sql in self.views]

    def drop_statements(self) -> List[str]:
        return [f"DROP VIEW {name};" for name, _ in reversed(self.views)]

    def render(self) -> str:
        """The full script: CREATE VIEWs then the final SELECT."""
        return "\n".join(self.create_statements() + [self.final_sql + ";"])


def _sanitize_variables(variables: Sequence[str]) -> Dict[str, str]:
    """Map CQ variables to valid, unique SQL column names."""
    mapping: Dict[str, str] = {}
    used: Dict[str, int] = {}
    for variable in sorted(variables):
        base = re.sub(r"[^A-Za-z0-9_]", "_", variable).strip("_").lower() or "v"
        if not base[0].isalpha():
            base = "v_" + base
        if base in used:
            used[base] += 1
            name = f"{base}_{used[base]}"
        else:
            used[base] = 0
            name = base
        mapping[variable] = name
    return mapping


def decomposition_to_sql_views(
    decomposition: Hypertree,
    translation: TranslationResult,
    view_prefix: str = "hdv",
) -> SqlViewPlan:
    """Rewrite the translated query as decomposition-driven SQL views.

    Args:
        decomposition: a q-hypertree decomposition of the translated query
            (root covering out(Q); every atom assigned to some λ).
        translation: the SQL→CQ translation context.
        view_prefix: prefix of generated view names.
    """
    with current_tracer().span(
        "views.generate",
        nodes=len(decomposition),
        width=decomposition.width,
    ) as span:
        plan = _build_view_plan(decomposition, translation, view_prefix)
        span.tag(views=len(plan.views))
    return plan


def _build_view_plan(
    decomposition: Hypertree,
    translation: TranslationResult,
    view_prefix: str,
) -> SqlViewPlan:
    variables = sorted(translation.variable_bindings)
    columns = _sanitize_variables(variables)
    views: List[Tuple[str, str]] = []

    def view_name(node: HypertreeNode) -> str:
        return f"{view_prefix}_{node.node_id}"

    context = current_context()

    def build(node: HypertreeNode) -> str:
        context.checkpoint("views.generate")
        for child in node.children:
            build(child)

        # Sources: λ atoms (base tables) and child views.
        sources: List[str] = []
        var_sources: Dict[str, List[str]] = {}
        for atom_name in node.lam:
            atom = translation.query.atom(atom_name)
            if atom.relation == atom_name:
                sources.append(atom.relation)
            else:
                sources.append(f"{atom.relation} {atom_name}")
            for variable in atom.terms:
                assert isinstance(variable, str)
                column = translation.variable_bindings[variable][atom_name]
                var_sources.setdefault(variable, []).append(f"{atom_name}.{column}")
        for child in node.children:
            sources.append(view_name(child))
            for variable in sorted(child.chi):
                var_sources.setdefault(variable, []).append(
                    f"{view_name(child)}.{columns[variable]}"
                )
        if not sources:
            raise DecompositionError(
                f"decomposition node {node.node_id} has neither λ atoms nor "
                "children; cannot express it as a view"
            )

        # Join conditions: equate every pair of carriers of a shared variable.
        conditions: List[str] = []
        for variable in sorted(var_sources):
            carriers = var_sources[variable]
            for other in carriers[1:]:
                conditions.append(f"{carriers[0]} = {other}")

        # Constant filters of the λ atoms (idempotent across views).
        for atom_name in node.lam:
            for comparison in translation.atom_filters.get(atom_name, ()):
                conditions.append(_render_filter(comparison, atom_name))

        # Projection: χ(p), each variable from its first carrier.
        select_parts: List[str] = []
        for variable in sorted(node.chi):
            if variable not in var_sources:
                raise DecompositionError(
                    f"variable {variable!r} of χ({node.node_id}) is carried by "
                    "no λ atom or child view — invalid decomposition"
                )
            select_parts.append(f"{var_sources[variable][0]} AS {columns[variable]}")

        sql = "SELECT DISTINCT " + ", ".join(select_parts)
        sql += " FROM " + ", ".join(sources)
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        views.append((view_name(node), sql))
        return view_name(node)

    root_view = build(decomposition.root)
    final_sql = _final_select(translation, root_view, columns)
    return SqlViewPlan(
        views=views,
        final_sql=final_sql,
        root_view=root_view,
        variable_columns=columns,
    )


def _render_filter(comparison, alias: str) -> str:
    """Render a constant filter with alias-qualified column references."""

    def render(expression: ast.Expression) -> str:
        if isinstance(expression, ast.ColumnRef):
            return f"{alias}.{expression.column}"
        if isinstance(expression, ast.Literal):
            return str(expression)
        if isinstance(expression, ast.BinaryOp):
            return (
                f"({render(expression.left)} {expression.op} "
                f"{render(expression.right)})"
            )
        raise QueryError(f"unsupported expression in filter: {expression}")

    if isinstance(comparison, ast.InList):
        inner = ", ".join(str(ast.Literal(v)) for v in comparison.values)
        return f"{render(comparison.expr)} IN ({inner})"
    return f"{render(comparison.left)} {comparison.op} {render(comparison.right)}"


def _final_select(
    translation: TranslationResult,
    root_view: str,
    columns: Mapping[str, str],
) -> str:
    """The original SELECT re-targeted at the root view."""
    query = translation.select_query

    def rewrite(expression: ast.Expression) -> ast.Expression:
        if isinstance(expression, ast.ColumnRef):
            variable = translation.resolve_variable(expression)
            return ast.ColumnRef(None, columns[variable])
        if isinstance(expression, ast.BinaryOp):
            return ast.BinaryOp(
                expression.op, rewrite(expression.left), rewrite(expression.right)
            )
        if isinstance(expression, ast.FuncCall):
            return ast.FuncCall(
                expression.name,
                tuple(
                    arg if isinstance(arg, ast.Star) else rewrite(arg)
                    for arg in expression.args
                ),
                distinct=expression.distinct,
            )
        return expression

    select_items = tuple(
        ast.SelectItem(rewrite(item.expr), item.alias or item.output_name)
        for item in query.select_items
        if not isinstance(item.expr, ast.Star)
    ) or (ast.SelectItem(ast.Star()),)
    group_by = tuple(
        ast.ColumnRef(None, columns[translation.resolve_variable(ref)])
        for ref in query.group_by
    )
    order_by = tuple(
        ast.OrderItem(_rewrite_order_expr(o.expr, translation, columns, query), o.descending)
        for o in query.order_by
    )
    rewritten = ast.SelectQuery(
        select_items=select_items,
        tables=(ast.TableRef(root_view, root_view),),
        predicates=(),
        group_by=group_by,
        order_by=order_by,
        distinct=query.distinct,
        limit=query.limit,
    )
    return rewritten.to_sql()


def _rewrite_order_expr(
    expression: ast.Expression,
    translation: TranslationResult,
    columns: Mapping[str, str],
    query: ast.SelectQuery,
) -> ast.Expression:
    if isinstance(expression, ast.ColumnRef):
        alias_names = {item.output_name for item in query.select_items}
        if expression.table is None and expression.column in alias_names:
            return ast.ColumnRef(None, expression.column)
        variable = translation.resolve_variable(expression)
        return ast.ColumnRef(None, columns[variable])
    raise QueryError(f"ORDER BY supports plain columns/aliases, got {expression}")


def execute_view_plan(
    view_plan: SqlViewPlan,
    dbms,
    work_budget: "Optional[int]" = None,
) -> "DBMSResultLike":
    """Run the view stack on a :class:`repro.engine.dbms.SimulatedDBMS`.

    Materializes each view (in dependency order) as a temporary table, runs
    the final SELECT, then drops the temporaries.  Work units across all
    statements are summed — this is what the paper's stand-alone "q-HD on
    top of CommDB" total execution time measures (optimization time plus
    DBMS evaluation time).

    Args:
        work_budget: total work-unit budget across *all* statements; each
            statement runs under the remaining balance, so the stack aborts
            mid-view (raising :class:`~repro.errors.WorkBudgetExceeded`
            with the cumulative spend) rather than enforcing the budget
            only at statement boundaries.
    """
    context = current_context()
    created: List[str] = []
    total_work = 0
    total_elapsed = 0.0

    def run(sql: str):
        # One budget step per statement, views and final SELECT alike.
        nonlocal total_work, total_elapsed
        context.checkpoint("views.execute")
        remaining = None
        if work_budget is not None:
            remaining = work_budget - total_work
            if remaining <= 0:
                raise WorkBudgetExceeded(
                    work_budget, total_work, phase="views.execute"
                )
        result = dbms.run_sql(sql, bypass_handler=True, work_budget=remaining)
        total_work += result.work
        total_elapsed += result.elapsed_seconds
        if not result.finished:
            raise WorkBudgetExceeded(work_budget, total_work, phase="views.execute")
        return result

    try:
        for name, sql in view_plan.views:
            relation = run(sql).relation
            if relation is None:
                raise QueryError(f"view {name} did not finish")
            schema = RelationSchema.of(
                name,
                {attr: AttributeType.STRING for attr in relation.attributes},
            )
            dbms.database.create_table(schema, relation.tuples)
            created.append(name)
        final = run(view_plan.final_sql)
        final.work = total_work
        final.elapsed_seconds = total_elapsed
        final.simulated_seconds = total_work * dbms.profile.work_time_factor
        return final
    finally:
        for name in reversed(created):
            dbms.database.drop_table(name)

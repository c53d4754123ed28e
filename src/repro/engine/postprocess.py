"""SQL post-processing: step (4) of the paper's evaluation pipeline.

The conjunctive core yields an answer relation over CQ variables.  This
module applies everything SQL layers on top: SELECT expressions (including
arithmetic inside aggregates, e.g. ``sum(l_extendedprice*(1-l_discount))``),
GROUP BY, DISTINCT, ORDER BY and LIMIT.  By Definition 2, out(Q) contains
every variable the aggregates touch, so post-processing never needs the
base tables again.

Note on semantics: the conjunctive answer is a *set* (classical CQ
semantics, which the paper's method computes); aggregates therefore run
over distinct variable bindings.  Baseline engine runs are post-processed
through this same module, so all compared systems share the semantics.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.errors import ExecutionError, QueryError
from repro.engine.expressions import compile_rows
from repro.metering import NULL_METER, WorkMeter
from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.relation import Relation, _project_rows


def apply_sql_semantics(
    answer: Relation,
    translation: TranslationResult,
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """Turn the CQ answer relation into the SQL query's result.

    Args:
        answer: relation over CQ variable names, covering out(Q).
        translation: the SQL→CQ translation context.

    Returns:
        Relation whose attributes are the SELECT output names, ordered,
        grouped, aggregated, de-duplicated and limited as the SQL asks.
    """
    query = translation.select_query

    def resolve(ref: ast.ColumnRef) -> int:
        variable = translation.resolve_variable(ref)
        return answer.index_of(variable)

    if query.has_aggregates or query.group_by:
        result = _aggregate(answer, translation, resolve, meter)
    else:
        result = _plain_select(answer, translation, resolve, meter)

    if query.distinct:
        result = result.distinct(meter=meter)
    if query.order_by:
        result = _order(result, translation, meter)
    if query.limit is not None:
        result = result.limit(query.limit)
    return result


# ---------------------------------------------------------------------------


def _plain_select(
    answer: Relation,
    translation: TranslationResult,
    resolve: Callable[[ast.ColumnRef], int],
    meter: WorkMeter,
) -> Relation:
    query = translation.select_query
    if any(isinstance(item.expr, ast.Star) for item in query.select_items):
        # SELECT *: keep every answer column under its variable name.
        return answer.copy()
    select = compile_rows([item.expr for item in query.select_items], resolve)
    meter.charge(len(answer), "postprocess")
    names = _dedupe_names([item.output_name for item in query.select_items])
    return Relation(names, select(answer.tuples), name="answer")


def _aggregate(
    answer: Relation,
    translation: TranslationResult,
    resolve: Callable[[ast.ColumnRef], int],
    meter: WorkMeter,
) -> Relation:
    query = translation.select_query

    # Group keys are CQ variables.
    group_vars = [translation.resolve_variable(ref) for ref in query.group_by]

    # Collect aggregate calls and pre-compute their argument expressions as
    # derived columns (supports arithmetic inside the aggregate).
    agg_specs: List[Tuple[str, Optional[str], str]] = []
    derived_names: List[str] = []
    derived: List[ast.Expression] = []
    select_plan: List[Tuple[str, object]] = []  # ("group", var) | ("agg", out)

    for index, item in enumerate(query.select_items):
        expr = item.expr
        out_name = item.output_name
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            if len(expr.args) != 1:
                raise QueryError(f"aggregate {expr.name} takes exactly one argument")
            arg = expr.args[0]
            if isinstance(arg, ast.Star):
                agg_specs.append(("count", None, out_name))
            else:
                column = f"__agg_arg_{index}"
                derived_names.append(column)
                derived.append(arg)
                agg_specs.append((expr.name, column, out_name))
            select_plan.append(("agg", out_name))
        elif isinstance(expr, ast.ColumnRef):
            variable = translation.resolve_variable(expr)
            if variable not in group_vars:
                raise QueryError(
                    f"column {expr} must appear in GROUP BY to be selected "
                    "alongside aggregates"
                )
            select_plan.append(("group", (variable, out_name)))
        else:
            raise QueryError(
                "only plain columns and aggregate calls are supported in an "
                f"aggregated SELECT list, got: {expr}"
            )

    # Extend the answer with the derived aggregate-argument columns.
    extend = compile_rows(derived, resolve, extend=True)
    meter.charge(len(answer), "postprocess")
    extended_attrs = list(answer.attributes) + derived_names
    extended = Relation(extended_attrs, extend(answer.tuples))

    grouped = extended.group_aggregate(group_vars, agg_specs, meter=meter)

    # Reorder/rename to the SELECT list's shape.
    out_names: List[str] = []
    indices: List[int] = []
    for kind, payload in select_plan:
        if kind == "group":
            variable, out_name = payload  # type: ignore[misc]
            indices.append(grouped.index_of(variable))
            out_names.append(out_name)
        else:
            indices.append(grouped.index_of(payload))  # type: ignore[arg-type]
            out_names.append(payload)  # type: ignore[arg-type]
    rows = list(_project_rows(grouped.tuples, indices))
    return Relation(_dedupe_names(out_names), rows, name="answer")


def _order(
    result: Relation,
    translation: TranslationResult,
    meter: WorkMeter,
) -> Relation:
    query = translation.select_query
    keys: List[Tuple[str, bool]] = []
    for order_item in query.order_by:
        expr = order_item.expr
        if not isinstance(expr, ast.ColumnRef):
            raise QueryError(f"ORDER BY supports plain columns/aliases, got {expr}")
        # An ORDER BY key is either a SELECT output name (alias) or a column.
        if expr.table is None and result.has_attribute(expr.column):
            keys.append((expr.column, order_item.descending))
            continue
        alias_names = {
            item.output_name for item in query.select_items
        }
        if expr.table is None and expr.column in alias_names:
            keys.append((expr.column, order_item.descending))
            continue
        variable = translation.resolve_variable(expr)
        if not result.has_attribute(variable):
            # A column selected plain is ordered by under its output name,
            # e.g. ``n.k`` under ``k``, an alias, or a deduplicated ``k_1``.
            selected = [
                position
                for position, item in enumerate(query.select_items)
                if isinstance(item.expr, ast.ColumnRef)
                and translation.resolve_variable(item.expr) == variable
            ]
            if not selected:
                raise QueryError(
                    f"ORDER BY column {expr} is not part of the SELECT output"
                )
            variable = result.attributes[selected[0]]
        keys.append((variable, order_item.descending))
    return result.sort_by(keys, meter=meter)


def _dedupe_names(names: Sequence[str]) -> List[str]:
    """Make output column names unique (SQL allows duplicate select names):
    a repeat becomes ``name_k``, the least ``k ≥ 1`` no other name uses."""
    taken = set(names)
    seen: Set[str] = set()
    unique: List[str] = []
    for name in names:
        if name in seen:
            suffix = 1
            while f"{name}_{suffix}" in taken:
                suffix += 1
            name = f"{name}_{suffix}"
            taken.add(name)
        seen.add(name)
        unique.append(name)
    return unique

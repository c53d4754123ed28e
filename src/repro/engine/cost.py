"""Cardinality estimation, shared by both optimizers.

One estimate type (:class:`Estimate`), one :func:`join` and one per-atom
builder (:func:`atom_estimates`) serve

* the engine's join-order optimizers — the dynamic program of
  :mod:`repro.engine.optimizer`, :mod:`repro.engine.geqo` and the
  syntactic plan, planned by :mod:`repro.engine.dbms` (the paper's
  quantitative baseline); and
* the decomposition cost model that weighs cost-k-decomp's candidates
  (:class:`repro.core.costmodel.DecompositionCostModel`, built by
  :func:`repro.core.optimizer.cost_model_from_database`).

The textbook estimators [Garcia-Molina et al.; Ioannidis]:

* equality filter: 1 / V(R, a); IN over n distinct constants: n / V(R, a);
* range filter: fraction of the [min, max] span when extrema are known,
  otherwise the standard 1/3 default;
* join: |R ⋈ S| = |R|·|S| / Π max(V(R,a), V(S,a)) over shared variables.

Without statistics (the paper's "statistics not yet available" scenario)
the two optimizers fall back differently; :func:`atom_estimates` states
both rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.relational.statistics import TableStatistics

#: Distinct count per variable of an atom the engine has no statistics for.
DEFAULT_DISTINCT = 200.0
#: The decomposition model's purely structural estimates
#: (:meth:`repro.core.costmodel.DecompositionCostModel.uniform`);
#: :func:`join` also reads ``UNIFORM_DISTINCT`` for a shared variable an
#: estimate carries no distinct count for.
UNIFORM_ROWS = 1000.0
UNIFORM_DISTINCT = 100.0
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.995
DEFAULT_LIKE_SELECTIVITY = 0.1

#: The operator that reads the same with its operands swapped.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class Estimate:
    """Estimated rows and per-variable distinct counts of a relation: a
    filtered base relation or an intermediate join result."""

    rows: float
    distinct: Dict[str, float]


def atom_estimates(
    translation: TranslationResult,
    database: Database,
    use_statistics: bool,
    whole_query_fallback: bool = False,
) -> Optional[Dict[str, Estimate]]:
    """One :class:`Estimate` per atom of a translated query.

    An atom *has statistics* when ``use_statistics`` is set and its relation
    was analyzed: its estimate is the analyzed row count times
    :func:`filters_selectivity` of its pushed-down filters, with the
    analyzed distinct counts.  An atom without statistics is where the two
    optimizers differ:

    * the engine's optimizers (the default) estimate that atom alone from
      what a DBMS knows before ANALYZE — the physical row count and
      :data:`DEFAULT_DISTINCT` per variable, filters at their default
      selectivities.  This is what makes the no-statistics optimizer favour
      spurious low-key joins;
    * the decomposition model (``whole_query_fallback``) gets None: it falls
      back to its uniform model (:data:`UNIFORM_ROWS`,
      :data:`UNIFORM_DISTINCT`) for the whole query.

    Rows are at least 1; distinct counts are clamped to [1, rows].
    """
    estimates: Dict[str, Estimate] = {}
    for atom in translation.query.atoms:
        alias = atom.name
        stats = database.stats_for(atom.relation) if use_statistics else None
        if stats is not None:
            rows = float(stats.row_count)
            distinct = {
                v: float(stats.distinct(translation.variable_bindings[v][alias]))
                for v in atom.variables
            }
        elif whole_query_fallback:
            return None
        else:
            rows = float(len(database.table(atom.relation)))
            distinct = {v: DEFAULT_DISTINCT for v in atom.variables}
        selectivity = filters_selectivity(
            translation.atom_filters.get(alias, ()), stats
        )
        rows = max(rows * selectivity, 1.0)
        estimates[alias] = Estimate(
            rows, {v: max(min(d, rows), 1.0) for v, d in distinct.items()}
        )
    return estimates


def join(left: Estimate, right: Estimate, shared_variables: Iterable[str]) -> Estimate:
    """Textbook natural-join estimate over the shared variables."""
    # The planners' innermost loop: the clamps and the two-argument
    # ``min``/``max`` are spelled out as comparisons that pick the same
    # operand the builtins would, so every float is unchanged.
    left_rows, left_distinct = left.rows, left.distinct
    right_rows, right_distinct = right.rows, right.distinct
    size = left_rows * right_rows
    for variable in shared_variables:
        ours = left_distinct.get(variable, UNIFORM_DISTINCT)
        if left_rows < ours:
            ours = left_rows
        if 1.0 > ours:
            ours = 1.0
        theirs = right_distinct.get(variable, UNIFORM_DISTINCT)
        if right_rows < theirs:
            theirs = right_rows
        if 1.0 > theirs:
            theirs = 1.0
        size /= theirs if theirs > ours else ours
    size = max(size, 0.0)
    # ``left``'s variables, then ``right``'s unseen ones — never a set's
    # order (string hashing): ``project`` multiplies in this order.
    distinct: Dict[str, float] = {}
    for variable, estimate in left_distinct.items():
        if variable in right_distinct:
            other = right_distinct[variable]
            if other < estimate:
                estimate = other
        if size < estimate:
            estimate = size
        distinct[variable] = 1.0 if 1.0 > estimate else estimate
    for variable, estimate in right_distinct.items():
        if variable not in left_distinct:
            if size < estimate:
                estimate = size
            distinct[variable] = 1.0 if 1.0 > estimate else estimate
    return Estimate(size, distinct)


def filters_selectivity(
    filters: Tuple[ast.Comparison, ...],
    stats: Optional[TableStatistics],
) -> float:
    """Combined selectivity of pushed-down constant filters."""
    selectivity = 1.0
    for comparison in filters:
        selectivity *= _one_filter_selectivity(comparison, stats)
    return max(selectivity, 1e-9)


def _one_filter_selectivity(
    comparison, stats: Optional[TableStatistics]
) -> float:
    if isinstance(comparison, ast.InList):
        # IN over n distinct constants ≈ n equality predicates, capped at 1.
        column = (
            comparison.expr.column
            if isinstance(comparison.expr, ast.ColumnRef)
            else None
        )
        if stats is not None and column is not None and stats.has_attribute(column):
            per_value = stats.attribute(column).selectivity
        else:
            per_value = DEFAULT_EQ_SELECTIVITY
        return min(len(set(comparison.values)) * per_value, 1.0)
    op = comparison.op
    column = None
    constant = None
    if isinstance(comparison.left, ast.ColumnRef) and isinstance(
        comparison.right, ast.Literal
    ):
        column, constant = comparison.left.column, comparison.right.value
    elif isinstance(comparison.right, ast.ColumnRef) and isinstance(
        comparison.left, ast.Literal
    ):
        # ``10 > r.a`` is ``r.a < 10``.
        column, constant = comparison.right.column, comparison.left.value
        op = _MIRRORED.get(op, op)

    if op == "=":
        if stats is not None and column is not None and stats.has_attribute(column):
            return stats.attribute(column).selectivity
        return DEFAULT_EQ_SELECTIVITY
    if op == "like":
        return DEFAULT_LIKE_SELECTIVITY
    if op == "<>":
        if stats is not None and column is not None and stats.has_attribute(column):
            return 1.0 - stats.attribute(column).selectivity
        return DEFAULT_NEQ_SELECTIVITY
    # Range operators: interpolate on [min, max] when extrema are known.
    if (
        stats is not None
        and column is not None
        and stats.has_attribute(column)
        and constant is not None
    ):
        attr = stats.attribute(column)
        fraction = _range_fraction(attr.min_value, attr.max_value, constant)
        if fraction is not None:
            if op in ("<", "<="):
                return min(max(fraction, 0.0), 1.0)
            return min(max(1.0 - fraction, 0.0), 1.0)
    return DEFAULT_RANGE_SELECTIVITY


def _range_fraction(
    minimum: Optional[object], maximum: Optional[object], value: object
) -> Optional[float]:
    """Fraction of the [min, max] span below ``value`` (numeric/date)."""
    if minimum is None or maximum is None:
        return None
    if isinstance(minimum, (int, float)) and isinstance(maximum, (int, float)):
        if not isinstance(value, (int, float)) or maximum <= minimum:
            return None
        return (float(value) - float(minimum)) / (float(maximum) - float(minimum))
    if isinstance(minimum, str) and isinstance(maximum, str) and isinstance(value, str):
        # ISO dates compare lexicographically; interpolate on ordinals of the
        # first differing component is overkill — use a coarse 3-point scale.
        if value <= minimum:
            return 0.0
        if value >= maximum:
            return 1.0
        lo = _date_ordinal(minimum)
        hi = _date_ordinal(maximum)
        mid = _date_ordinal(value)
        if lo is not None and hi is not None and mid is not None and hi > lo:
            return (mid - lo) / (hi - lo)
        return 0.5
    return None


def _date_ordinal(text: str) -> Optional[int]:
    try:
        year, month, day = text.split("-")
        return int(year) * 372 + int(month) * 31 + int(day)
    except (ValueError, AttributeError):
        return None

"""Cardinality estimation for the simulated DBMS's quantitative optimizer.

Implements the same textbook estimators as
:mod:`repro.core.costmodel` (deliberately duplicated: the engine substrate
must not depend on the paper's contribution layer):

* equality filter: 1 / V(R, a);
* range filter: fraction of the [min, max] span when extrema are known,
  otherwise the standard 1/3 default;
* join: |R ⋈ S| = |R|·|S| / Π max(V(R,a), V(S,a)) over shared variables.

With ``use_statistics=False`` the estimator falls back to the magic
defaults a freshly-loaded DBMS would use (the paper's "statistics not yet
available" scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import OptimizationError, SchemaError
from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.relational.statistics import TableStatistics

DEFAULT_ROWS = 1000.0
DEFAULT_DISTINCT = 200.0
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_NEQ_SELECTIVITY = 0.995
DEFAULT_LIKE_SELECTIVITY = 0.1


@dataclass
class AliasEstimate:
    """Estimated cardinality and per-variable distincts of one base scan."""

    rows: float
    distinct: Dict[str, float] = field(default_factory=dict)

    def distinct_of(self, variable: str) -> float:
        value = self.distinct.get(variable, DEFAULT_DISTINCT)
        return max(min(value, max(self.rows, 1.0)), 1.0)


@dataclass
class JoinSizeEstimate:
    """Estimated size/distincts of an intermediate join result."""

    rows: float
    distinct: Dict[str, float]

    def distinct_of(self, variable: str) -> float:
        value = self.distinct.get(variable, DEFAULT_DISTINCT)
        return max(min(value, max(self.rows, 1.0)), 1.0)


class EstimationContext:
    """Per-query estimation state: one :class:`AliasEstimate` per alias.

    Built from a translation result plus the database's statistics catalog.
    Filter selectivities are applied to the base estimates, mirroring what
    the real optimizer sees after predicate pushdown.
    """

    def __init__(self, estimates: Mapping[str, AliasEstimate]):
        self.estimates: Dict[str, AliasEstimate] = dict(estimates)

    @classmethod
    def build(
        cls,
        translation: TranslationResult,
        database: Database,
        use_statistics: bool,
    ) -> "EstimationContext":
        estimates: Dict[str, AliasEstimate] = {}
        for atom in translation.query.atoms:
            alias = atom.name
            stats = database.stats_for(atom.relation) if use_statistics else None
            if stats is not None:
                rows = float(max(stats.row_count, 1))
                distinct = {}
                for variable in atom.variables:
                    column = translation.variable_bindings[variable][alias]
                    distinct[variable] = float(stats.distinct(column))
            else:
                # A real DBMS knows physical table sizes (relpages) even
                # before ANALYZE; what it lacks are distinct counts and
                # value distributions.  This is exactly what makes the
                # no-statistics optimizer favour spurious low-key joins.
                try:
                    rows = float(max(len(database.table(atom.relation)), 1))
                except SchemaError:  # pragma: no cover - missing table
                    rows = DEFAULT_ROWS
                distinct = {v: DEFAULT_DISTINCT for v in atom.variables}
            selectivity = filters_selectivity(
                translation.atom_filters.get(alias, ()), stats
            )
            rows = max(rows * selectivity, 1.0)
            distinct = {
                v: max(min(d, rows), 1.0) for v, d in distinct.items()
            }
            estimates[alias] = AliasEstimate(rows=rows, distinct=distinct)
        return cls(estimates)

    def for_alias(self, alias: str) -> AliasEstimate:
        try:
            return self.estimates[alias]
        except KeyError:
            raise OptimizationError(f"no estimate for alias {alias!r}") from None


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
        # IN over n constants ≈ n equality predicates, capped at 1.
        column = (
            comparison.expr.column
            if isinstance(comparison.expr, ast.ColumnRef)
            else None
        )
        if stats is not None and column is not None and stats.has_attribute(column):
            per_value = stats.attribute(column).selectivity
        else:
            per_value = DEFAULT_EQ_SELECTIVITY
        return min(len(comparison.values) * per_value, 1.0)
    column = None
    constant = None
    if isinstance(comparison.left, ast.ColumnRef) and isinstance(
        comparison.right, ast.Literal
    ):
        column, constant = comparison.left.column, comparison.right.value
    elif isinstance(comparison.right, ast.ColumnRef) and isinstance(
        comparison.left, ast.Literal
    ):
        column, constant = comparison.right.column, comparison.left.value

    if comparison.op == "=":
        if stats is not None and column is not None and stats.has_attribute(column):
            return stats.attribute(column).selectivity
        return DEFAULT_EQ_SELECTIVITY
    if comparison.op == "like":
        return DEFAULT_LIKE_SELECTIVITY
    if comparison.op == "<>":
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
            if comparison.op in ("<", "<="):
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


class CardinalityEstimator:
    """Join-size estimation over an :class:`EstimationContext`."""

    def __init__(self, context: EstimationContext):
        self.context = context

    def scan(self, alias: str) -> JoinSizeEstimate:
        estimate = self.context.for_alias(alias)
        return JoinSizeEstimate(estimate.rows, dict(estimate.distinct))

    @staticmethod
    def join(
        left: JoinSizeEstimate,
        right: JoinSizeEstimate,
        shared_variables: Tuple[str, ...],
    ) -> JoinSizeEstimate:
        rows = left.rows * right.rows
        for variable in shared_variables:
            rows /= max(left.distinct_of(variable), right.distinct_of(variable))
        distinct: Dict[str, float] = {}
        # ``left``'s variables, then ``right``'s unseen ones — never a
        # set's order, which follows string hashing.
        for variable in dict.fromkeys((*left.distinct, *right.distinct)):
            if variable in left.distinct and variable in right.distinct:
                value = min(left.distinct[variable], right.distinct[variable])
            else:
                value = left.distinct.get(
                    variable, right.distinct.get(variable, DEFAULT_DISTINCT)
                )
            distinct[variable] = max(min(value, max(rows, 1.0)), 1.0)
        return JoinSizeEstimate(max(rows, 0.0), distinct)

"""Base-scan construction: query atoms → variable-named relations.

Shared by the simulated DBMS executor and the decomposition evaluators.
Two binding modes:

* **SQL mode** (with a :class:`repro.query.translate.TranslationResult`):
  each FROM alias's stored relation gets its pushed-down constant filters
  and intra-relation equalities applied, then is projected/renamed onto the
  CQ variables it carries;
* **positional mode** (direct conjunctive queries): atom terms bind
  positionally to relation attributes; constant terms become equality
  filters, repeated variables become intra-relation equalities.

``push_filters=False`` reproduces the *optimizer disabled* baseline: scans
stay unfiltered and the constant predicates are returned as residual
predicates to apply after the joins (the naive evaluation order).

Both modes run one pipeline (:func:`_scan`): the base table's row list is
narrowed filter by filter, then projected once onto the atom's columns —
for a column set no two stored rows share, lazily, through a column map.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, QueryError
from repro.engine.expressions import _COMPARATORS, Resolver, compile_filter, like_regex
from repro.metering import NULL_METER, WorkMeter
from repro.query import ast
from repro.query.conjunctive import ConjunctiveQuery, Constant
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.relational.relation import Relation, row_selector
from repro.resilience.context import current_context

Row = Tuple[object, ...]


def _operand(
    expression: ast.Expression, rows: List[Row], resolve: Resolver
) -> Optional[Iterable[object]]:
    """A column's or a literal's value for each row, as a C-level iterator."""
    if isinstance(expression, ast.ColumnRef):
        return map(itemgetter(resolve(expression)), rows)
    if isinstance(expression, ast.Literal):
        return repeat(expression.value)
    return None


def _narrow(
    rows: List[Row], predicate: "ast.Comparison | ast.InList", resolve: Resolver
) -> List[Row]:
    """The rows that pass one filter, in order, in one pass.

    ``column op literal``, ``column LIKE literal`` and ``column IN (…)`` are
    one comprehension with the test inline; any other comparison between
    columns and literals is one ``compress`` over C-level maps, operands in
    their written order.  Neither makes a Python call per row.  The rest —
    arithmetic, LIKE with a computed pattern — is :func:`compile_filter`'s
    per-row closure.
    """
    if isinstance(predicate, ast.InList):
        if isinstance(predicate.expr, ast.ColumnRef):
            index, values = resolve(predicate.expr), frozenset(predicate.values)
            return [r for r in rows if r[index] in values]
    elif isinstance(predicate, ast.Comparison):
        op, left, right = predicate.op, predicate.left, predicate.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            index = resolve(left)
            if op != "like":
                return row_selector(op)(rows, index, right.value)
            like = like_regex(right.value).fullmatch
            return [r for r in rows if isinstance(r[index], str) and like(r[index])]
        if op != "like":
            sides = [_operand(side, rows, resolve) for side in (left, right)]
            if None not in sides:
                return list(compress(rows, map(_COMPARATORS[op], *sides)))
    keep = compile_filter(predicate, resolve)
    return [r for r in rows if keep(r)]


def _scan(
    base: Relation,
    alias: str,
    predicates: Sequence["ast.Comparison | ast.InList"],
    columns: Sequence[str],
    variables: Sequence[str],
    dedup: bool,
) -> Relation:
    """The scan pipeline both modes run: narrow ``base``'s row list filter
    by filter, in order — a later filter sees only what the earlier ones
    kept — then project once onto ``columns``, named ``variables``.  Where
    ``base``'s rows rule duplicates out, the projection is neither
    deduplicated nor copied: the result reads the kept rows themselves
    (:meth:`Relation.scan`)."""

    def resolve(ref: ast.ColumnRef) -> int:
        if ref.table is not None and ref.table != alias:
            raise ExecutionError(
                f"filter for alias {alias!r} references {ref.table!r}"
            )
        return base.index_of(ref.column)

    rows = base.tuples
    for predicate in predicates:
        try:
            rows = _narrow(rows, predicate, resolve)
        except TypeError as exc:
            raise ExecutionError(f"type error evaluating {predicate}: {exc}") from exc
    return base.scan(rows, columns, variables, alias, dedup)


def _columns_equal(left: str, right: str) -> ast.Comparison:
    return ast.Comparison("=", ast.ColumnRef(None, left), ast.ColumnRef(None, right))


def atom_relations(
    query: ConjunctiveQuery,
    database: Database,
    translation: Optional[TranslationResult] = None,
    meter: WorkMeter = NULL_METER,
) -> Dict[str, Relation]:
    """Build per-atom base relations with filters pushed down."""
    if translation is not None:
        relations, _residual = atom_relations_sql(
            query, database, translation, meter, push_filters=True
        )
        return relations
    return atom_relations_positional(query, database, meter)


def atom_relations_sql(
    query: ConjunctiveQuery,
    database: Database,
    translation: TranslationResult,
    meter: WorkMeter = NULL_METER,
    push_filters: bool = True,
) -> Tuple[Dict[str, Relation], List[Callable[[Row], bool]]]:
    """SQL-mode base scans.

    Returns ``(relations, residual_predicates)``; the residual list is
    empty when filters are pushed down.  Residual predicates operate on
    rows of a relation whose attributes are CQ variables — they are meant
    to be applied on the final join result (the naive baseline).
    """
    context = current_context()
    relations: Dict[str, Relation] = {}
    residual: List[Callable[[Row], bool]] = []

    for atom in query.atoms:
        context.checkpoint("exec.scan")
        alias = atom.name
        base = database.table(atom.relation)
        meter.charge(len(base), "scan")

        predicates = list(translation.atom_filters.get(alias, ()))
        if not push_filters:
            # They reference CQ variables of the joined result instead.
            residual += [_residual_predicate(translation, p) for p in predicates]
            predicates = []
        predicates += [
            _columns_equal(left, right)
            for left, right in translation.intra_atom_equalities.get(alias, ())
        ]
        columns = [translation.variable_bindings[v][alias] for v in atom.terms]
        relations[alias] = _scan(
            base, alias, predicates, columns, atom.terms, dedup=push_filters
        )

    return relations, residual


def _residual_predicate(
    translation: TranslationResult, comparison: ast.Comparison
) -> Callable[[Row], bool]:
    """A predicate over join-result rows; ``predicate.bind(relation)``
    compiles it against that relation's attribute positions before use."""
    compiled: List[Callable[[Row], bool]] = []

    def predicate(row: Row) -> bool:
        if not compiled:
            raise ExecutionError("residual predicate not bound to a relation")
        return compiled[0](row)

    def bind(relation: Relation) -> None:
        def resolve(ref: ast.ColumnRef) -> int:
            variable = translation.resolve_variable(ref)
            if not relation.has_attribute(variable):
                raise ExecutionError(
                    f"variable {variable!r} missing from the joined relation"
                )
            return relation.index_of(variable)

        compiled[:] = [compile_filter(comparison, resolve)]

    predicate.bind = bind  # type: ignore[attr-defined]
    return predicate


def apply_residual_filters(
    relation: Relation,
    predicates: List[Callable[[Row], bool]],
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """Apply residual (non-pushed) filters to the joined relation."""
    for predicate in predicates:
        bind = getattr(predicate, "bind", None)
        if bind is not None:
            bind(relation)
        relation = relation.select(predicate, meter=meter)
    return relation


def atom_relations_positional(
    query: ConjunctiveQuery,
    database: Database,
    meter: WorkMeter = NULL_METER,
) -> Dict[str, Relation]:
    """Positional-mode base scans for direct conjunctive queries."""
    context = current_context()
    relations: Dict[str, Relation] = {}
    for atom in query.atoms:
        context.checkpoint("exec.scan")
        base = database.table(atom.relation)
        if len(atom.terms) != len(base.attributes):
            raise QueryError(
                f"atom {atom.name!r} has arity {len(atom.terms)} but relation "
                f"{atom.relation!r} has arity {len(base.attributes)}"
            )
        meter.charge(len(base), "scan")
        predicates: List[ast.Comparison] = []
        first_position: Dict[str, str] = {}
        for attribute, term in zip(base.attributes, atom.terms):
            if isinstance(term, Constant):
                column, value = ast.ColumnRef(None, attribute), ast.Literal(term.value)
                predicates.append(ast.Comparison("=", column, value))
            elif term in first_position:
                predicates.append(_columns_equal(first_position[term], attribute))
            else:
                first_position[term] = attribute
        variables = sorted(first_position)
        columns = [first_position[v] for v in variables]
        relations[atom.name] = _scan(
            base, atom.name, predicates, columns, variables, dedup=True
        )
    return relations

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

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, QueryError
from repro.engine.expressions import Predicate, compile_filter
from repro.metering import NULL_METER, WorkMeter
from repro.query import ast
from repro.query.conjunctive import ConjunctiveQuery, Constant
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.resilience.context import current_context


def _scan(
    base: Relation,
    alias: str,
    predicates: Sequence[Predicate],
    columns: Sequence[str],
    variables: Sequence[str],
    dedup: bool,
) -> Relation:
    """The scan pipeline both modes run: narrow ``base``'s row list filter
    by filter, in order, each one compiled comprehension — a later filter
    sees only what the earlier ones kept — then project once onto
    ``columns``, named ``variables``.  Where ``base``'s rows rule
    duplicates out, the projection is neither deduplicated nor copied: the
    result reads the kept rows themselves (:meth:`Relation.scan`)."""

    def resolve(ref: ast.ColumnRef) -> int:
        if ref.table is not None and ref.table != alias:
            raise ExecutionError(
                f"filter for alias {alias!r} references {ref.table!r}"
            )
        return base.index_of(ref.column)

    rows = base.tuples
    for predicate in predicates:
        rows = compile_filter(predicate, resolve)(rows)
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
) -> Tuple[Dict[str, Relation], List[Predicate]]:
    """SQL-mode base scans.

    Returns ``(relations, residual_predicates)``; the residual list is
    empty when filters are pushed down.  Residual predicates are the
    un-pushed filters, for :func:`apply_residual_filters` to apply on the
    final join result (the naive baseline).
    """
    context = current_context()
    relations: Dict[str, Relation] = {}
    residual: List[Predicate] = []

    for atom in query.atoms:
        context.checkpoint("exec.scan")
        alias = atom.name
        base = database.table(atom.relation)
        meter.charge(len(base), "scan")

        predicates = list(translation.atom_filters.get(alias, ()))
        if not push_filters:
            residual += predicates
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


def apply_residual_filters(
    relation: Relation,
    translation: TranslationResult,
    predicates: Sequence[Predicate],
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """Apply residual (non-pushed) filters to the joined relation, in order:
    each compiled against its attributes (CQ variables), and each charged
    as a ``select`` over the rows it reads."""
    context = current_context()

    def resolve(ref: ast.ColumnRef) -> int:
        variable = translation.resolve_variable(ref)
        if not relation.has_attribute(variable):
            raise ExecutionError(
                f"variable {variable!r} missing from the joined relation"
            )
        return relation.index_of(variable)

    rows = relation.tuples
    for predicate in predicates:
        context.checkpoint("exec.select")
        keep = compile_filter(predicate, resolve)
        meter.charge(len(rows), "select")
        rows = keep(rows)
    return Relation._trusted(relation.attributes, rows, name=relation.name)


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

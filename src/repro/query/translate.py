"""SQL → conjunctive-query translation (§2 of the paper).

Each set of attributes linked by equality conditions in the WHERE clause
forms an equivalence class; every class becomes one variable of ``CQ(Q)``.
Attributes mentioned anywhere else in the query (SELECT, GROUP BY, ORDER BY,
filter comparisons) become singleton variables.  Per-relation filters
(column–constant comparisons) do not join relations, so they are kept aside
and pushed to the base scans at evaluation time.

The translation needs the database schema to resolve unqualified column
names (TPC-H queries use bare names such as ``n_name``): a column resolves
to the unique FROM-clause relation that has an attribute of that name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import QueryError
from repro.query import ast
from repro.query.conjunctive import Atom, ConjunctiveQuery

if TYPE_CHECKING:
    from repro.service.fingerprint import QueryFingerprint


@dataclass(frozen=True)
class BoundColumn:
    """A column resolved to a concrete FROM-clause alias."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass
class TranslationResult:
    """The outcome of translating a parsed SQL query into a conjunctive core.

    Attributes:
        query: the conjunctive query ``CQ(Q)`` — atoms named by FROM alias.
        select_query: the original SQL AST (needed for step 4: aggregates,
            GROUP BY, ORDER BY, DISTINCT, LIMIT).
        variable_bindings: variable → {alias: column} mapping; which column
            of which relation carries each variable.
        atom_filters: alias → constant filters to apply on the base scan,
            with every column reference resolved to this alias's columns.
        intra_atom_equalities: alias → pairs of columns of the same relation
            constrained equal (from equality classes touching one alias
            twice); enforced as base-scan filters.
        output_columns: for each output variable of ``CQ(Q)``, the bound
            column it came from (used to rename answer attributes).
        fingerprint: the translation's context-free template fingerprint
            when whoever built it canonicalised it already (the serving
            layer's text memo does), else None.  Not part of equality.
    """

    query: ConjunctiveQuery
    select_query: ast.SelectQuery
    variable_bindings: Dict[str, Dict[str, str]]
    atom_filters: Dict[str, Tuple[ast.Comparison, ...]]
    intra_atom_equalities: Dict[str, Tuple[Tuple[str, str], ...]]
    output_columns: Dict[str, BoundColumn]
    schema: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    column_variables: Dict[Tuple[str, str], str] = field(default_factory=dict)
    fingerprint: Optional[QueryFingerprint] = field(
        default=None, compare=False, repr=False
    )

    def variable_for(self, alias: str, column: str) -> Optional[str]:
        """The CQ variable carried by ``alias.column``, if any.

        Unlike ``variable_bindings`` (one carrier column per alias), this
        also resolves columns merged away by intra-relation equalities.
        """
        direct = self.column_variables.get((alias, column))
        if direct is not None:
            return direct
        for variable, bindings in self.variable_bindings.items():
            if bindings.get(alias) == column:
                return variable
        return None

    def resolve_variable(self, ref: ast.ColumnRef) -> str:
        """Resolve a column reference to its CQ variable.

        Used by post-processing (SELECT expressions, ORDER BY) to map SQL
        column references onto the variable-named answer relation.
        """
        resolver = _Resolver(self.select_query.tables, self.schema)
        bound = resolver.resolve(ref)
        variable = self.variable_for(bound.alias, bound.column)
        if variable is None:
            raise QueryError(
                f"column {bound} does not carry a CQ variable; it was not "
                "part of the translated query"
            )
        return variable


class _Resolver:
    """Resolves column references against the FROM clause and the schema."""

    def __init__(
        self,
        tables: Sequence[ast.TableRef],
        schema: Mapping[str, Sequence[str]],
    ):
        self.tables = tuple(tables)
        self.schema = {name.lower(): tuple(cols) for name, cols in schema.items()}
        self.alias_to_relation: Dict[str, str] = {}
        for table in tables:
            if table.relation not in self.schema:
                raise QueryError(
                    f"relation {table.relation!r} is not in the schema"
                )
            self.alias_to_relation[table.alias] = table.relation

    def columns_of(self, alias: str) -> Tuple[str, ...]:
        return self.schema[self.alias_to_relation[alias]]

    def resolve(self, ref: ast.ColumnRef) -> BoundColumn:
        column = ref.column.lower()
        if ref.table is not None:
            alias = ref.table.lower()
            if alias not in self.alias_to_relation:
                raise QueryError(f"unknown table alias {ref.table!r}")
            if column not in self.columns_of(alias):
                raise QueryError(
                    f"relation {self.alias_to_relation[alias]!r} has no "
                    f"attribute {column!r}"
                )
            return BoundColumn(alias, column)
        owners = [
            table.alias
            for table in self.tables
            if column in self.columns_of(table.alias)
        ]
        if not owners:
            raise QueryError(f"column {ref.column!r} not found in any FROM relation")
        if len(owners) > 1:
            raise QueryError(
                f"column {ref.column!r} is ambiguous (in {sorted(owners)})"
            )
        return BoundColumn(owners[0], column)


class _UnionFind:
    """Union-find over bound columns, for equality equivalence classes."""

    def __init__(self) -> None:
        self.parent: Dict[BoundColumn, BoundColumn] = {}

    def add(self, item: BoundColumn) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: BoundColumn) -> BoundColumn:
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: BoundColumn, b: BoundColumn) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> List[List[BoundColumn]]:
        groups: Dict[BoundColumn, List[BoundColumn]] = {}
        for item in self.parent:
            groups.setdefault(self.find(item), []).append(item)
        ordered = []
        for _, members in sorted(
            groups.items(), key=lambda kv: str(min(map(str, kv[1])))
        ):
            ordered.append(sorted(members, key=str))
        return ordered


def _variable_name(members: Sequence[BoundColumn]) -> str:
    """Deterministic variable name for an equivalence class."""
    return str(min(map(str, members)))


def sql_to_conjunctive(
    query: ast.SelectQuery,
    schema: Mapping[str, Sequence[str]],
    name: str = "Q",
) -> TranslationResult:
    """Translate a parsed SQL query into its conjunctive core ``CQ(Q)``.

    Args:
        query: parsed SQL (see :func:`repro.query.parser.parse_sql`).
        schema: mapping relation name → attribute names, used to resolve
            unqualified columns.
        name: name given to the resulting conjunctive query.

    Returns:
        A :class:`TranslationResult` bundling ``CQ(Q)`` with everything the
        evaluator needs to reconstruct the SQL semantics.
    """
    resolver = _Resolver(query.tables, schema)
    uf = _UnionFind()

    atom_filters: Dict[str, List[ast.Comparison]] = {
        table.alias: [] for table in query.tables
    }
    mentioned: Set[BoundColumn] = set()

    def note_expression(expression: ast.Expression) -> None:
        for ref in ast.column_refs(expression):
            mentioned.add(resolver.resolve(ref))

    # 1. Split WHERE into equality classes vs base filters.
    for predicate in query.predicates:
        if isinstance(predicate, (ast.InSubquery, ast.ExistsSubquery)):
            raise QueryError(
                "subqueries must be flattened before translation — see "
                "repro.query.subqueries.flatten_subqueries"
            )
        if predicate.is_equijoin:
            left = resolver.resolve(predicate.left)  # type: ignore[arg-type]
            right = resolver.resolve(predicate.right)  # type: ignore[arg-type]
            uf.union(left, right)
            mentioned.update((left, right))
            continue
        refs = list(ast.column_refs(predicate.left))
        if isinstance(predicate, ast.Comparison):
            refs += ast.column_refs(predicate.right)
        bound = [resolver.resolve(ref) for ref in refs]
        owners = {b.alias for b in bound}
        if len(owners) > 1:
            raise QueryError(
                "non-equality comparisons across relations are not supported "
                f"in the conjunctive subset: {predicate}"
            )
        mentioned.update(bound)
        if owners:
            (owner,) = owners
        else:
            # Constant predicate (e.g. a flattened failed EXISTS): attach
            # to the first scan — it filters everything or nothing.
            owner = query.tables[0].alias
        atom_filters[owner].append(predicate)

    # 2. Note every column mentioned outside WHERE.
    for item in query.select_items:
        note_expression(item.expr)
    for column in query.group_by:
        mentioned.add(resolver.resolve(column))
    for order in query.order_by:
        for ref in ast.column_refs(order.expr):
            # ORDER BY may reference a SELECT alias; those resolve later.
            try:
                mentioned.add(resolver.resolve(ref))
            except QueryError:
                aliases = {i.alias for i in query.select_items if i.alias}
                if ref.table is None and ref.column in aliases:
                    continue
                raise

    for bound in mentioned:
        uf.add(bound)

    # 3. Build variables from equivalence classes.
    variable_bindings: Dict[str, Dict[str, str]] = {}
    column_to_variable: Dict[BoundColumn, str] = {}
    intra: Dict[str, List[Tuple[str, str]]] = {t.alias: [] for t in query.tables}
    for members in uf.classes():
        variable = _variable_name(members)
        bindings: Dict[str, str] = {}
        for member in members:
            if member.alias in bindings:
                # Two columns of one relation constrained equal: keep the
                # first as the variable's carrier, enforce equality locally.
                intra[member.alias].append((bindings[member.alias], member.column))
            else:
                bindings[member.alias] = member.column
            column_to_variable[member] = variable
        variable_bindings[variable] = bindings

    # 4. Build atoms: one per FROM entry, arity = variables it carries.
    atoms: List[Atom] = []
    for table in query.tables:
        carried = sorted(
            variable
            for variable, bindings in variable_bindings.items()
            if table.alias in bindings
        )
        atoms.append(Atom(name=table.alias, relation=table.relation, terms=tuple(carried)))

    # 5. Output variables: SELECT and GROUP BY attributes (§2).
    output_order: List[str] = []
    output_columns: Dict[str, BoundColumn] = {}

    def add_output(bound: BoundColumn) -> None:
        variable = column_to_variable[bound]
        if variable not in output_order:
            output_order.append(variable)
            output_columns[variable] = bound

    for item in query.select_items:
        if isinstance(item.expr, ast.Star):
            for table in query.tables:
                for column in resolver.columns_of(table.alias):
                    bound = BoundColumn(table.alias, column)
                    uf.add(bound)
                    if bound not in column_to_variable:
                        variable = _variable_name([bound])
                        variable_bindings[variable] = {bound.alias: bound.column}
                        column_to_variable[bound] = variable
                        # Extend the atom for this table with the new variable.
                        for index, atom in enumerate(atoms):
                            if atom.name == table.alias:
                                atoms[index] = Atom(
                                    atom.name,
                                    atom.relation,
                                    tuple(sorted(set(atom.terms) | {variable})),
                                )
                    add_output(bound)
            continue
        for ref in ast.column_refs(item.expr):
            add_output(resolver.resolve(ref))
    for column in query.group_by:
        add_output(resolver.resolve(column))

    cq = ConjunctiveQuery(atoms, output=output_order, name=name)
    return TranslationResult(
        query=cq,
        select_query=query,
        variable_bindings=variable_bindings,
        atom_filters={k: tuple(v) for k, v in atom_filters.items()},
        intra_atom_equalities={k: tuple(v) for k, v in intra.items()},
        output_columns=output_columns,
        schema={name_: tuple(cols) for name_, cols in resolver.schema.items()},
        column_variables={
            (bound.alias, bound.column): variable
            for bound, variable in column_to_variable.items()
        },
    )

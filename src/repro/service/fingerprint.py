"""Canonical, parameter-insensitive query-template fingerprints.

The serving layer's economic argument (§6.1 of the paper) is that the
structural plan is built once per *template*: two executions of the same
query shape — same join structure, same output, same filter shapes, but
different constants or different FROM-clause aliases — must share a plan.
The fingerprint computed here is the cache key that makes that sharing
sound:

* it is **canonical**: isomorphic renamings (aliases, variable order,
  atom order) map to the same fingerprint, via colour refinement with
  individualization over the atom-variable incidence structure;
* it is **parameter-insensitive**: filter *shapes* (column, operator)
  participate, constant values do not — `r_name = 'ASIA'` and
  `r_name = 'EUROPE'` share a template, `r_name < 'ASIA'` does not;
* it embeds the **schema digest** (and the plan cache pairs it with the
  statistics version), so DDL or ANALYZE refreshes never resurrect plans
  built for a different world.

A cached decomposition is stored in *canonical* names; on a hit it is
renamed into the requesting query's names (:func:`rename_hypertree`), so a
plan built for ``FROM nation n1`` serves ``FROM nation n2`` verbatim.

Soundness does not depend on the refinement being a complete isomorphism
test: the cache compares the full canonical text on every hit, and equal
canonical texts *constructively* exhibit an isomorphism (compose the two
canonical maps).  An undetected symmetry can only cost a cache miss, never
a wrong plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph
from repro.query import ast
from repro.query.translate import TranslationResult
from repro.relational.database import Database
from repro.core.hypertree import Hypertree, HypertreeNode


@dataclass(frozen=True)
class QueryFingerprint:
    """A canonical template fingerprint plus the renaming that produced it.

    Attributes:
        key: short stable digest of ``text`` — the cache's hash key.
        text: the full canonical form; compared on every cache hit so hash
            collisions are harmless.
        var_map: original variable name → canonical name (``v0``, ``v1``…).
        atom_map: original atom name → canonical name (``a0``, ``a1``…).
    """

    key: str
    text: str
    var_map: Mapping[str, str]
    atom_map: Mapping[str, str]

    def with_context(self, context: str) -> "QueryFingerprint":
        """This (context-free) fingerprint keyed for one serving context.

        Appends the ``ctx=`` line and re-hashes; the canonical labelling
        depends on neither the width bound nor the statistics, so the
        renaming maps are shared, not copied.  An empty context is the
        fingerprint itself.
        """
        if not context:
            return self
        text = f"{self.text}\nctx={context}"
        return QueryFingerprint(_key(text), text, self.var_map, self.atom_map)

    def inverse_var_map(self) -> Dict[str, str]:
        return {canon: orig for orig, canon in self.var_map.items()}

    def inverse_atom_map(self) -> Dict[str, str]:
        return {canon: orig for orig, canon in self.atom_map.items()}


def _key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def schema_digest(database: Database) -> str:
    """A short digest of the database schema (relation names + columns).

    Part of the fingerprint context: a plan decomposes a query *against a
    schema*; schema changes must not reuse old templates.  Cached on the
    schema (:meth:`~repro.relational.schema.DatabaseSchema.digest`).
    """
    return database.schema.digest()


# ---------------------------------------------------------------------------
# Filter shapes (parameter-insensitive)
# ---------------------------------------------------------------------------


def _expression_shape(expression: ast.Expression) -> str:
    """Render an expression with every constant masked to ``?``."""
    if isinstance(expression, ast.ColumnRef):
        return expression.column.lower()
    if isinstance(expression, ast.Literal):
        return "?"
    if isinstance(expression, ast.BinaryOp):
        return (
            f"({_expression_shape(expression.left)}{expression.op}"
            f"{_expression_shape(expression.right)})"
        )
    if isinstance(expression, ast.FuncCall):
        inner = ",".join(_expression_shape(a) for a in expression.args)
        return f"{expression.name.lower()}({inner})"
    if isinstance(expression, ast.Star):
        return "*"
    return f"<{type(expression).__name__}>"


def _predicate_shape(predicate: object) -> str:
    """The parameter-insensitive shape of one base-scan filter predicate."""
    if isinstance(predicate, ast.Comparison):
        return (
            f"cmp[{predicate.op}]"
            f"({_expression_shape(predicate.left)},"
            f"{_expression_shape(predicate.right)})"
        )
    if isinstance(predicate, ast.BetweenPredicate):
        return f"between({_expression_shape(predicate.expr)})"
    if isinstance(predicate, ast.InList):
        return f"in({_expression_shape(predicate.expr)})"
    # Unknown predicate kinds keep their column references and type, so two
    # different constructs never share a shape by accident.
    refs = ",".join(
        ref.column.lower()
        for ref in ast.column_refs(getattr(predicate, "left", ast.Star()))
    )
    return f"{type(predicate).__name__.lower()}({refs})"


# ---------------------------------------------------------------------------
# Canonicalization: colour refinement with individualization
# ---------------------------------------------------------------------------


def _compress(colors: Dict[str, object]) -> Dict[str, int]:
    """Rank-compress arbitrary (orderable) colour values to small ints."""
    ranking = {color: rank for rank, color in enumerate(sorted(set(map(repr, colors.values()))))}
    return {item: ranking[repr(color)] for item, color in colors.items()}


def _refine(
    var_colors: Dict[str, int],
    atom_colors: Dict[str, int],
    var_adj: Dict[str, List[Tuple[str, str]]],
    atom_adj: Dict[str, List[Tuple[str, str]]],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Iterate 1-WL over the variable/atom incidence until the partition is stable."""
    while True:
        new_var = {
            v: (var_colors[v], tuple(sorted((atom_colors[a], col) for a, col in adj)))
            for v, adj in var_adj.items()
        }
        new_atom = {
            a: (atom_colors[a], tuple(sorted((var_colors[v], col) for v, col in adj)))
            for a, adj in atom_adj.items()
        }
        next_var = _compress(new_var)
        next_atom = _compress(new_atom)
        if (
            len(set(next_var.values())) == len(set(var_colors.values()))
            and len(set(next_atom.values())) == len(set(atom_colors.values()))
        ):
            return next_var, next_atom
        var_colors, atom_colors = next_var, next_atom


def fingerprint_translation(
    translation: TranslationResult,
    context: str = "",
) -> QueryFingerprint:
    """Fingerprint a translated query template.

    The canonicalisation (colour refinement + individualization) sees
    only the translation; ``context`` is folded in afterwards by
    :meth:`QueryFingerprint.with_context`, so a caller that needs the
    same template under several contexts canonicalises once.

    Args:
        translation: the SQL → CQ translation of the query.
        context: free-form serving context folded into the fingerprint —
            schema digest, width bound, optimizer flags.  Anything that
            changes the *meaning* of a cached plan belongs here.

    Returns:
        The canonical :class:`QueryFingerprint`; equal fingerprints (by
        ``text``) certify that the underlying templates are isomorphic.
    """
    query = translation.query

    # Incidence: (variable, atom, column) triples.  column_variables has the
    # complete picture (including columns merged by intra-atom equalities);
    # variable_bindings fills in hand-built translations.
    incidence = set()
    for (alias, column), variable in translation.column_variables.items():
        incidence.add((variable, alias, column.lower()))
    for variable, bindings in translation.variable_bindings.items():
        for alias, column in bindings.items():
            incidence.add((variable, alias, column.lower()))

    relation_of = {atom.name: atom.relation.lower() for atom in query.atoms}
    var_adj: Dict[str, List[Tuple[str, str]]] = {v: [] for v in query.variables}
    atom_adj: Dict[str, List[Tuple[str, str]]] = {a.name: [] for a in query.atoms}
    for variable, alias, column in sorted(incidence):
        if variable in var_adj and alias in atom_adj:
            var_adj[variable].append((alias, column))
            atom_adj[alias].append((variable, column))

    output_pos = {variable: i for i, variable in enumerate(query.output)}
    filter_shapes = {
        atom.name: tuple(
            sorted(
                _predicate_shape(p)
                for p in translation.atom_filters.get(atom.name, ())
            )
        )
        for atom in query.atoms
    }
    intra_shapes = {
        atom.name: tuple(
            sorted(
                tuple(sorted((a.lower(), b.lower())))
                for a, b in translation.intra_atom_equalities.get(atom.name, ())
            )
        )
        for atom in query.atoms
    }

    # Seed colours from renaming-invariant data only.
    var_seed = {
        v: (
            "var",
            tuple(sorted((relation_of[a], col) for a, col in var_adj[v])),
            output_pos.get(v, -1),
        )
        for v in var_adj
    }
    atom_seed = {
        a.name: ("atom", relation_of[a.name], filter_shapes[a.name], intra_shapes[a.name])
        for a in query.atoms
    }
    var_colors = _compress(var_seed)
    atom_colors = _compress(atom_seed)
    var_colors, atom_colors = _refine(var_colors, atom_colors, var_adj, atom_adj)

    # Individualization: split any non-singleton colour class and re-refine
    # until the variable partition is discrete.  Ties broken here are either
    # automorphic (any choice yields the same canonical text) or cost at
    # worst a missed unification — never an unsound reuse (see module doc).
    next_unique = len(var_adj) + len(atom_adj) + 1
    while True:
        classes: Dict[int, List[str]] = {}
        for v, color in var_colors.items():
            classes.setdefault(color, []).append(v)
        tied = sorted(
            (color, sorted(members)) for color, members in classes.items()
            if len(members) > 1
        )
        if not tied:
            break
        _, members = tied[0]
        var_colors = dict(var_colors)
        var_colors[members[0]] = next_unique
        next_unique += 1
        var_colors, atom_colors = _refine(
            var_colors, atom_colors, var_adj, atom_adj
        )

    ordered_vars = sorted(var_adj, key=lambda v: (var_colors[v], v))
    var_map = {v: f"v{i}" for i, v in enumerate(ordered_vars)}
    ordered_atoms = sorted(atom_adj, key=lambda a: (atom_colors[a], a))
    atom_map = {a: f"a{i}" for i, a in enumerate(ordered_atoms)}

    lines: List[str] = []
    for name in ordered_atoms:
        bindings = ",".join(
            f"{col}={var_map[v]}" for v, col in sorted(atom_adj[name], key=lambda p: (p[1], var_map[p[0]]))
        )
        filters = ";".join(filter_shapes[name])
        intra = ";".join("=".join(pair) for pair in intra_shapes[name])
        lines.append(
            f"{atom_map[name]}:{relation_of[name]}({bindings})|f[{filters}]|e[{intra}]"
        )
    lines.append("out=(" + ",".join(var_map[v] for v in query.output) + ")")
    text = "\n".join(lines)
    return QueryFingerprint(_key(text), text, var_map, atom_map).with_context(context)


# ---------------------------------------------------------------------------
# Renaming decompositions between name spaces
# ---------------------------------------------------------------------------


def rename_hypergraph(
    hypergraph: Hypergraph,
    var_map: Mapping[str, str],
    atom_map: Mapping[str, str],
) -> Hypergraph:
    """A copy of ``hypergraph`` with vertices and edge names mapped."""
    return Hypergraph(
        Hyperedge(atom_map[edge.name], (var_map[v] for v in edge.vertices))
        for edge in hypergraph
    )


def rename_hypertree(
    tree: Hypertree,
    var_map: Mapping[str, str],
    atom_map: Mapping[str, str],
    hypergraph: Optional[Hypergraph] = None,
) -> Hypertree:
    """A fresh :class:`Hypertree` with χ variables and λ atoms renamed.

    Guards are re-linked onto the copied nodes.  The source tree is never
    mutated, so a canonical tree stored in the plan cache can be renamed
    concurrently by many workers.

    Args:
        hypergraph: the hypergraph of the *target* name space; derived by
            renaming the source's hypergraph when omitted.
    """
    # Copies are made in pre-order, so node ids follow the source's order.
    nodes = list(tree.root.walk())
    node_copies: Dict[int, HypertreeNode] = {
        id(node): HypertreeNode(
            chi=(var_map[v] for v in node.chi),
            lam=tuple(atom_map[a] for a in node.lam),
        )
        for node in nodes
    }
    for node in nodes:
        copy = node_copies[id(node)]
        copy.children = [node_copies[id(child)] for child in node.children]
        copy.guards = {
            atom_map[name]: node_copies[id(guard)]
            for name, guard in node.guards.items()
            if id(guard) in node_copies
        }
    if hypergraph is None:
        hypergraph = rename_hypergraph(tree.hypergraph, var_map, atom_map)
    return Hypertree(node_copies[id(tree.root)], hypergraph)

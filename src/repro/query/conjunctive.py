"""Conjunctive queries and their hypergraphs.

A conjunctive query (§2 of the paper) is a rule

    ans(u) ← r1(u1) ∧ … ∧ rn(un)

where each ``ui`` is a list of *terms* (variables or constants).  The
hypergraph ``H(Q)`` has one vertex per variable and, per atom, a hyperedge
containing the atom's variables.  Atoms are named, so two atoms over the
same relation (self-joins) yield distinct hyperedges — the paper's implicit
fresh-variable convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import QueryError
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph


@dataclass(frozen=True)
class Constant:
    """A constant term appearing in an atom's argument list."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[str, Constant]
"""A term is a variable name (str) or a :class:`Constant`."""


@dataclass(frozen=True)
class Atom:
    """One body atom ``relation(terms)`` with a unique name.

    Args:
        name: unique atom identifier within the query (distinguishes
            self-joins); often equal to ``relation`` when unambiguous.
        relation: the relation symbol from the database schema.
        terms: argument list — variable names or :class:`Constant` values.
    """

    name: str
    relation: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("atom name must be non-empty")
        if not self.relation:
            raise QueryError("atom relation must be non-empty")

    @property
    def variables(self) -> FrozenSet[str]:
        """The variables appearing in this atom (constants excluded)."""
        return frozenset(t for t in self.terms if isinstance(t, str))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        inner = ", ".join(
            term if isinstance(term, str) else str(term) for term in self.terms
        )
        if self.name != self.relation:
            return f"{self.name}:{self.relation}({inner})"
        return f"{self.relation}({inner})"


class ConjunctiveQuery:
    """A conjunctive query with named atoms and output variables.

    Args:
        atoms: body atoms; names must be unique.
        output: the head's variable list ``out(Q)`` — order matters for the
            answer relation's schema.  Every output variable must occur in
            some body atom.
        name: optional query name (used in plans and reports).
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        output: Sequence[str] = (),
        name: str = "Q",
    ):
        self.name = name
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self.output: Tuple[str, ...] = tuple(output)

        seen_names = set()
        for atom in self.atoms:
            if atom.name in seen_names:
                raise QueryError(f"duplicate atom name: {atom.name!r}")
            seen_names.add(atom.name)

        body_vars = self.variables
        for var in self.output:
            if var not in body_vars:
                raise QueryError(
                    f"output variable {var!r} does not occur in the query body"
                )
        if len(set(self.output)) != len(self.output):
            raise QueryError("output variables must be distinct")

    # ------------------------------------------------------------------

    @property
    def variables(self) -> FrozenSet[str]:
        """``var(Q)``: all variables occurring in the body."""
        result = set()
        for atom in self.atoms:
            result |= atom.variables
        return frozenset(result)

    @property
    def output_variables(self) -> FrozenSet[str]:
        """``out(Q)`` as a set."""
        return frozenset(self.output)

    def atom(self, name: str) -> Atom:
        for atom in self.atoms:
            if atom.name == name:
                return atom
        raise QueryError(f"no atom named {name!r} in query {self.name}")

    # ------------------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        """``H(Q)``: one hyperedge per atom, vertices are the variables.

        Atoms with no variables (all-constant) still produce an (empty-set)
        edge-free contribution and are excluded, matching the definition —
        they act as pure filters.
        """
        edges = [
            Hyperedge(atom.name, atom.variables)
            for atom in self.atoms
            if atom.variables
        ]
        return Hypergraph(edges)

    def relation_of(self, atom_name: str) -> str:
        return self.atom(atom_name).relation

    def rename(self, name: str) -> "ConjunctiveQuery":
        return ConjunctiveQuery(self.atoms, self.output, name=name)

    def with_output(self, output: Sequence[str]) -> "ConjunctiveQuery":
        """A copy of the query with a different head."""
        return ConjunctiveQuery(self.atoms, output, name=self.name)

    def __str__(self) -> str:
        head = f"ans({', '.join(self.output)})"
        body = " ∧ ".join(str(atom) for atom in self.atoms)
        return f"{head} ← {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self.name}: {self})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.atoms == other.atoms and self.output == other.output

    def __hash__(self) -> int:
        return hash((self.atoms, self.output))

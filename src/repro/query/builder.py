"""A fluent builder for conjunctive queries.

It keeps tests that build a query in code readable:

    cq = (ConjunctiveQueryBuilder("chain")
          .atom("p0", "rel0", "X0", "X1")
          .atom("p1", "rel1", "X1", "X2")
          .output("X0", "X2")
          .build())
"""

from __future__ import annotations

from typing import List, Union

from repro.query.conjunctive import Atom, ConjunctiveQuery, Constant


class ConjunctiveQueryBuilder:
    """Incremental construction of a :class:`ConjunctiveQuery`."""

    def __init__(self, name: str = "Q"):
        self._name = name
        self._atoms: List[Atom] = []
        self._output: List[str] = []

    def atom(
        self,
        name: str,
        relation: "str | None" = None,
        *terms: Union[str, Constant],
    ) -> "ConjunctiveQueryBuilder":
        """Add a body atom.  ``relation`` defaults to the atom name."""
        self._atoms.append(Atom(name, relation or name, tuple(terms)))
        return self

    def output(self, *variables: str) -> "ConjunctiveQueryBuilder":
        """Append output (head) variables."""
        self._output.extend(variables)
        return self

    def build(self) -> ConjunctiveQuery:
        return ConjunctiveQuery(self._atoms, self._output, name=self._name)


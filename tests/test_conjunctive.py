"""Tests for the conjunctive-query model."""

import pytest

from repro.errors import QueryError
from repro.query.conjunctive import Atom, ConjunctiveQuery, Constant


class TestAtom:
    def test_variables_exclude_constants(self):
        atom = Atom("a", "r", ("X", Constant(5), "Y", "X"))
        assert atom.variables == frozenset({"X", "Y"})
        assert atom.arity == 4

    def test_validation(self):
        with pytest.raises(QueryError):
            Atom("", "r", ("X",))
        with pytest.raises(QueryError):
            Atom("a", "", ("X",))

    def test_str_forms(self):
        assert str(Atom("r", "r", ("X",))) == "r(X)"
        assert str(Atom("a1", "r", ("X",))) == "a1:r(X)"


class TestConjunctiveQuery:
    def make(self):
        return ConjunctiveQuery(
            [
                Atom("a", "r1", ("X", "Y")),
                Atom("b", "r2", ("Y", "Z")),
            ],
            output=["X", "Z"],
            name="Q",
        )

    def test_variables(self):
        q = self.make()
        assert q.variables == frozenset({"X", "Y", "Z"})
        assert q.output_variables == frozenset({"X", "Z"})

    def test_boolean_query(self):
        q = ConjunctiveQuery([Atom("a", "r", ("X",))])
        assert q.output == ()
        assert q.output_variables == frozenset()

    def test_duplicate_atom_names_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                [Atom("a", "r", ("X",)), Atom("a", "s", ("Y",))]
            )

    def test_unbound_output_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([Atom("a", "r", ("X",))], output=["Z"])

    def test_duplicate_output_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([Atom("a", "r", ("X",))], output=["X", "X"])

    def test_atom_lookup(self):
        q = self.make()
        assert q.atom("a").relation == "r1"
        with pytest.raises(QueryError):
            q.atom("zzz")

    def test_hypergraph(self):
        hg = self.make().hypergraph()
        assert set(hg.edge_names) == {"a", "b"}
        assert hg.vertices == frozenset({"X", "Y", "Z"})

    def test_hypergraph_skips_constant_only_atoms(self):
        q = ConjunctiveQuery(
            [Atom("a", "r", ("X",)), Atom("c", "s", (Constant(1),))]
        )
        assert set(q.hypergraph().edge_names) == {"a"}

    def test_with_output_and_rename(self):
        q = self.make()
        q2 = q.with_output(["Y"])
        assert q2.output == ("Y",)
        assert q.output == ("X", "Z")
        assert q.rename("Q2").name == "Q2"

    def test_equality_and_hash(self):
        assert self.make() == self.make()
        assert hash(self.make()) == hash(self.make())
        assert self.make() != self.make().with_output(["X"])

    def test_str(self):
        text = str(self.make())
        assert "ans(X, Z)" in text
        assert "∧" in text

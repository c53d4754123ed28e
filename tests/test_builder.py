"""Tests for the fluent conjunctive-query builder."""

from repro.query.builder import ConjunctiveQueryBuilder
from repro.query.conjunctive import Constant


class TestConjunctiveQueryBuilder:
    def test_basic_build(self):
        q = (
            ConjunctiveQueryBuilder("chain")
            .atom("p0", "rel0", "X0", "X1")
            .atom("p1", "rel1", "X1", "X2")
            .output("X0", "X2")
            .build()
        )
        assert q.name == "chain"
        assert len(q.atoms) == 2
        assert q.output == ("X0", "X2")

    def test_relation_defaults_to_name(self):
        q = ConjunctiveQueryBuilder().atom("r", None, "X").build()
        assert q.atom("r").relation == "r"

    def test_constants(self):
        q = ConjunctiveQueryBuilder().atom("r", "rel", "X", Constant(3)).build()
        assert q.atom("r").variables == frozenset({"X"})


"""Unit tests for the hypergraph data structure."""

import pytest

from repro.errors import HypergraphError
from repro.hypergraph import Hyperedge, Hypergraph


class TestHyperedge:
    def test_basic_construction(self):
        edge = Hyperedge("r", ["X", "Y", "X"])
        assert edge.name == "r"
        assert edge.vertices == frozenset({"X", "Y"})
        assert len(edge) == 2

    def test_equality_is_by_name(self):
        assert Hyperedge("r", ["X"]) == Hyperedge("r", ["Y"])
        assert Hyperedge("r", ["X"]) != Hyperedge("s", ["X"])
        assert hash(Hyperedge("r", ["X"])) == hash(Hyperedge("r", ["Z"]))

    def test_contains_and_iter(self):
        edge = Hyperedge("r", ["A", "B"])
        assert "A" in edge
        assert "C" not in edge
        assert sorted(edge) == ["A", "B"]

    def test_intersects(self):
        edge = Hyperedge("r", ["A", "B"])
        assert edge.intersects({"B", "C"})
        assert not edge.intersects({"C", "D"})
        assert edge.intersects(["A"])

    def test_empty_name_rejected(self):
        with pytest.raises(HypergraphError):
            Hyperedge("", ["X"])

    def test_repr_sorted(self):
        assert repr(Hyperedge("r", ["B", "A"])) == "r(A, B)"


class TestHypergraph:
    def make(self):
        return Hypergraph.from_dict(
            {"a": ["X", "Y"], "b": ["Y", "Z"], "c": ["Z", "W", "X"]}
        )

    def test_vertices_and_edges(self):
        hg = self.make()
        assert hg.vertices == frozenset({"X", "Y", "Z", "W"})
        assert len(hg) == 3
        assert hg.edge_names == ("a", "b", "c")

    def test_duplicate_edge_name_rejected(self):
        hg = self.make()
        with pytest.raises(HypergraphError):
            hg.add_edge(Hyperedge("a", ["Q"]))

    def test_edge_lookup(self):
        hg = self.make()
        assert hg.edge("b").vertices == frozenset({"Y", "Z"})
        with pytest.raises(HypergraphError):
            hg.edge("missing")

    def test_membership(self):
        hg = self.make()
        assert "a" in hg
        assert Hyperedge("b", []) in hg
        assert "zzz" not in hg
        assert 42 not in hg

    def test_degree(self):
        hg = self.make()
        assert hg.degree("X") == 2
        assert hg.degree("W") == 1
        with pytest.raises(HypergraphError):
            hg.degree("missing")

    def test_variables_of(self):
        hg = self.make()
        assert hg.variables_of(["a", "b"]) == frozenset({"X", "Y", "Z"})
        assert hg.variables_of([]) == frozenset()

    def test_induced_subhypergraph(self):
        hg = self.make()
        sub = hg.induced(["a", "c"])
        assert len(sub) == 2
        assert sub.vertices == frozenset({"X", "Y", "Z", "W"})
        assert not sub.has_edge("b")

    def test_equality_and_hash(self):
        hg1 = self.make()
        hg2 = self.make()
        assert hg1 == hg2
        assert hash(hg1) == hash(hg2)
        hg3 = Hypergraph.from_dict({"a": ["X"]})
        assert hg1 != hg3

    def test_copy_preserves_content(self):
        hg = self.make()
        copy = hg.copy()
        assert copy == hg
        copy.add_edge(Hyperedge("d", ["V"]))
        assert len(hg) == 3

    def test_extra_vertices_and_isolated(self):
        hg = Hypergraph([Hyperedge("a", ["X"])], extra_vertices=["L"])
        assert "L" in hg.vertices
        assert hg.isolated_vertices() == frozenset({"L"})

"""Tests for GYO reduction, acyclicity, components, and the primal graph.

``union_find_components`` is the [λ]-component reference that the
decomposition searches are checked against; its own cases are here."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph import (
    Hyperedge,
    Hypergraph,
    gyo_reduction,
    is_acyclic,
    line_hypergraph,
    cycle_hypergraph,
    primal_graph,
    vertex_connected_components,
)


class TestPrimalGraph:
    def test_adjacency(self):
        hg = Hypergraph.from_dict({"a": ["X", "Y", "Z"], "b": ["Z", "W"]})
        adjacency = primal_graph(hg)
        assert adjacency["X"] == {"Y", "Z"}
        assert adjacency["Z"] == {"X", "Y", "W"}
        assert adjacency["W"] == {"Z"}


class TestGyo:
    def test_acyclic_line(self):
        residual, log = gyo_reduction(line_hypergraph(5))
        assert len(residual) == 0
        assert len(log) == 5
        assert log[-1][1] is None  # final survivor

    def test_cycle_is_irreducible(self):
        residual, _ = gyo_reduction(cycle_hypergraph(4, private=0))
        assert len(residual) == 4

    def test_cycle_with_private_vars_still_cyclic(self):
        assert not is_acyclic(cycle_hypergraph(5))

    def test_single_edge_acyclic(self):
        assert is_acyclic(Hypergraph.from_dict({"a": ["X", "Y"]}))

    def test_empty_hypergraph_acyclic(self):
        assert is_acyclic(Hypergraph())

    def test_contained_edges_absorbed(self):
        hg = Hypergraph.from_dict({"big": ["X", "Y", "Z"], "small": ["X", "Y"]})
        residual, log = gyo_reduction(hg)
        assert len(residual) == 0
        # One edge absorbs the other (either direction is a valid ear
        # removal once lonely vertices are stripped).
        assert ("small", "big") in log or ("big", "small") in log

    def test_alpha_acyclic_triangle_with_cover(self):
        # A triangle plus a covering 3-edge is α-acyclic.
        hg = Hypergraph.from_dict(
            {
                "ab": ["A", "B"],
                "bc": ["B", "C"],
                "ca": ["C", "A"],
                "abc": ["A", "B", "C"],
            }
        )
        assert is_acyclic(hg)

    def test_triangle_without_cover_cyclic(self):
        hg = Hypergraph.from_dict(
            {"ab": ["A", "B"], "bc": ["B", "C"], "ca": ["C", "A"]}
        )
        assert not is_acyclic(hg)

    def test_paper_q5_hypergraph_is_cyclic(self):
        # Example 1 of the paper: H(Q5) is cyclic.
        hg = Hypergraph.from_dict(
            {
                "customer": ["CustKey", "NationKey"],
                "orders": ["OrdKey", "CustKey"],
                "lineitem": ["SuppKey", "OrdKey", "Price", "Disc"],
                "supplier": ["SuppKey", "NationKey"],
                "nation": ["Name", "NationKey", "RegionKey"],
                "region": ["RegionKey", "RName"],
            }
        )
        assert not is_acyclic(hg)


class TestComponents:
    def make(self):
        return Hypergraph.from_dict(
            {
                "a": ["X", "Y"],
                "b": ["Y", "Z"],
                "c": ["Z", "W"],
                "d": ["U", "V"],
            }
        )

    def test_vertex_components(self):
        hg = self.make()
        comps = vertex_connected_components(hg)
        assert sorted(len(c) for c in comps) == [2, 4]

    def test_vertex_components_with_exclusion(self):
        hg = self.make()
        comps = vertex_connected_components(hg, excluded_vertices={"Z"})
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_edge_components_modulo_separator(self):
        hg = self.make()
        comps = union_find_components(hg, ["a", "b", "c", "d"], {"Z"})
        as_sets = sorted(tuple(sorted(c)) for c in comps)
        assert as_sets == [("a", "b"), ("c",), ("d",)]

    def test_fully_covered_edges_excluded(self):
        hg = self.make()
        comps = union_find_components(hg, ["a", "b"], {"X", "Y", "Z"})
        assert comps == []

    def test_empty_separator_keeps_connectivity(self):
        hg = self.make()
        comps = union_find_components(hg, ["a", "b", "c", "d"], set())
        assert sorted(len(c) for c in comps) == [1, 3]


def union_find_components(hypergraph, edge_names, separator_vertices):
    """[λ]-components: ``edge_names`` partitioned by shared vertices outside
    the separator, by the textbook union-find.  Edges the separator covers
    belong to no component.

    The reference for the decomposition searches' splits.  The *order* of
    the returned groups (by each group's smallest edge name — never by its
    union-find root, which set iteration order picks when one edge bridges
    two earlier groups) decides the child order of every decomposition
    node, so a search must reproduce it, not just the partition.
    """
    separator = frozenset(separator_vertices)
    names = sorted(set(edge_names))
    parent = {name: name for name in names}

    def find(name):
        while parent[name] != name:
            name = parent[name]
        return name

    vertex_owner = {}
    uncovered = []
    for name in names:
        free_vertices = hypergraph.edge(name).vertices - separator
        if not free_vertices:
            continue
        uncovered.append(name)
        for vertex in free_vertices:
            if vertex in vertex_owner:
                ra, rb = find(vertex_owner[vertex]), find(name)
                if ra != rb:
                    parent[rb] = ra
            else:
                vertex_owner[vertex] = name
    groups = {}
    for name in uncovered:
        groups.setdefault(find(name), set()).add(name)
    return [frozenset(group) for group in sorted(groups.values(), key=min)]


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=12))
def test_lines_always_acyclic(n):
    assert is_acyclic(line_hypergraph(n))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=3, max_value=12))
def test_cycles_never_acyclic(n):
    assert not is_acyclic(cycle_hypergraph(n))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_gyo_log_covers_all_edges_when_acyclic(n, seed):
    """For acyclic inputs, the removal log mentions every edge exactly once."""
    hg = line_hypergraph(n)
    residual, log = gyo_reduction(hg)
    assert len(residual) == 0
    removed = [name for name, _ in log]
    assert sorted(removed) == sorted(hg.edge_names)

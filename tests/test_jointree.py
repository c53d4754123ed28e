"""Tests for join-forest construction over acyclic hypergraphs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HypergraphError
from repro.hypergraph import (
    Hypergraph,
    Hyperedge,
    build_join_forest,
    cycle_hypergraph,
    line_hypergraph,
)
from repro.hypergraph.jointree import verify_join_tree


class TestJoinTree:
    def test_line_join_tree(self):
        (root,) = build_join_forest(line_hypergraph(6))
        assert root.size() == 6
        assert verify_join_tree(root)

    def test_cyclic_raises(self):
        with pytest.raises(HypergraphError):
            build_join_forest(cycle_hypergraph(4))

    def test_forest_for_disconnected(self):
        hg = Hypergraph.from_dict({"a": ["X", "Y"], "b": ["U", "V"]})
        roots = build_join_forest(hg)
        assert len(roots) == 2

    def test_star_schema(self):
        hg = Hypergraph.from_dict(
            {
                "fact": ["K1", "K2", "K3"],
                "dim1": ["K1", "A"],
                "dim2": ["K2", "B"],
                "dim3": ["K3", "C"],
            }
        )
        (root,) = build_join_forest(hg)
        assert verify_join_tree(root)
        assert root.size() == 4

    def test_postorder_visits_children_first(self):
        (root,) = build_join_forest(line_hypergraph(4))
        order = [node.edge.name for node in root.postorder()]
        assert order[-1] == root.edge.name

    def test_walk_preorder(self):
        (root,) = build_join_forest(line_hypergraph(3))
        order = [node.edge.name for node in root.walk()]
        assert order[0] == root.edge.name
        assert len(order) == 3

    def test_verify_join_tree_detects_violation(self):
        # Hand-build a broken "join tree": shared variable not on the path.
        from repro.hypergraph.jointree import JoinTreeNode

        a = JoinTreeNode(Hyperedge("a", ["X", "Y"]))
        b = JoinTreeNode(Hyperedge("b", ["Z"]))
        c = JoinTreeNode(Hyperedge("c", ["X"]))
        a.add_child(b)
        b.add_child(c)  # X occurs at a and c, but not at b: violation
        assert not verify_join_tree(a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=15))
def test_line_join_trees_always_verify(n):
    (root,) = build_join_forest(line_hypergraph(n, shared=1, private=2))
    assert verify_join_tree(root)
    assert root.size() == n

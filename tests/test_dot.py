"""Tests for Graphviz DOT export."""

import re

import pytest

from repro.hypergraph import Hypergraph
from repro.hypergraph.dot import decomposition_to_dot, hypergraph_to_dot
from repro.core.qhd import q_hypertree_decomp
from repro.query.builder import ConjunctiveQueryBuilder


def balanced(text):
    return text.count("{") == text.count("}")


class TestHypergraphDot:
    def test_bipartite_structure(self):
        hg = Hypergraph.from_dict({"a": ["X", "Y"], "b": ["Y", "Z"]})
        dot = hypergraph_to_dot(hg)
        assert dot.startswith('graph "H"')
        assert balanced(dot)
        # 3 variable nodes, 2 edge nodes, 4 incidence arcs.
        assert dot.count("shape=ellipse") == 3
        assert dot.count("shape=box") == 2
        assert dot.count(" -- ") == 4

    def test_highlighting(self):
        hg = Hypergraph.from_dict({"a": ["X", "Y"]})
        dot = hypergraph_to_dot(hg, highlight_vertices={"X"})
        assert dot.count("fillcolor=\"#ffd27f\"") == 1

    def test_quoting(self):
        hg = Hypergraph.from_dict({'weird"name': ["X"]})
        dot = hypergraph_to_dot(hg)
        assert '\\"' in dot


class TestDecompositionDot:
    def make(self):
        builder = ConjunctiveQueryBuilder("chain")
        for i in range(5):
            builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % 5}")
        return q_hypertree_decomp(builder.output("V0").build(), 2)

    def test_tree_structure(self):
        tree = self.make()
        dot = decomposition_to_dot(tree)
        assert dot.startswith('digraph "HD"')
        assert balanced(dot)
        n_nodes = len(tree.nodes())
        assert len(re.findall(r"n\d+ \[label=", dot)) == n_nodes
        assert dot.count(" -> ") == n_nodes - 1

    def test_labels_show_chi_and_lambda(self):
        dot = decomposition_to_dot(self.make())
        assert "λ:" in dot and "χ:" in dot

    def test_guard_edges_highlighted(self):
        from repro.core.detkdecomp import det_k_decomp
        from repro.core.qhd import assign_atoms, procedure_optimize

        builder = ConjunctiveQueryBuilder("chain")
        for i in range(6):
            builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % 6}")
        q = builder.output("V0").build()
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        procedure_optimize(tree)
        dot = decomposition_to_dot(tree)
        assert "style=bold" in dot  # guard edges stand out
        assert "removed:" in dot

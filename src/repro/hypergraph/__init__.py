"""Hypergraph substrate.

A query hypergraph ``H(Q)`` has one vertex per query variable and one named
hyperedge per query atom (§2 of the paper).  This subpackage provides the
data structure plus the classical structural algorithms the decomposition
layer builds on: GYO reduction and acyclicity testing, the primal graph and
its components once a separator's vertices are deleted, join forests for
acyclic hypergraphs, and generators for the structured families used in the
experiments.
"""

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph
from repro.hypergraph.algorithms import (
    gyo_reduction,
    is_acyclic,
    primal_graph,
    vertex_connected_components,
)
from repro.hypergraph.jointree import JoinTreeNode, build_join_forest
from repro.hypergraph.dot import decomposition_to_dot, hypergraph_to_dot
from repro.hypergraph.generators import (
    clique_hypergraph,
    cycle_hypergraph,
    grid_hypergraph,
    line_hypergraph,
    random_hypergraph,
)

__all__ = [
    "Hyperedge",
    "Hypergraph",
    "gyo_reduction",
    "is_acyclic",
    "primal_graph",
    "vertex_connected_components",
    "decomposition_to_dot",
    "hypergraph_to_dot",
    "JoinTreeNode",
    "build_join_forest",
    "clique_hypergraph",
    "cycle_hypergraph",
    "grid_hypergraph",
    "line_hypergraph",
    "random_hypergraph",
]

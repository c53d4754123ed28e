"""Hinge decompositions (Gyssens–Jeavons–Cohen [8] in the paper's intro).

A *hinge tree* partitions the hyperedges into overlapping blocks (hinges):
adjacent blocks share exactly one hyperedge, and each block communicates
with the rest of the hypergraph only through single edges.  The **degree of
cyclicity** is the size of the largest hinge — evaluation cost is bounded
by joining each hinge's edges, so smaller is better.

Construction follows the GJC splitting procedure: starting from the trivial
hinge (all edges), repeatedly split a block N at an edge e ∈ N whenever the
e-relative components of N∖{e} are a *proper* refinement — each component Γ
becomes a child block Γ∪{e}, all sharing the hinge edge e.  When no block
splits, every block is a hinge and the tree is a hinge tree.

The interest for the paper: acyclic hypergraphs have degree ≤ 2, but a
simple n-cycle is a single unsplittable hinge of size n — hinge trees do
not help exactly where hypertree decompositions (width 2) do.  That gap is
reproduced in the tests and in ``examples/structural_analysis.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import HypergraphError
from repro.hypergraph.algorithms import connected_components
from repro.hypergraph.hypergraph import Hypergraph


class HingeNode:
    """One block of a hinge tree: a set of hyperedge names."""

    __slots__ = ("edges", "children", "shared_edge")

    def __init__(self, edges: FrozenSet[str], shared_edge: Optional[str] = None):
        self.edges = edges
        self.children: List["HingeNode"] = []
        #: the hinge edge shared with the parent (None at the root)
        self.shared_edge = shared_edge

    def add_child(self, child: "HingeNode") -> None:
        self.children.append(child)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"HingeNode({sorted(self.edges)})"


class HingeTree:
    """A hinge tree of a connected hypergraph."""

    def __init__(self, root: HingeNode, hypergraph: Hypergraph):
        self.root = root
        self.hypergraph = hypergraph

    def nodes(self) -> List[HingeNode]:
        return list(self.root.walk())

    @property
    def degree_of_cyclicity(self) -> int:
        """Size of the largest hinge — GJC's cyclicity measure."""
        return max(len(node.edges) for node in self.nodes())

    def covers_all_edges(self) -> bool:
        covered: Set[str] = set()
        for node in self.nodes():
            covered |= node.edges
        return covered == set(self.hypergraph.edge_names)

    def adjacent_blocks_share_one_edge(self) -> bool:
        for node in self.nodes():
            for child in node.children:
                shared = node.edges & child.edges
                if len(shared) != 1 or child.shared_edge not in shared:
                    return False
        return True

    def render(self) -> str:
        lines: List[str] = []

        def visit(node: HingeNode, depth: int) -> None:
            via = f" (via {node.shared_edge})" if node.shared_edge else ""
            lines.append("  " * depth + "{" + ", ".join(sorted(node.edges)) + "}" + via)
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


def _try_split(
    hypergraph: Hypergraph, node: HingeNode
) -> Optional[List[HingeNode]]:
    """Split one block at some hinge edge, or None if it is a hinge."""
    if len(node.edges) <= 2:
        return None
    for pivot in sorted(node.edges):
        rest = node.edges - {pivot}
        pivot_vars = hypergraph.edge(pivot).vertices
        components = connected_components(hypergraph, rest, pivot_vars)
        # Edges fully covered by the pivot's variables form their own
        # (trivially attached) blocks.
        component_union: Set[str] = set()
        for component in components:
            component_union |= component
        covered = rest - component_union
        blocks = [frozenset(component | {pivot}) for component in components]
        blocks += [frozenset({name, pivot}) for name in sorted(covered)]
        if len(blocks) >= 2:
            return [HingeNode(block, shared_edge=pivot) for block in blocks]
    return None


def hinge_decomposition(hypergraph: Hypergraph) -> HingeTree:
    """Compute a hinge tree by repeated splitting.

    Raises:
        HypergraphError: for an empty hypergraph.
    """
    edge_names = frozenset(hypergraph.edge_names)
    if not edge_names:
        raise HypergraphError("cannot hinge-decompose an empty hypergraph")

    root = HingeNode(edge_names)
    work = [root]
    while work:
        node = work.pop()
        pieces = _try_split(hypergraph, node)
        if pieces is None:
            continue
        # The first piece replaces the node's content; the rest hang off it.
        node.edges = pieces[0].edges
        for piece in pieces[1:]:
            node.add_child(piece)
            work.append(piece)
        work.append(node)

        # Re-home children that no longer share an edge with this node.
        for child in list(node.children):
            if child.shared_edge in node.edges:
                continue
            for other in pieces[1:]:
                if child.shared_edge in other.edges:
                    node.children.remove(child)
                    other.add_child(child)
                    break
    return HingeTree(root, hypergraph)


def degree_of_cyclicity(hypergraph: Hypergraph) -> int:
    """GJC's measure: the largest hinge in a hinge tree (1 for single edges)."""
    if len(hypergraph) == 0:
        return 0
    if len(hypergraph) == 1:
        return 1
    return hinge_decomposition(hypergraph).degree_of_cyclicity

"""Join-tree / join-forest construction for acyclic hypergraphs.

A *join forest* of a hypergraph has one node per hyperedge; for any two
hyperedges sharing variables, the shared variables appear on every node of
the (unique) path between them (§2 of the paper).  Acyclic queries are
exactly those admitting a join forest, and Yannakakis's algorithm runs over
it.

Construction rides on GYO reduction: when an ear ``h`` is absorbed by
``h'``, attach ``h`` as a child of ``h'``.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, List, Tuple, TypeVar

from repro.errors import HypergraphError
from repro.hypergraph.algorithms import gyo_reduction
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph


class JoinTreeNode:
    """One node of a join tree: a hyperedge plus its children."""

    __slots__ = ("edge", "children")

    def __init__(self, edge: Hyperedge):
        self.edge = edge
        self.children: List["JoinTreeNode"] = []

    def add_child(self, child: "JoinTreeNode") -> None:
        self.children.append(child)

    def walk(self) -> Iterable["JoinTreeNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def postorder(self) -> Iterable["JoinTreeNode"]:
        """Post-order traversal (children before parents) — Yannakakis order."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        return f"JoinTreeNode({self.edge!r}, children={len(self.children)})"


def build_join_forest(hypergraph: Hypergraph) -> List[JoinTreeNode]:
    """Build a join forest for an acyclic hypergraph.

    Returns one root per connected component.  Raises
    :class:`HypergraphError` if the hypergraph is cyclic.
    """
    if len(hypergraph) == 0:
        return []
    residual, removal_log = gyo_reduction(hypergraph)
    if len(residual) != 0:
        raise HypergraphError(
            "hypergraph is cyclic; no join forest exists "
            f"(irreducible core: {sorted(e.name for e in residual)})"
        )

    nodes: Dict[str, JoinTreeNode] = {
        edge.name: JoinTreeNode(edge) for edge in hypergraph
    }
    roots: List[JoinTreeNode] = []
    for removed, absorber in removal_log:
        if absorber is None:
            roots.append(nodes[removed])
        else:
            nodes[absorber].add_child(nodes[removed])
    return roots


def verify_join_tree(root: JoinTreeNode) -> bool:
    """Check the connectedness condition of a join tree.

    For every variable, the set of nodes containing it must induce a
    connected subtree.  Used by tests and by property-based checks.
    """
    return not disconnected_variables(root, lambda node: node.edge.vertices)


TreeNode = TypeVar("TreeNode")


def disconnected_variables(
    root: TreeNode, labels: Callable[[TreeNode], AbstractSet[str]]
) -> Dict[str, Tuple[int, int]]:
    """Variables whose holders do not induce a connected subtree.

    The connectedness condition of join trees and of (q-)hypertree
    decompositions alike.  ``labels`` gives a node's variables — its
    hyperedge, or χ; the tree is read through ``children``, pre-order,
    each node beside its parent's labels.  A variable's holders form a
    connected subtree iff exactly (holders − 1) of them have a parent also
    holding it.

    Returns:
        variable → (holders, holders linked to a parent holding it) for
        every violating variable, in order of first occurrence.
    """
    holders: Dict[str, int] = {}
    linked: Dict[str, int] = {}
    stack: List[Tuple[TreeNode, AbstractSet[str]]] = [(root, frozenset())]
    while stack:
        node, above = stack.pop()
        mine = labels(node)
        for variable in mine:
            holders[variable] = holders.get(variable, 0) + 1
            if variable in above:
                linked[variable] = linked.get(variable, 0) + 1
        stack.extend(
            (child, mine) for child in reversed(node.children)  # type: ignore[attr-defined]
        )
    return {
        variable: (count, linked.get(variable, 0))
        for variable, count in holders.items()
        if linked.get(variable, 0) != count - 1
    }

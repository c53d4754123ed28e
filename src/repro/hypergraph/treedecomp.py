"""Tree decompositions of the primal graph (related-work substrate).

The paper's introduction cites tree decompositions (Robertson–Seymour [9];
Flum–Frick–Grohe query evaluation [1]) among the structural methods that
hypertree decompositions generalize.  This module implements the standard
**min-fill elimination** heuristic: eliminate vertices in min-fill order
over the primal graph, emit one bag per elimination step, and connect each
bag to the first later bag containing its clique — a valid tree
decomposition whose width upper-bounds the treewidth.

The interest for the paper's story is the comparison: for a query Q,

    hw(H(Q))  ≤  tw(primal(Q)) + 1   …and often far smaller,

because a single wide hyperedge (a high-arity atom) blows up the primal
clique but costs hypertree width 1.  :func:`treewidth_min_fill` exposes the
heuristic width; :class:`TreeDecomposition` carries the bags and validates
the three tree-decomposition conditions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import DecompositionError, HypergraphError
from repro.hypergraph.algorithms import primal_graph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import disconnected_variables


class TreeBag:
    """One bag of a tree decomposition."""

    __slots__ = ("bag_id", "vertices", "children", "parent")

    def __init__(self, bag_id: int, vertices: Iterable[str]):
        self.bag_id = bag_id
        self.vertices: FrozenSet[str] = frozenset(vertices)
        self.children: List["TreeBag"] = []
        self.parent: Optional["TreeBag"] = None

    def add_child(self, child: "TreeBag") -> None:
        child.parent = self
        self.children.append(child)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"TreeBag({self.bag_id}, {sorted(self.vertices)})"


class TreeDecomposition:
    """A rooted tree decomposition of a graph (here: a query's primal graph)."""

    def __init__(self, root: TreeBag, universe: FrozenSet[str]):
        self.root = root
        self.universe = universe

    def bags(self) -> List[TreeBag]:
        return list(self.root.walk())

    @property
    def width(self) -> int:
        """max |bag| − 1, the tree-decomposition width."""
        return max(len(bag.vertices) for bag in self.bags()) - 1

    # -- the three conditions ---------------------------------------------

    def covers_vertices(self) -> bool:
        covered: Set[str] = set()
        for bag in self.bags():
            covered |= bag.vertices
        return covered >= self.universe

    def covers_edges(self, adjacency: Dict[str, Set[str]]) -> bool:
        bag_list = [bag.vertices for bag in self.bags()]
        for vertex, neighbours in adjacency.items():
            for other in neighbours:
                if vertex < other and not any(
                    vertex in bag and other in bag for bag in bag_list
                ):
                    return False
        return True

    def is_connected(self) -> bool:
        return not disconnected_variables(self.root, lambda bag: bag.vertices)

    def is_valid(self, adjacency: Dict[str, Set[str]]) -> bool:
        return (
            self.covers_vertices()
            and self.covers_edges(adjacency)
            and self.is_connected()
        )


def _min_fill_order(adjacency: Dict[str, Set[str]]) -> List[str]:
    """Elimination order by the min-fill heuristic (deterministic ties)."""
    graph = {v: set(neighbours) for v, neighbours in adjacency.items()}
    order: List[str] = []
    while graph:
        def fill_in(vertex: str) -> int:
            neighbours = sorted(graph[vertex])
            missing = 0
            for i, u in enumerate(neighbours):
                for w in neighbours[i + 1 :]:
                    if w not in graph[u]:
                        missing += 1
            return missing

        vertex = min(sorted(graph), key=fill_in)
        neighbours = sorted(graph[vertex])
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1 :]:
                graph[u].add(w)
                graph[w].add(u)
        for u in neighbours:
            graph[u].discard(vertex)
        del graph[vertex]
        order.append(vertex)
    return order


def tree_decomposition_min_fill(hypergraph: Hypergraph) -> TreeDecomposition:
    """Tree decomposition of the primal graph via min-fill elimination.

    Raises:
        HypergraphError: on an empty hypergraph.
    """
    if len(hypergraph.vertices) == 0:
        raise HypergraphError("cannot decompose an empty vertex set")
    adjacency = primal_graph(hypergraph)
    order = _min_fill_order(adjacency)
    position = {vertex: i for i, vertex in enumerate(order)}

    # Build bags: bag_i = {v_i} ∪ (neighbours of v_i later in the order,
    # in the progressively filled graph).
    graph = {v: set(neighbours) for v, neighbours in adjacency.items()}
    bags: List[TreeBag] = []
    bag_vertices: List[FrozenSet[str]] = []
    for index, vertex in enumerate(order):
        later = {u for u in graph[vertex] if position[u] > index}
        bag = TreeBag(index, {vertex} | later)
        bags.append(bag)
        bag_vertices.append(bag.vertices)
        neighbours = sorted(later)
        for i, u in enumerate(neighbours):
            for w in neighbours[i + 1 :]:
                graph[u].add(w)
                graph[w].add(u)
        for u in neighbours:
            graph[u].discard(vertex)

    # Connect bag_i to the bag of its earliest-later clique member.
    for index, vertex in enumerate(order):
        rest = bag_vertices[index] - {vertex}
        if not rest:
            continue
        target = min(position[u] for u in rest)
        bags[target].add_child(bags[index])

    roots = [bag for bag in bags if bag.parent is None]
    root = roots[-1]
    for other in roots[:-1]:
        root.add_child(other)  # disconnected components hang off the root
    return TreeDecomposition(root, hypergraph.vertices)


def treewidth_min_fill(hypergraph: Hypergraph) -> int:
    """Min-fill upper bound on the treewidth of the query's primal graph."""
    return tree_decomposition_min_fill(hypergraph).width


def structural_summary(hypergraph: Hypergraph) -> Dict[str, object]:
    """All structural measures side by side (the intro's methods).

    Returns a dict with acyclicity, hypertree width (exact, bounded search),
    the min-fill treewidth bound, and Freuder's biconnected width —
    the comparison that motivates hypertree decompositions.
    """
    from repro.core.detkdecomp import hypertree_width
    from repro.hypergraph.algorithms import is_acyclic
    from repro.hypergraph.biconnected import biconnected_width
    from repro.hypergraph.hinges import degree_of_cyclicity

    acyclic = is_acyclic(hypergraph)
    summary: Dict[str, object] = {
        "edges": len(hypergraph),
        "variables": len(hypergraph.vertices),
        "acyclic": acyclic,
        "biconnected_width": biconnected_width(hypergraph),
        "hinge_degree": degree_of_cyclicity(hypergraph),
    }
    if len(hypergraph.vertices) > 0:
        summary["treewidth_min_fill"] = treewidth_min_fill(hypergraph)
    try:
        summary["hypertree_width"] = hypertree_width(hypergraph, max_k=6)
    except DecompositionError:
        summary["hypertree_width"] = ">6"
    return summary

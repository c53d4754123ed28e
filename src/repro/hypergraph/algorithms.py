"""Classical structural algorithms on hypergraphs.

These are the primitives the decomposition layer is built on:

* **GYO reduction** — the Graham / Yu–Ozsoyoglu ear-removal procedure.  A
  hypergraph is (α-)acyclic iff GYO reduces it to nothing; the removal order
  additionally yields a join forest (see :mod:`repro.hypergraph.jointree`).
* **connected components** relative to a separator — the [λ]-components of
  det-k-decomp: edges of a sub-hypergraph connected once the separator's
  vertices are deleted.
* **primal graph** — the Gaifman graph of the hypergraph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph


def primal_graph(hypergraph: Hypergraph) -> Dict[str, Set[str]]:
    """Return the primal (Gaifman) graph as an adjacency mapping.

    Two vertices are adjacent iff they co-occur in some hyperedge.
    """
    adjacency: Dict[str, Set[str]] = {v: set() for v in hypergraph.vertices}
    for edge in hypergraph:
        for vertex in edge.vertices:
            adjacency[vertex] |= edge.vertices - {vertex}
    return adjacency


def gyo_reduction(
    hypergraph: Hypergraph,
) -> Tuple[Hypergraph, List[Tuple[str, Optional[str]]]]:
    """Run the GYO ear-removal procedure.

    Repeatedly:

    1. remove vertices that occur in exactly one hyperedge;
    2. remove a hyperedge whose (reduced) vertex set is contained in another
       hyperedge (an *ear*), recording which edge absorbed it.

    Returns:
        ``(residual, removal_log)`` where ``residual`` is the irreducible
        sub-hypergraph (empty iff the input was acyclic) and ``removal_log``
        is a list of ``(removed_edge_name, absorbing_edge_name)`` pairs in
        removal order.  The final surviving edge of an acyclic hypergraph is
        logged with absorber ``None``.
    """
    # Mutable reduced view: edge name -> current vertex set.
    current: Dict[str, Set[str]] = {
        edge.name: set(edge.vertices) for edge in hypergraph
    }
    incidence: Dict[str, Set[str]] = {}
    for name, verts in current.items():
        for vertex in verts:
            incidence.setdefault(vertex, set()).add(name)

    removal_log: List[Tuple[str, Optional[str]]] = []

    def drop_lonely_vertices() -> bool:
        changed = False
        lonely = [v for v, names in incidence.items() if len(names) == 1]
        for vertex in lonely:
            (owner,) = incidence[vertex]
            current[owner].discard(vertex)
            del incidence[vertex]
            changed = True
        return changed

    def drop_one_ear() -> bool:
        names = sorted(current)
        for name in names:
            verts = current[name]
            if not verts:
                # All vertices were lonely: the edge shared nothing with
                # anyone, so it is an isolated component — its own root.
                del current[name]
                removal_log.append((name, None))
                return True
            for other in names:
                if other == name:
                    continue
                if verts <= current[other]:
                    # `name` is an ear absorbed by `other`.
                    for vertex in verts:
                        incidence[vertex].discard(name)
                    del current[name]
                    removal_log.append((name, other))
                    return True
        return False

    progress = True
    while progress and current:
        progress = drop_lonely_vertices()
        progress = drop_one_ear() or progress

    if len(current) == 1:
        # A single irreducible edge means the hypergraph was acyclic.
        (last,) = current
        removal_log.append((last, None))
        current.clear()

    residual_edges = [
        Hyperedge(name, hypergraph.edge(name).vertices) for name in current
    ]
    return Hypergraph(residual_edges), removal_log


def is_acyclic(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph is α-acyclic (GYO-reducible to nothing)."""
    if len(hypergraph) == 0:
        return True
    residual, _log = gyo_reduction(hypergraph)
    return len(residual) == 0


def vertex_connected_components(
    hypergraph: Hypergraph, excluded_vertices: Iterable[str] = ()
) -> List[FrozenSet[str]]:
    """Vertex components of the hypergraph after deleting ``excluded_vertices``.

    Two vertices are connected if some hyperedge contains both (and neither
    is excluded).  Returns a deterministic (sorted) list of vertex sets.
    """
    excluded = frozenset(excluded_vertices)
    remaining = [v for v in sorted(hypergraph.vertices) if v not in excluded]
    adjacency = primal_graph(hypergraph)

    seen: Set[str] = set()
    components: List[FrozenSet[str]] = []
    for start in remaining:
        if start in seen:
            continue
        stack = [start]
        component: Set[str] = set()
        while stack:
            vertex = stack.pop()
            if vertex in seen or vertex in excluded:
                continue
            seen.add(vertex)
            component.add(vertex)
            stack.extend(
                nbr for nbr in adjacency[vertex] if nbr not in seen and nbr not in excluded
            )
        if component:
            components.append(frozenset(component))
    return components


def connected_components(
    hypergraph: Hypergraph,
    edge_names: Iterable[str],
    separator_vertices: Iterable[str],
) -> List[FrozenSet[str]]:
    """[λ]-components: partition ``edge_names`` by connectivity modulo a separator.

    Two edges are connected when they share a vertex **not** in
    ``separator_vertices``.  Edges entirely covered by the separator belong
    to no component (they need no further decomposition).  This is exactly
    the component notion used by det-k-decomp.

    Returns:
        The components as frozensets of edge names, ordered by each
        component's smallest edge name — a function of the partition alone,
        so it cannot depend on set iteration (string hashing).  The
        decomposition search orders the pieces of a split the same way
        (they become a node's children, in this order).
    """
    separator = frozenset(separator_vertices)
    # Edges are linked through shared non-separator vertices.  ``root`` names
    # each edge's group and ``members`` lists each group; on a link the group
    # of the vertex's first owner absorbs the newcomer's group (for an edge
    # bridging two earlier groups that follows set order; the final sort
    # does not).
    root: Dict[str, str] = {}
    members: Dict[str, List[str]] = {}
    vertex_owner: Dict[str, str] = {}
    for name in sorted(set(edge_names)):
        free_vertices = hypergraph.edge(name).vertices - separator
        if not free_vertices:
            continue  # fully covered by the separator
        root[name] = name
        members[name] = [name]
        for vertex in free_vertices:
            owner = vertex_owner.get(vertex)
            if owner is None:
                vertex_owner[vertex] = name
            elif root[owner] != root[name]:
                kept = root[owner]
                absorbed = members.pop(root[name])
                for member in absorbed:
                    root[member] = kept
                members[kept] += absorbed
    return [frozenset(group) for group in sorted(members.values(), key=min)]


def component_frontier(
    hypergraph: Hypergraph,
    component_edges: Iterable[str],
    separator_vertices: Iterable[str],
) -> FrozenSet[str]:
    """Vertices shared between a component and its separator.

    In det-k-decomp terms this is the *connector* set the child separator
    must cover: ``var(component) ∩ separator``.
    """
    separator = frozenset(separator_vertices)
    return frozenset(hypergraph.variables_of(component_edges) & separator)

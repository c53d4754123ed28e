"""Classical structural algorithms on hypergraphs.

These are the primitives the decomposition layer is built on:

* **GYO reduction** — the Graham / Yu–Ozsoyoglu ear-removal procedure.  A
  hypergraph is (α-)acyclic iff GYO reduces it to nothing; the removal order
  additionally yields a join forest (see :mod:`repro.hypergraph.jointree`).
* **vertex components** once a separator's vertices are deleted.
* **primal graph** — the Gaifman graph of the hypergraph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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

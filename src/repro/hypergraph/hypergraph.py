"""Core hypergraph data structure.

The decomposition algorithms treat hyperedges as *named* objects: two query
atoms over the same variable set are distinct hyperedges (the paper obtains
this by implicitly adding a fresh variable per atom; we simply key edges by
name).  Vertices are arbitrary hashable labels, in practice variable names.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Set, Tuple

from repro.errors import HypergraphError


class Hyperedge:
    """A named hyperedge: an immutable set of vertices with an identity.

    Equality and hashing are *by name*, so a :class:`Hypergraph` may contain
    two edges with identical vertex sets (e.g. two query atoms over the same
    relation), matching the paper's convention of distinguishing atoms by a
    fresh implicit variable.
    """

    __slots__ = ("name", "vertices")

    def __init__(self, name: str, vertices: Iterable[str]):
        self.name = name
        self.vertices: FrozenSet[str] = frozenset(vertices)
        if not isinstance(name, str) or not name:
            raise HypergraphError("hyperedge name must be a non-empty string")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hyperedge) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __contains__(self, vertex: str) -> bool:
        return vertex in self.vertices

    def __iter__(self) -> Iterator[str]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        inner = ", ".join(sorted(self.vertices))
        return f"{self.name}({inner})"

    def intersects(self, vertices: Iterable[str]) -> bool:
        """Return True if this edge shares at least one vertex with ``vertices``."""
        other = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        return not self.vertices.isdisjoint(other)


class Hypergraph:
    """A finite hypergraph with named hyperedges.

    Supports the operations needed by GYO reduction and the det-k-decomp /
    cost-k-decomp searches: vertex/edge lookup, incidence queries, and
    sub-hypergraphs induced by an edge subset.

    Args:
        edges: the hyperedges; names must be unique.
        extra_vertices: vertices that must exist even if no edge covers them
            (rare, but keeps round-trips through sub-hypergraphs lossless).
    """

    def __init__(
        self,
        edges: Iterable[Hyperedge] = (),
        extra_vertices: Iterable[str] = (),
    ):
        self._edges: Dict[str, Hyperedge] = {}
        self._incidence: Dict[str, Set[str]] = {}
        for vertex in extra_vertices:
            self._incidence.setdefault(vertex, set())
        for edge in edges:
            self.add_edge(edge)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Iterable[str]]) -> "Hypergraph":
        """Build a hypergraph from a ``{edge_name: vertices}`` mapping."""
        return cls(Hyperedge(name, verts) for name, verts in mapping.items())

    def add_edge(self, edge: Hyperedge) -> None:
        """Add ``edge``; raises :class:`HypergraphError` on a duplicate name."""
        if edge.name in self._edges:
            raise HypergraphError(f"duplicate hyperedge name: {edge.name!r}")
        self._edges[edge.name] = edge
        for vertex in edge.vertices:
            self._incidence.setdefault(vertex, set()).add(edge.name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> FrozenSet[str]:
        """All vertices (variables) of the hypergraph."""
        return frozenset(self._incidence)

    @property
    def edges(self) -> Tuple[Hyperedge, ...]:
        """All hyperedges, in insertion order."""
        return tuple(self._edges.values())

    @property
    def edge_names(self) -> Tuple[str, ...]:
        return tuple(self._edges)

    def edge(self, name: str) -> Hyperedge:
        """Look up a hyperedge by name."""
        try:
            return self._edges[name]
        except KeyError:
            raise HypergraphError(f"no hyperedge named {name!r}") from None

    def has_edge(self, name: str) -> bool:
        return name in self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Hyperedge]:
        return iter(self._edges.values())

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Hyperedge):
            return item.name in self._edges
        if isinstance(item, str):
            return item in self._edges
        return False

    def __repr__(self) -> str:
        parts = ", ".join(repr(edge) for edge in self._edges.values())
        return f"Hypergraph({parts})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        if set(self._edges) != set(other._edges):
            return False
        return all(
            self._edges[name].vertices == other._edges[name].vertices
            for name in self._edges
        ) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(
            frozenset((name, edge.vertices) for name, edge in self._edges.items())
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def variables_of(self, edge_names: Iterable[str]) -> FrozenSet[str]:
        """Union of the vertex sets of the named edges (``var(λ)`` in the paper)."""
        result: Set[str] = set()
        for name in edge_names:
            result |= self.edge(name).vertices
        return frozenset(result)

    def induced(self, edge_names: Iterable[str]) -> "Hypergraph":
        """The sub-hypergraph containing exactly the named edges."""
        return Hypergraph(self.edge(name) for name in edge_names)

    def isolated_vertices(self) -> FrozenSet[str]:
        """Vertices contained in no hyperedge (only possible via extra_vertices)."""
        return frozenset(v for v, names in self._incidence.items() if not names)

    def degree(self, vertex: str) -> int:
        """Number of hyperedges incident to ``vertex``."""
        if vertex not in self._incidence:
            raise HypergraphError(f"no vertex named {vertex!r}")
        return len(self._incidence[vertex])

    def copy(self) -> "Hypergraph":
        return Hypergraph(self.edges, extra_vertices=self.isolated_vertices())


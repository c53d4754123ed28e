"""det-k-decomp: search for a hypertree decomposition of width ≤ k.

A memoized recursive search in the style of Gottlob–Leone–Scarcello's
opt-k-decomp / det-k-decomp family.  Subproblems are pairs
``(component, connector)`` where *component* is a set of hyperedges still
to decompose and *connector* is the set of variables shared with the
parent's χ label (both integer bitsets, see :class:`_SearchSpace`).  For
each subproblem the algorithm enumerates λ-candidates (≤ k hyperedges
covering the connector and touching the component), sets

    χ(p) = var(λ(p)) ∩ (connector ∪ var(component)),

splits the component against χ(p) into its [χ(p)]-components and recurses.
This construction yields decompositions satisfying all four conditions of
Definition 1 (in particular the Special Descendant Condition), i.e. genuine
normal-form-style hypertree decompositions.

The top-level call may impose a set of variables the *root* χ must cover —
that is exactly how Algorithm q-HypertreeDecomp (Fig. 4 of the paper)
obtains condition 2 of Definition 2 (out(Q) ⊆ χ(root)).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DecompositionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.core.hypertree import Hypertree, HypertreeNode

#: The ``(sub-component, connector)`` pieces of one split, two bitsets each.
_Pieces = Tuple[Tuple[int, int], ...]


class _SearchSpace:
    """The ``(component, connector)`` subproblem space of one search.

    det-k-decomp and cost-k-decomp enumerate the same λ-candidates and split
    components the same way; this object is what they share.  It runs on
    Python ints: edges are numbered in sorted-name order and vertices in
    sorted order, a component is a bitset of edge numbers, and
    ``var(component)``, connectors and χ are bitsets of vertex numbers.
    Names reappear only in the λ tuples and through :meth:`names_of`.  The
    numbering and the memos belong to one search object and die with it
    (``Hypergraph`` is mutable; a numbering kept there would need an
    invalidation rule), so they need no lock, bound or invalidation.
    """

    def __init__(self, hypergraph: Hypergraph, k: int):
        self.k = k
        self.edge_variables = {edge.name: edge.vertices for edge in hypergraph}
        self._vertices = sorted(hypergraph.vertices)
        self._vertex_bit = {name: 1 << i for i, name in enumerate(self._vertices)}
        #: ``(edge name, var(edge))`` in edge-number order.
        self._edges: List[Tuple[str, int]] = [
            (name, self.vertex_mask(variables))
            for name, variables in sorted(self.edge_variables.items())
        ]
        self.all_edges = (1 << len(self._edges)) - 1
        # var(component): the root's here, every other one from the
        # ``split`` that produces the component.
        self._variables: Dict[int, int] = {self.all_edges: 0}
        for _name, variables in self._edges:
            self._variables[self.all_edges] |= variables
        self._splits: Dict[Tuple[int, int], _Pieces] = {}
        self._names: Dict[int, FrozenSet[str]] = {}

    def vertex_mask(self, names: Iterable[str]) -> int:
        """The bitset of a collection of variable names."""
        mask = 0
        for name in sorted(names):
            mask |= self._vertex_bit[name]
        return mask

    def names_of(self, variables: int) -> FrozenSet[str]:
        """The names in a bitset (the cost model and tree nodes take names)."""
        found = self._names.get(variables)
        if found is None:
            found = self._names[variables] = frozenset(
                name
                for number, name in enumerate(self._vertices)
                if variables >> number & 1
            )
        return found

    def separators(
        self, component: int, connector: int
    ) -> Iterator[Tuple[Tuple[str, ...], int]]:
        """Enumerate ``(λ, χ)`` candidates for a subproblem.

        A candidate λ is a set of 1..k hyperedges (from the *whole*
        hypergraph — edges outside the component may be needed to cover the
        connector) such that:

        * every connector variable is covered: connector ⊆ var(λ);
        * at least one candidate edge intersects the component's variables
          (progress guarantee);
        * no candidate edge is useless (each must intersect
          connector ∪ var(component));

        and χ = var(λ) ∩ (connector ∪ var(component)).  The order is that of
        ``itertools.combinations`` over the sorted relevant edges, size by
        size (ties between equal-cost decompositions break on it); each
        combination extends the union of its prefix by one edge instead of
        re-unioning all of its edges.
        """
        component_vars = self._variables[component]
        scope = connector | component_vars
        relevant = [edge for edge in self._edges if edge[1] & scope]
        count = len(relevant)
        prefixes: List[Tuple[Tuple[str, ...], int, int]] = [((), 0, 0)]
        for size in range(1, self.k + 1):
            extended = []
            for prefix, prefix_vars, start in prefixes:
                for index in range(start, count):
                    name, variables = relevant[index]
                    lam = prefix + (name,)
                    lam_vars = prefix_vars | variables
                    if size < self.k:
                        extended.append((lam, lam_vars, index + 1))
                    if connector & lam_vars == connector and lam_vars & component_vars:
                        yield lam, lam_vars & scope
            prefixes = extended

    def split(self, component: int, chi: int) -> _Pieces:
        """Split a component against χ into ``(sub-component, connector)`` pairs.

        The pieces are the [χ]-components of the component — edges linked
        through shared vertices outside χ; edges χ covers entirely belong
        to none — ordered by smallest member edge name (= lowest edge bit)
        and computed once per distinct ``(component, χ)`` of the search.  A
        piece is a subset of the component, so a split made no headway
        exactly when its first piece *is* the component.
        """
        key = (component, chi)
        pieces = self._splits.get(key)
        if pieces is None:
            pieces = self._splits[key] = self._flood(component, chi)
        return pieces

    def _flood(self, component: int, chi: int) -> _Pieces:
        free = ~chi
        pending = [
            (1 << number, variables)
            for number, (_name, variables) in enumerate(self._edges)
            if component >> number & 1 and variables & free
        ]
        pieces = []
        while pending:
            # The lowest unclaimed edge seeds a piece, which then absorbs
            # every edge sharing a free vertex with it, until none does.
            piece, piece_vars = pending[0]
            pending = pending[1:]
            grew = True
            while grew and pending:
                grew = False
                reach = piece_vars & free
                apart = []
                for edge in pending:
                    if edge[1] & reach:
                        piece |= edge[0]
                        piece_vars |= edge[1]
                        reach = piece_vars & free
                        grew = True
                    else:
                        apart.append(edge)
                pending = apart
            self._variables[piece] = piece_vars
            pieces.append((piece, piece_vars & chi))
        return tuple(pieces)


class DetKDecomp:
    """Stateful det-k-decomp search with success/failure memoization."""

    def __init__(self, hypergraph: Hypergraph, k: int):
        if k < 1:
            raise DecompositionError("width bound k must be at least 1")
        self.hypergraph = hypergraph
        self.k = k
        self._space = _SearchSpace(hypergraph, k)
        # Memoised nodes are shared by every candidate parent that reuses a
        # subproblem (a DAG, ``parent`` pointers meaningless);
        # ``decompose()`` clones the result into a proper tree.
        self._memo: Dict[Tuple[int, int], Optional[HypertreeNode]] = {}

    def decompose(
        self, required_root_cover: Iterable[str] = ()
    ) -> Optional[Hypertree]:
        """Search for a width-≤k decomposition.

        Args:
            required_root_cover: variables the root's χ must contain (the
                out(Q) requirement of Def. 2).  They must be covered by the
                root's λ since this search keeps χ ⊆ var(λ).

        Returns:
            A :class:`Hypertree` satisfying Definition 1, or None.
        """
        cover = frozenset(required_root_cover)
        unknown = cover - self.hypergraph.vertices
        if unknown:
            raise DecompositionError(
                f"required root-cover variables not in hypergraph: {sorted(unknown)}"
            )
        if not len(self.hypergraph):
            root = HypertreeNode(chi=cover, lam=())
            return Hypertree(root, self.hypergraph)
        space = self._space
        node = self._solve(space.all_edges, space.vertex_mask(cover))
        if node is None:
            return None
        return Hypertree(node.clone(), self.hypergraph)

    # ------------------------------------------------------------------

    def _solve(self, component: int, connector: int) -> Optional[HypertreeNode]:
        key = (component, connector)
        if key not in self._memo:
            self._memo[key] = self._search(component, connector)
        return self._memo[key]

    def _search(self, component: int, connector: int) -> Optional[HypertreeNode]:
        space = self._space
        for lam, chi in space.separators(component, connector):
            pieces = space.split(component, chi)
            # Progress guarantee: every sub-component must be strictly
            # smaller, otherwise the candidate made no headway.
            if pieces and pieces[0][0] == component:
                continue
            children: List[HypertreeNode] = []
            for sub, sub_connector in pieces:
                child = self._solve(sub, sub_connector)
                if child is None:
                    break
                children.append(child)
            if len(children) == len(pieces):
                return HypertreeNode(space.names_of(chi), lam, children)
        return None


def det_k_decomp(
    hypergraph: Hypergraph,
    k: int,
    required_root_cover: Iterable[str] = (),
) -> Optional[Hypertree]:
    """Find a hypertree decomposition of width ≤ k, or None.

    Args:
        hypergraph: the query hypergraph H(Q).
        k: the width bound (the paper notes k = 4 suffices for database
            queries in practice).
        required_root_cover: variables the root χ must contain — pass
            out(Q) to satisfy Definition 2's condition 2.
    """
    return DetKDecomp(hypergraph, k).decompose(required_root_cover)


def hypertree_width(hypergraph: Hypergraph, max_k: int = 8) -> int:
    """Exact hypertree width via iterative deepening on det-k-decomp.

    Raises:
        DecompositionError: when the width exceeds ``max_k``.
    """
    if len(hypergraph) == 0:
        return 0
    for k in range(1, max_k + 1):
        if det_k_decomp(hypergraph, k) is not None:
            return k
    raise DecompositionError(
        f"hypertree width exceeds the search bound max_k={max_k}"
    )

"""det-k-decomp: search for a hypertree decomposition of width ≤ k.

A memoized recursive search in the style of Gottlob–Leone–Scarcello's
opt-k-decomp / det-k-decomp family.  Subproblems are pairs
``(component, connector)`` where *component* is a set of hyperedge names
still to decompose and *connector* is the set of variables shared with the
parent's χ label.  For each subproblem the algorithm enumerates λ-candidates
(≤ k hyperedges covering the connector and touching the component), sets

    χ(p) = var(λ(p)) ∩ (connector ∪ var(component)),

splits the component against χ(p) (see
:func:`repro.hypergraph.algorithms.connected_components`) and recurses.
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
from repro.hypergraph.algorithms import connected_components
from repro.hypergraph.hypergraph import Hypergraph
from repro.core.hypertree import Hypertree, HypertreeNode

_FAIL = None


class _SearchSpace:
    """The ``(component, connector)`` subproblem space of one search.

    det-k-decomp and cost-k-decomp enumerate the same λ-candidates and split
    components the same way; this object is what they share.  It belongs to
    one search object and dies with it, so its ``var(component)`` memo needs
    no lock, bound or invalidation.
    """

    def __init__(self, hypergraph: Hypergraph, k: int):
        self.hypergraph = hypergraph
        self.k = k
        self.edge_variables: Dict[str, FrozenSet[str]] = {
            edge.name: edge.vertices for edge in hypergraph
        }
        self._sorted_edges = sorted(self.edge_variables.items())
        self._variables: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def variables_of(self, edges: FrozenSet[str]) -> FrozenSet[str]:
        """``var(edges)``, computed once per distinct edge set."""
        found = self._variables.get(edges)
        if found is None:
            found = self._variables[edges] = self.hypergraph.variables_of(edges)
        return found

    def separators(
        self, component: FrozenSet[str], connector: FrozenSet[str]
    ) -> Iterator[Tuple[Tuple[str, ...], FrozenSet[str]]]:
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
        component_vars = self.variables_of(component)
        scope = connector | component_vars
        relevant = [
            edge for edge in self._sorted_edges if not edge[1].isdisjoint(scope)
        ]
        count = len(relevant)
        prefixes: List[Tuple[Tuple[str, ...], FrozenSet[str], int]] = [
            ((), frozenset(), 0)
        ]
        for size in range(1, self.k + 1):
            extended = []
            for prefix, prefix_vars, start in prefixes:
                for index in range(start, count):
                    name, variables = relevant[index]
                    lam = prefix + (name,)
                    lam_vars = prefix_vars | variables
                    if size < self.k:
                        extended.append((lam, lam_vars, index + 1))
                    if connector <= lam_vars and not lam_vars.isdisjoint(
                        component_vars
                    ):
                        yield lam, lam_vars & scope
            prefixes = extended

    def split(
        self, component: FrozenSet[str], chi: FrozenSet[str]
    ) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
        """Split a component against χ; returns (sub-component, connector) pairs."""
        return [
            (sub, self.variables_of(sub) & chi)
            for sub in connected_components(self.hypergraph, component, chi)
        ]


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
        self._memo: Dict[
            Tuple[FrozenSet[str], FrozenSet[str]], Optional[HypertreeNode]
        ] = {}

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
        all_edges = frozenset(edge.name for edge in self.hypergraph)
        cover = frozenset(required_root_cover)
        unknown = cover - self.hypergraph.vertices
        if unknown:
            raise DecompositionError(
                f"required root-cover variables not in hypergraph: {sorted(unknown)}"
            )
        if not all_edges:
            root = HypertreeNode(chi=cover, lam=())
            return Hypertree(root, self.hypergraph)
        node = self._solve(all_edges, cover)
        if node is None:
            return None
        return Hypertree(node.clone(), self.hypergraph)

    # ------------------------------------------------------------------

    def _solve(
        self, component: FrozenSet[str], connector: FrozenSet[str]
    ) -> Optional[HypertreeNode]:
        key = (component, connector)
        if key not in self._memo:
            self._memo[key] = self._search(component, connector)
        return self._memo[key]

    def _search(
        self, component: FrozenSet[str], connector: FrozenSet[str]
    ) -> Optional[HypertreeNode]:
        for lam, chi in self._space.separators(component, connector):
            pieces = self._space.split(component, chi)
            # Progress guarantee: every sub-component must be strictly
            # smaller, otherwise the candidate made no headway.
            if any(len(sub) >= len(component) for sub, _ in pieces):
                continue
            children: List[HypertreeNode] = []
            for sub, sub_connector in pieces:
                child = self._solve(sub, sub_connector)
                if child is None:
                    break
                children.append(child)
            if len(children) == len(pieces):
                return HypertreeNode(chi=chi, lam=lam, children=children)
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

"""Hypertrees ⟨T, χ, λ⟩ and decomposition condition checkers.

A *hypertree* for a hypergraph H is a rooted tree whose nodes carry two
labels: χ(p) ⊆ var(H) and λ(p) ⊆ edges(H) (§3.1 of the paper).  The width
is max |λ(p)|.

The checkers implement, verbatim:

* Definition 1 (hypertree decomposition): edge coverage, connectedness,
  χ ⊆ var(λ), and the Special Descendant Condition;
* generalized hypertree decomposition: Definition 1 minus condition 4;
* Definition 2 (q-hypertree decomposition): edge coverage, an out(Q)-
  covering node, and connectedness — conditions 3/4 of Def. 1 dropped.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import DecompositionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import disconnected_variables


class HypertreeNode:
    """One decomposition-tree node with its χ and λ labels.

    Attributes:
        chi: the variable label χ(p).
        lam: the edge label λ(p) — *edge names*, order preserved.
        children: child nodes.
        guards: filled by Procedure Optimize — maps a removed atom name to
            the child node whose λ-atom subsumes its bounding role; the
            evaluator joins guard children before other siblings.
    """

    _counter = itertools.count()

    __slots__ = ("node_id", "chi", "lam", "children", "guards")

    def __init__(
        self,
        chi: Iterable[str],
        lam: Iterable[str],
        children: Iterable["HypertreeNode"] = (),
    ):
        self.node_id = next(HypertreeNode._counter)
        self.chi: FrozenSet[str] = frozenset(chi)
        self.lam: Tuple[str, ...] = tuple(lam)
        self.children: List[HypertreeNode] = []
        self.guards: Dict[str, "HypertreeNode"] = {}
        for child in children:
            self.add_child(child)

    def add_child(self, child: "HypertreeNode") -> None:
        self.children.append(child)

    # -- traversal -------------------------------------------------------

    def walk(self) -> Iterator["HypertreeNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def postorder(self) -> Iterator["HypertreeNode"]:
        for child in self.children:
            yield from child.postorder()
        yield self

    def subtree_chi(self) -> FrozenSet[str]:
        """χ(T_p): all variables in the subtree rooted here."""
        result: Set[str] = set()
        for node in self.walk():
            result |= node.chi
        return frozenset(result)

    def ordered_children(self) -> List["HypertreeNode"]:
        """Children with Optimize guards first (paper's topological caveat).

        When Procedure Optimize removed an atom from this node's λ because a
        child bounds its variables, that child must be joined before the
        other siblings, otherwise intermediate results may blow up
        exponentially (end of §4.1).
        """
        guard_ids = {id(node) for node in self.guards.values()}
        guards = [c for c in self.children if id(c) in guard_ids]
        rest = [c for c in self.children if id(c) not in guard_ids]
        return guards + rest

    def clone(self) -> "HypertreeNode":
        """Deep copy of the subtree rooted here (guards re-linked)."""
        copy = HypertreeNode(self.chi, self.lam)
        child_map: Dict[int, HypertreeNode] = {}
        for child in self.children:
            child_copy = child.clone()
            child_map[id(child)] = child_copy
            copy.add_child(child_copy)
        copy.guards = {
            atom: child_map[id(node)]
            for atom, node in self.guards.items()
            if id(node) in child_map
        }
        return copy

    def __repr__(self) -> str:
        return (
            f"HypertreeNode(chi={sorted(self.chi)}, lam={list(self.lam)}, "
            f"children={len(self.children)})"
        )


class Hypertree:
    """A hypertree for a hypergraph, i.e. a candidate decomposition.

    Args:
        root: the root node.
        hypergraph: the hypergraph being decomposed; checkers validate the
            λ labels against its edges.
    """

    def __init__(self, root: HypertreeNode, hypergraph: Hypergraph):
        self.root = root
        self.hypergraph = hypergraph
        for node in root.walk():
            for edge_name in node.lam:
                if not hypergraph.has_edge(edge_name):
                    raise DecompositionError(
                        f"λ label references unknown hyperedge {edge_name!r}"
                    )

    # -- basics ----------------------------------------------------------

    def nodes(self) -> List[HypertreeNode]:
        return list(self.root.walk())

    def __len__(self) -> int:
        return sum(1 for _ in self.root.walk())

    @property
    def width(self) -> int:
        """max_p |λ(p)| — the hypertree width of this decomposition."""
        return max(len(node.lam) for node in self.root.walk())

    def lambda_variables(self, node: HypertreeNode) -> FrozenSet[str]:
        """var(λ(p)) for a node of this tree."""
        return self.hypergraph.variables_of(node.lam)

    def clone(self) -> "Hypertree":
        return Hypertree(self.root.clone(), self.hypergraph)

    def atom_occurrences(self) -> Dict[str, List[HypertreeNode]]:
        """Map each hyperedge name to the nodes whose λ contains it."""
        occurrences: Dict[str, List[HypertreeNode]] = {}
        for node in self.root.walk():
            for edge_name in node.lam:
                occurrences.setdefault(edge_name, []).append(node)
        return occurrences

    # -- condition checkers ------------------------------------------------

    def covers_all_edges(self) -> bool:
        """Condition 1: every hyperedge h has a node with h ⊆ χ(p)."""
        return not self.uncovered_edges()

    def uncovered_edges(self) -> List[str]:
        """Hyperedges violating condition 1 (empty list = all covered)."""
        nodes = self.nodes()
        missing = []
        for edge in self.hypergraph:
            if not any(edge.vertices <= node.chi for node in nodes):
                missing.append(edge.name)
        return missing

    def satisfies_connectedness(self) -> bool:
        """Condition 2 of Def. 1 / condition 3 of Def. 2.

        For every variable Y, the nodes with Y ∈ χ(p) induce a connected
        subtree (see :func:`repro.hypergraph.jointree.disconnected_variables`).
        """
        return not disconnected_variables(self.root, lambda node: node.chi)

    def chi_covered_by_lambda(self) -> bool:
        """Condition 3 of Def. 1: χ(p) ⊆ var(λ(p)) at every node."""
        return all(
            node.chi <= self.lambda_variables(node) for node in self.root.walk()
        )

    def satisfies_special_condition(self) -> bool:
        """Condition 4 of Def. 1: var(λ(p)) ∩ χ(T_p) ⊆ χ(p)."""
        return all(
            (self.lambda_variables(node) & node.subtree_chi()) <= node.chi
            for node in self.root.walk()
        )

    def is_generalized_hypertree_decomposition(self) -> bool:
        """Def. 1 conditions 1–3 (Special Descendant Condition dropped)."""
        return (
            self.covers_all_edges()
            and self.satisfies_connectedness()
            and self.chi_covered_by_lambda()
        )

    def is_hypertree_decomposition(self) -> bool:
        """All four conditions of Definition 1."""
        return (
            self.is_generalized_hypertree_decomposition()
            and self.satisfies_special_condition()
        )

    def is_q_hypertree_decomposition(self, output_variables: Iterable[str]) -> bool:
        """Definition 2: edge coverage, an out(Q)-covering node, connectedness.

        Note the root need not be the covering node for the *property* to
        hold, but Algorithm q-HypertreeDecomp always roots the tree at it.
        """
        out = frozenset(output_variables)
        has_cover = any(out <= node.chi for node in self.root.walk())
        return has_cover and self.covers_all_edges() and self.satisfies_connectedness()

    def output_cover_node(
        self, output_variables: Iterable[str]
    ) -> Optional[HypertreeNode]:
        """A node covering out(Q), preferring the root (Def. 2 condition 2)."""
        out = frozenset(output_variables)
        if out <= self.root.chi:
            return self.root
        for node in self.root.walk():
            if out <= node.chi:
                return node
        return None

    # -- reporting ---------------------------------------------------------

    def render(self) -> str:
        """Human-readable indented rendering of the decomposition tree."""
        lines: List[str] = []
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            chi = ", ".join(sorted(node.chi))
            lam = ", ".join(node.lam) if node.lam else "∅"
            guard_note = ""
            if node.guards:
                pairs = ", ".join(
                    f"{atom}→{child.node_id}" for atom, child in node.guards.items()
                )
                guard_note = f"  [guards: {pairs}]"
            lines.append(
                "  " * depth + f"[{node.node_id}] λ={{{lam}}} χ={{{chi}}}{guard_note}"
            )
            stack.extend((child, depth + 1) for child in reversed(node.children))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Hypertree(width={self.width}, nodes={len(self)})"


def make_node(
    chi: Iterable[str],
    lam: Iterable[str],
    children: Iterable[HypertreeNode] = (),
) -> HypertreeNode:
    """Convenience constructor used by tests and the search algorithms."""
    return HypertreeNode(chi, lam, children)

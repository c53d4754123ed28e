"""Decomposition validation with human-readable diagnostics.

The boolean checkers on :class:`repro.core.hypertree.Hypertree` answer
*whether* a condition holds; this module explains *where it fails* — which
edge is uncovered, which variable's occurrence set is disconnected, which
node breaks the Special Descendant Condition, which atom is joined nowhere.
Useful for debugging hand-built decompositions and for the test-suite's
negative cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hypergraph.jointree import disconnected_variables
from repro.query.conjunctive import ConjunctiveQuery
from repro.core.hypertree import Hypertree


@dataclass
class Violation:
    """One diagnostic finding.

    Attributes:
        condition: short identifier ("edge-coverage", "connectedness",
            "chi-subset-lambda", "special-descendant", "output-cover",
            "atom-assignment", "guard-integrity").
        message: human-readable explanation.
        node_id: decomposition node involved, when applicable.
    """

    condition: str
    message: str
    node_id: Optional[int] = None

    def __str__(self) -> str:
        where = f" (node {self.node_id})" if self.node_id is not None else ""
        return f"[{self.condition}]{where} {self.message}"


@dataclass
class ValidationReport:
    """All violations found, grouped by severity-free condition ids."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_condition(self, condition: str) -> List[Violation]:
        return [v for v in self.violations if v.condition == condition]

    def render(self) -> str:
        if self.ok:
            return "decomposition valid: no violations"
        return "\n".join(str(v) for v in self.violations)


def validate_decomposition(
    decomposition: Hypertree,
    query: Optional[ConjunctiveQuery] = None,
    require_hd_conditions: bool = False,
) -> ValidationReport:
    """Validate a decomposition, optionally against a query (Def. 2).

    Args:
        decomposition: the hypertree to check.
        query: when given, also check the q-HD requirements — out(Q)
            covered by the root's χ, and every atom assigned to some λ.
        require_hd_conditions: additionally check conditions 3 and 4 of
            Definition 1 (χ ⊆ var(λ), Special Descendant Condition) — these
            do NOT hold for optimized q-hypertree decompositions, by design.
    """
    report = ValidationReport()
    nodes = decomposition.nodes()

    # Condition 1: edge coverage.
    for edge_name in decomposition.uncovered_edges():
        report.violations.append(
            Violation(
                "edge-coverage",
                f"hyperedge {edge_name!r} is contained in no node's χ label",
            )
        )

    # Connectedness.
    disconnected = disconnected_variables(decomposition.root, lambda node: node.chi)
    for variable, (held, linked) in disconnected.items():
        report.violations.append(
            Violation(
                "connectedness",
                f"variable {variable!r} occurs in {held} nodes "
                f"but only {linked} of them connect to a parent holding it",
            )
        )

    if require_hd_conditions:
        for node in nodes:
            lam_vars = decomposition.lambda_variables(node)
            extra = node.chi - lam_vars
            if extra:
                report.violations.append(
                    Violation(
                        "chi-subset-lambda",
                        f"χ variables {sorted(extra)} not covered by λ",
                        node_id=node.node_id,
                    )
                )
            stray = (lam_vars & node.subtree_chi()) - node.chi
            if stray:
                report.violations.append(
                    Violation(
                        "special-descendant",
                        f"λ variables {sorted(stray)} reappear below but are "
                        "missing from this node's χ",
                        node_id=node.node_id,
                    )
                )

    if query is not None:
        out = query.output_variables
        if not out <= decomposition.root.chi:
            missing = sorted(out - decomposition.root.chi)
            report.violations.append(
                Violation(
                    "output-cover",
                    f"output variables {missing} missing from the root's χ "
                    "(Definition 2, condition 2)",
                    node_id=decomposition.root.node_id,
                )
            )
        placed = set()
        for node in nodes:
            placed.update(node.lam)
        for atom in query.atoms:
            if atom.variables and atom.name not in placed:
                report.violations.append(
                    Violation(
                        "atom-assignment",
                        f"atom {atom.name!r} occurs in no λ label: its "
                        "relation would never be joined",
                    )
                )

    # Guard integrity (set by Procedure Optimize).
    for node in nodes:
        for atom_name, guard in node.guards.items():
            if guard not in node.children:
                report.violations.append(
                    Violation(
                        "guard-integrity",
                        f"guard for removed atom {atom_name!r} is not a "
                        "child of the node",
                        node_id=node.node_id,
                    )
                )
            if atom_name in node.lam:
                report.violations.append(
                    Violation(
                        "guard-integrity",
                        f"atom {atom_name!r} has a guard but still sits in λ",
                        node_id=node.node_id,
                    )
                )
    return report

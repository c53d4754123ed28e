"""Logical/physical join plans of the simulated DBMS.

A plan is a binary tree over base-table scans.  The optimizer annotates
each node with its estimated cardinality; EXPLAIN-style rendering shows the
chosen join order — which is the entire story the paper's baselines tell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Tuple

from repro.errors import OptimizationError


@dataclass
class PlanNode:
    """Base class for plan nodes."""

    estimated_rows: float = field(default=0.0, init=False)

    @property
    def aliases(self) -> FrozenSet[str]:
        raise NotImplementedError

    def walk(self) -> Iterator["PlanNode"]:
        raise NotImplementedError


@dataclass
class ScanNode(PlanNode):
    """Scan of one FROM-clause alias (filters are applied at scan time
    unless the engine profile disables pushdown)."""

    alias: str
    relation: str

    def __post_init__(self) -> None:
        self.estimated_rows = 0.0

    @property
    def aliases(self) -> FrozenSet[str]:
        return frozenset({self.alias})

    def walk(self) -> Iterator[PlanNode]:
        yield self

    def __str__(self) -> str:
        if self.alias != self.relation:
            return f"Scan({self.relation} AS {self.alias})"
        return f"Scan({self.relation})"


@dataclass
class JoinNode(PlanNode):
    """Join of two sub-plans on their shared CQ variables.

    ``algorithm`` selects the physical operator: ``"hash"`` (default) or
    ``"nlj"`` (nested loops — chosen by the engine when one input is tiny).
    """

    left: PlanNode
    right: PlanNode
    shared_variables: Tuple[str, ...] = ()
    algorithm: str = "hash"

    def __post_init__(self) -> None:
        self.estimated_rows = 0.0

    @property
    def aliases(self) -> FrozenSet[str]:
        return self.left.aliases | self.right.aliases

    @property
    def is_cross_product(self) -> bool:
        return not self.shared_variables

    def walk(self) -> Iterator[PlanNode]:
        yield self
        yield from self.left.walk()
        yield from self.right.walk()

    def __str__(self) -> str:
        if self.is_cross_product:
            kind = "CrossJoin"
        else:
            kind = "NestedLoopJoin" if self.algorithm == "nlj" else "HashJoin"
        on = ", ".join(self.shared_variables)
        return f"{kind}[{on}]"


def left_deep_plan(order: List[ScanNode], shared_for) -> PlanNode:
    """Build a left-deep plan following ``order``.

    Args:
        order: scan nodes in join order (first is the leftmost).
        shared_for: callable ``(prefix_aliases, scan) -> tuple of shared
            variables`` supplying the join keys at each step.
    """
    if not order:
        raise OptimizationError("cannot build a plan with no relations")
    plan: PlanNode = order[0]
    for scan in order[1:]:
        shared = tuple(shared_for(plan.aliases, scan))
        plan = JoinNode(plan, scan, shared)
    return plan


def render_plan(plan: PlanNode, indent: int = 0) -> str:
    """Indented EXPLAIN-style rendering with row estimates."""
    pad = "  " * indent
    if isinstance(plan, ScanNode):
        return f"{pad}{plan}  (rows≈{plan.estimated_rows:.0f})"
    if isinstance(plan, JoinNode):
        head = f"{pad}{plan}  (rows≈{plan.estimated_rows:.0f})"
        return "\n".join(
            [head, render_plan(plan.left, indent + 1), render_plan(plan.right, indent + 1)]
        )
    raise OptimizationError(f"unknown plan node {plan!r}")

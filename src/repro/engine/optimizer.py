"""System-R-style dynamic-programming join-order optimization.

The quantitative half of the paper's story.  Two search spaces:

* ``"leftdeep"`` — only left-deep trees (what the paper's PostgreSQL
  profile uses below the GEQO threshold);
* ``"bushy"`` — all bushy trees (the CommDB profile).

Cost metric is C_out: the sum of estimated intermediate result sizes.
Cross products are only considered when the join graph is disconnected
(the standard System-R restriction).  A ``"syntactic"`` mode builds the
FROM-clause-order left-deep plan without consulting estimates at all — the
"optimizer disabled / statistics unavailable" baseline of Fig. 8.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import OptimizationError
from repro.engine.cost import Estimate, join
from repro.engine.plan import JoinNode, PlanNode, ScanNode, left_deep_plan
from repro.query.translate import TranslationResult


class JoinGraph:
    """Aliases as nodes; an edge wherever two atoms share a CQ variable."""

    def __init__(self, translation: TranslationResult):
        self.translation = translation
        self.atom_variables: Dict[str, FrozenSet[str]] = {
            atom.name: atom.variables for atom in translation.query.atoms
        }
        self.aliases: Tuple[str, ...] = tuple(
            atom.name for atom in translation.query.atoms
        )

    def shared_variables(
        self, left: FrozenSet[str], right: FrozenSet[str]
    ) -> Tuple[str, ...]:
        """Variables shared between two alias groups (the join keys)."""
        left_vars: Set[str] = set()
        for alias in sorted(left):
            left_vars |= self.atom_variables[alias]
        right_vars: Set[str] = set()
        for alias in sorted(right):
            right_vars |= self.atom_variables[alias]
        return tuple(sorted(left_vars & right_vars))

    def connected_components(self) -> List[FrozenSet[str]]:
        """Connected components of the join graph (by shared variables)."""
        remaining = set(self.aliases)
        components: List[FrozenSet[str]] = []
        while remaining:
            start = sorted(remaining)[0]
            group = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for other in sorted(remaining - group):
                    if self.atom_variables[current] & self.atom_variables[other]:
                        group.add(other)
                        frontier.append(other)
            components.append(frozenset(group))
            remaining -= group
        return components


class JoinOrderOptimizer:
    """DP join enumeration over a join graph, from per-alias estimates
    (:func:`repro.engine.cost.atom_estimates`)."""

    def __init__(
        self,
        translation: TranslationResult,
        estimates: Mapping[str, Estimate],
        search: str = "bushy",
    ):
        if search not in ("bushy", "leftdeep"):
            raise OptimizationError(f"unknown search space {search!r}")
        self.graph = JoinGraph(translation)
        self.estimates = estimates
        self.search = search

    # ------------------------------------------------------------------

    def optimize(self) -> PlanNode:
        """Best plan over all FROM aliases (components cross-joined last,
        smallest first)."""
        components = self.graph.connected_components()
        plans: List[Tuple[PlanNode, Estimate, float]] = []
        for component in components:
            plans.append(self._optimize_component(component))
        plans.sort(key=lambda item: item[1].rows)
        plan, estimate, _cost = plans[0]
        for other_plan, other_estimate, _other_cost in plans[1:]:
            estimate = join(estimate, other_estimate, ())
            node = JoinNode(plan, other_plan, ())
            node.estimated_rows = estimate.rows
            plan = node
        return plan

    # ------------------------------------------------------------------

    def _scan(self, alias: str) -> Tuple[PlanNode, Estimate, float]:
        relation = self.graph.translation.query.atom(alias).relation
        node = ScanNode(alias, relation)
        estimate = self.estimates[alias]
        node.estimated_rows = estimate.rows
        return node, estimate, estimate.rows

    def _optimize_component(
        self, component: FrozenSet[str]
    ) -> Tuple[PlanNode, Estimate, float]:
        if len(component) == 1:
            (alias,) = component
            return self._scan(alias)
        if self.search == "bushy":
            return self._dp_bushy(component)
        return self._dp_leftdeep(component)

    def _dp_leftdeep(
        self, component: FrozenSet[str]
    ) -> Tuple[PlanNode, Estimate, float]:
        best: Dict[FrozenSet[str], Tuple[float, PlanNode, Estimate]] = {}
        for alias in sorted(component):
            plan, estimate, cost = self._scan(alias)
            best[frozenset({alias})] = (cost, plan, estimate)

        ordered_aliases = sorted(component)
        for size in range(2, len(component) + 1):
            for subset in itertools.combinations(ordered_aliases, size):
                subset_key = frozenset(subset)
                champion: Optional[Tuple[float, PlanNode, Estimate]] = None
                for alias in subset:
                    rest = subset_key - {alias}
                    if rest not in best:
                        continue
                    shared = self.graph.shared_variables(rest, frozenset({alias}))
                    if not shared:
                        continue  # no cross products inside a component
                    rest_cost, rest_plan, rest_estimate = best[rest]
                    scan_plan, scan_estimate, scan_cost = self._scan(alias)
                    joined = join(
                        rest_estimate, scan_estimate, shared
                    )
                    cost = rest_cost + scan_cost + joined.rows
                    if champion is None or cost < champion[0]:
                        node = JoinNode(rest_plan, scan_plan, shared)
                        node.estimated_rows = joined.rows
                        champion = (cost, node, joined)
                if champion is not None:
                    best[subset_key] = champion
        return self._finish(best, component)

    def _dp_bushy(
        self, component: FrozenSet[str]
    ) -> Tuple[PlanNode, Estimate, float]:
        best: Dict[FrozenSet[str], Tuple[float, PlanNode, Estimate]] = {}
        for alias in sorted(component):
            plan, estimate, cost = self._scan(alias)
            best[frozenset({alias})] = (cost, plan, estimate)

        ordered_aliases = sorted(component)
        for size in range(2, len(component) + 1):
            for subset in itertools.combinations(ordered_aliases, size):
                subset_key = frozenset(subset)
                champion: Optional[Tuple[float, PlanNode, Estimate]] = None
                for split_size in range(1, size // 2 + 1):
                    for left in itertools.combinations(subset, split_size):
                        left_key = frozenset(left)
                        right_key = subset_key - left_key
                        if left_key not in best or right_key not in best:
                            continue
                        # Canonicalize symmetric splits at the midpoint.
                        if len(left_key) == len(right_key) and min(left_key) > min(
                            right_key
                        ):
                            continue
                        shared = self.graph.shared_variables(left_key, right_key)
                        if not shared:
                            continue
                        lcost, lplan, lest = best[left_key]
                        rcost, rplan, rest_ = best[right_key]
                        joined = join(lest, rest_, shared)
                        cost = lcost + rcost + joined.rows
                        if champion is None or cost < champion[0]:
                            node = JoinNode(lplan, rplan, shared)
                            node.estimated_rows = joined.rows
                            champion = (cost, node, joined)
                if champion is not None:
                    best[subset_key] = champion
        return self._finish(best, component)

    def _finish(
        self,
        best: Dict[FrozenSet[str], Tuple[float, PlanNode, Estimate]],
        component: FrozenSet[str],
    ) -> Tuple[PlanNode, Estimate, float]:
        entry = best.get(frozenset(component))
        if entry is None:
            raise OptimizationError(
                f"dynamic program failed to cover component {sorted(component)}"
            )
        cost, plan, estimate = entry
        return plan, estimate, cost


def syntactic_plan(
    translation: TranslationResult, estimates: Mapping[str, Estimate]
) -> PlanNode:
    """FROM-clause-order left-deep plan — the optimizer-disabled baseline.

    Joins each relation to the accumulated prefix on whatever variables they
    share (a cross product when none), exactly as a naive evaluator would.
    """
    graph = JoinGraph(translation)
    scans: List[ScanNode] = []
    for atom in translation.query.atoms:
        node = ScanNode(atom.name, atom.relation)
        node.estimated_rows = estimates[atom.name].rows
        scans.append(node)

    def shared_for(prefix_aliases: FrozenSet[str], scan: ScanNode) -> Tuple[str, ...]:
        return graph.shared_variables(prefix_aliases, frozenset({scan.alias}))

    plan = left_deep_plan(scans, shared_for)
    # Annotate estimates bottom-up for EXPLAIN fidelity.
    _annotate(plan, estimates)
    return plan


def _annotate(plan: PlanNode, estimates: Mapping[str, Estimate]) -> Estimate:
    if isinstance(plan, ScanNode):
        estimate = estimates[plan.alias]
        plan.estimated_rows = estimate.rows
        return estimate
    assert isinstance(plan, JoinNode)
    left = _annotate(plan.left, estimates)
    right = _annotate(plan.right, estimates)
    joined = join(left, right, plan.shared_variables)
    plan.estimated_rows = joined.rows
    return joined

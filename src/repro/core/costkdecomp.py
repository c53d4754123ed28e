"""cost-k-decomp: minimum-cost normal-form decomposition search.

The fundamental module of the paper's architecture (Fig. 5).  It explores
the same subproblem space as det-k-decomp, but instead of returning the
first width-≤k decomposition it runs a dynamic program: for every
``(component, connector)`` subproblem it caches the *cheapest* subtree
under the statistics-driven weighting of
:class:`repro.core.costmodel.DecompositionCostModel` (following the
weighted hypertree decompositions of Scarcello–Greco–Leone, PODS'04).

Ties break deterministically: lower cost, then smaller width, then
lexicographic λ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.cost import Estimate
from repro.errors import DecompositionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.metering import NULL_METER, WorkMeter
from repro.obs.tracing import current_tracer
from repro.resilience.context import current_context
from repro.core.costmodel import DecompositionCostModel
from repro.core.detkdecomp import _SearchSpace
from repro.core.hypertree import Hypertree, HypertreeNode


@dataclass
class _Best:
    """Cached best solution of one (component, connector) subproblem."""

    cost: float
    width: int
    estimate: Estimate  # estimate of the node relation handed to the parent
    node: HypertreeNode


class CostKDecomp:
    """Min-cost decomposition search with DP memoization."""

    def __init__(
        self,
        hypergraph: Hypergraph,
        k: int,
        cost_model: DecompositionCostModel,
        output_weight: float = 0.0,
        output_variables: Iterable[str] = (),
        meter: WorkMeter = NULL_METER,
    ):
        """Args:
            output_weight: weight of the *aggregation term* — the paper's
                future-work extension ("aggregate predicates can be included
                in the cost model").  When positive, the root candidate's
                cost additionally charges ``weight × |answer estimate|``,
                modelling the post-processing scan that computes aggregates
                and GROUP BY over the answer.
            output_variables: out(Q); the answer estimate is the root
                relation projected onto these.
            meter: charged one ``"plan"`` work unit per candidate separator
                evaluated — a deterministic, machine-independent measure of
                planning effort (the serving layer's cache-hit benchmark
                compares it cold vs warm).
        """
        if k < 1:
            raise DecompositionError("width bound k must be at least 1")
        self.hypergraph = hypergraph
        self.k = k
        self.cost_model = cost_model
        self.output_weight = output_weight
        self.output_variables = frozenset(output_variables)
        self.meter = meter
        self._space = _SearchSpace(hypergraph, k)
        self.atom_variables = self._space.edge_variables
        self._root_key: Optional[Tuple[int, int]] = None
        # Every memo table lives on this per-call object, never on the cost
        # model (the serving layer shares one model across threads).  The
        # DP table's nodes are shared by every candidate parent that reuses
        # a subproblem (a DAG); ``decompose()`` clones the winner into a tree.
        self._memo: Dict[Tuple[int, int], Optional[_Best]] = {}
        # λ → (joined estimate, join cost): the λ join depends on λ alone,
        # each candidate only projects it onto its χ.
        self._lambda_joins: Dict[Tuple[str, ...], Tuple[Estimate, float]] = {}
        # Search statistics, reported on the "decompose.search" span (and
        # free to read afterwards): candidate separators evaluated, pruned
        # (no strictly shrinking split, or an unsolvable sub-component),
        # bounded (beaten before weighting), DP memo hits, and join
        # estimates computed (λ joins + stitches of surviving candidates).
        self.candidates = 0
        self.pruned = 0
        self.bounded = 0
        self.memo_hits = 0
        self.estimate_joins = 0
        # The search is exponential in k; every candidate separator is a
        # cooperative abort point (deadline/cancel/fault) for the serving
        # layer's resilience context.
        self._context = current_context()

    # ------------------------------------------------------------------

    def decompose(
        self, required_root_cover: Iterable[str] = ()
    ) -> Optional[Tuple[Hypertree, float]]:
        """Search for the cheapest width-≤k decomposition.

        Returns ``(hypertree, estimated_cost)`` or None when no width-≤k
        decomposition with the required root cover exists.
        """
        cover = frozenset(required_root_cover)
        unknown = cover - self.hypergraph.vertices
        if unknown:
            raise DecompositionError(
                f"required root-cover variables not in hypergraph: {sorted(unknown)}"
            )
        if not len(self.hypergraph):
            root = HypertreeNode(chi=cover, lam=())
            return Hypertree(root, self.hypergraph), 0.0
        self._root_key = (self._space.all_edges, self._space.vertex_mask(cover))
        with current_tracer().span(
            "decompose.search",
            meter=self.meter,
            k=self.k,
            edges=len(self.hypergraph),
            variables=len(self.hypergraph.vertices),
        ) as span:
            best = self._solve(*self._root_key)
            span.tag(
                candidates=self.candidates,
                pruned=self.pruned,
                bounded=self.bounded,
                memo_hits=self.memo_hits,
                subproblems=len(self._memo),
                distinct_lambdas=len(self._lambda_joins),
                estimate_joins=self.estimate_joins,
                found=best is not None,
            )
            if best is not None:
                span.tag(cost=round(best.cost, 3), width=best.width)
        if best is None:
            return None
        return Hypertree(best.node.clone(), self.hypergraph), best.cost

    # ------------------------------------------------------------------

    def _solve(self, component: int, connector: int) -> Optional[_Best]:
        key = (component, connector)
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key]
        # Guard against re-entrancy; the subproblem ordering is acyclic
        # because sub-components strictly shrink, so a plain None marker is
        # only a safety net.
        self._memo[key] = None
        result = self._search(component, connector)
        self._memo[key] = result
        return result

    def _search(self, component: int, connector: int) -> Optional[_Best]:
        model = self.cost_model
        space = self._space
        at_root = self.output_weight > 0.0 and self._root_key == (
            component,
            connector,
        )
        # The winner so far: its (cost, width, λ) key, χ, children and
        # stitched estimate — its node is built once, after the enumeration.
        best: Optional[tuple] = None

        for lam, chi_mask in space.separators(component, connector):
            self._context.checkpoint("decompose.search")
            self.meter.charge(1, "plan")
            self.candidates += 1
            pieces = space.split(component, chi_mask)
            # No strictly shrinking split: the one piece is the component.
            if pieces and pieces[0][0] == component:
                self.pruned += 1
                continue
            lam_join = self._lambda_joins.get(lam)
            if lam_join is None:
                lam_join = model.join_atoms(lam, self.atom_variables)
                self._lambda_joins[lam] = lam_join
                self.estimate_joins += len(lam) - 1
            bound = lam_join[1]
            width = len(lam)
            children: List[_Best] = []
            for sub, sub_connector in pieces:
                child = self._solve(sub, sub_connector)
                if child is None:
                    break
                children.append(child)
                bound += child.cost
                if child.width > width:
                    width = child.width
            if len(children) < len(pieces):
                self.pruned += 1
                continue
            # The total adds a stitch cost (a sum of cardinalities, ≥ 0)
            # after each child cost, and float addition is monotone, so it
            # is ≥ ``bound``: a candidate whose bound already exceeds the
            # winner's total cannot win, and its weighting is skipped.
            if best is not None and bound > best[0][0]:
                self.bounded += 1
                continue

            chi = space.names_of(chi_mask)
            current = model.project(lam_join[0], chi)
            total_cost = lam_join[1]
            for child in children:
                total_cost += child.cost
                step_cost, current = model.stitch(current, child.estimate, chi)
                total_cost += step_cost
            self.estimate_joins += len(children)

            if at_root:
                answer = model.project(current, self.output_variables & chi)
                total_cost += self.output_weight * answer.rows

            candidate_key = (total_cost, width, lam)
            if best is None or candidate_key < best[0]:
                best = (candidate_key, chi, children, current)
        if best is None:
            return None
        (cost, width, lam), chi, children, current = best
        return _Best(
            cost=cost,
            width=width,
            estimate=model.project(current, chi),
            node=HypertreeNode(
                chi=chi, lam=lam, children=[child.node for child in children]
            ),
        )


def cost_k_decomp(
    hypergraph: Hypergraph,
    k: int,
    cost_model: DecompositionCostModel,
    required_root_cover: Iterable[str] = (),
    output_weight: float = 0.0,
    meter: WorkMeter = NULL_METER,
) -> Optional[Tuple[Hypertree, float]]:
    """Find the cheapest width-≤k hypertree decomposition under a cost model.

    Args:
        hypergraph: the query hypergraph.
        k: width bound.
        cost_model: statistics-driven weighting (use
            :meth:`DecompositionCostModel.uniform` for purely structural
            search).
        required_root_cover: variables the root χ must contain (out(Q)).
        output_weight: aggregate-term weight (the paper's future-work
            extension); > 0 charges the estimated answer size at the root.
        meter: charged ``"plan"`` work units, one per candidate separator.

    Returns:
        ``(hypertree, estimated_cost)`` or None.
    """
    search = CostKDecomp(
        hypergraph,
        k,
        cost_model,
        output_weight=output_weight,
        output_variables=required_root_cover,
        meter=meter,
    )
    return search.decompose(required_root_cover)

"""Quantitative cost model for decomposition search.

cost-k-decomp (§4.1) does not look for *any* width-≤k decomposition: among
normal-form decompositions it picks one minimizing an estimated evaluation
cost, computed from statistics on the data (cardinalities and per-attribute
distinct counts) with the standard textbook estimators [Garcia-Molina et
al.; Ioannidis]:

* join size:  |R ⋈ S| = |R| · |S| / Π_{a ∈ shared} max(V(R,a), V(S,a))
* equality filter selectivity: 1 / V(R, a)
* range filter selectivity: a fixed default (1/3), refined by min/max when
  available.

When no statistics exist the model degrades to uniform defaults, making the
search *purely structural* — this is the mode the paper uses for the
"statistics not (yet) available" scenario of Fig. 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import DecompositionError
from repro.query.conjunctive import ConjunctiveQuery

DEFAULT_CARDINALITY = 1000.0
DEFAULT_DISTINCT = 100.0
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class AtomEstimate:
    """Statistical summary of one query atom's (filtered) base relation.

    Attributes:
        cardinality: estimated tuple count after pushed-down filters.
        distinct: per-variable distinct-value estimates.
    """

    cardinality: float
    distinct: Dict[str, float] = field(default_factory=dict)

    def distinct_of(self, variable: str) -> float:
        value = self.distinct.get(variable, DEFAULT_DISTINCT)
        return max(min(value, self.cardinality), 1.0)


@dataclass
class JoinEstimate:
    """Estimated size and per-variable distincts of an intermediate result."""

    cardinality: float
    distinct: Dict[str, float]

    def distinct_of(self, variable: str) -> float:
        value = self.distinct.get(variable, DEFAULT_DISTINCT)
        return max(min(value, self.cardinality), 1.0)


class DecompositionCostModel:
    """Estimates evaluation cost of decomposition nodes from statistics.

    Args:
        atom_estimates: per atom name, the statistical summary of its base
            relation (already reflecting pushed-down constant filters).
            Every cardinality and distinct count must be ≥ 0 (not NaN): the
            search's lower bound rests on every estimated size being ≥ 0.
    """

    def __init__(self, atom_estimates: Mapping[str, AtomEstimate]):
        for name, estimate in atom_estimates.items():
            checked = [("cardinality", estimate.cardinality)]
            checked += [(f"distinct({v})", d) for v, d in estimate.distinct.items()]
            for label, value in checked:
                if not value >= 0.0:
                    raise DecompositionError(
                        f"atom {name!r}: {label} estimate must be >= 0, got {value!r}"
                    )
        self.atom_estimates: Dict[str, AtomEstimate] = dict(atom_estimates)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform(
        cls,
        query: ConjunctiveQuery,
        cardinality: float = DEFAULT_CARDINALITY,
        distinct: float = DEFAULT_DISTINCT,
    ) -> "DecompositionCostModel":
        """Purely structural mode: identical estimates for every atom."""
        estimates = {}
        for atom in query.atoms:
            estimates[atom.name] = AtomEstimate(
                cardinality=cardinality,
                distinct={v: min(distinct, cardinality) for v in atom.variables},
            )
        return cls(estimates)

    # ------------------------------------------------------------------
    # Atom access
    # ------------------------------------------------------------------

    def estimate_for(self, atom_name: str) -> AtomEstimate:
        try:
            return self.atom_estimates[atom_name]
        except KeyError:
            raise DecompositionError(
                f"no cost estimate registered for atom {atom_name!r}"
            ) from None

    def atom_as_join(self, atom_name: str) -> JoinEstimate:
        est = self.estimate_for(atom_name)
        return JoinEstimate(est.cardinality, dict(est.distinct))

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------

    @staticmethod
    def join(
        left: JoinEstimate,
        right: JoinEstimate,
        shared_variables: Iterable[str],
    ) -> JoinEstimate:
        """Textbook natural-join estimate over the shared variables."""
        # The planner's innermost loop: ``distinct_of`` and the two-argument
        # ``min``/``max`` calls are spelled out as comparisons that pick the
        # same operand the builtins would, so every float is unchanged.
        left_card, left_distinct = left.cardinality, left.distinct
        right_card, right_distinct = right.cardinality, right.distinct
        size = left_card * right_card
        for variable in shared_variables:
            ours = left_distinct.get(variable, DEFAULT_DISTINCT)
            if left_card < ours:
                ours = left_card
            if 1.0 > ours:
                ours = 1.0
            theirs = right_distinct.get(variable, DEFAULT_DISTINCT)
            if right_card < theirs:
                theirs = right_card
            if 1.0 > theirs:
                theirs = 1.0
            size /= theirs if theirs > ours else ours
        size = max(size, 0.0)
        # ``left``'s variables, then ``right``'s unseen ones: ``project``
        # multiplies in this order, which must not be a set's (string hashing).
        distinct: Dict[str, float] = {}
        for variable, estimate in left_distinct.items():
            if variable in right_distinct:
                other = right_distinct[variable]
                if other < estimate:
                    estimate = other
            if size < estimate:
                estimate = size
            distinct[variable] = 1.0 if 1.0 > estimate else estimate
        for variable, estimate in right_distinct.items():
            if variable not in left_distinct:
                if size < estimate:
                    estimate = size
                distinct[variable] = 1.0 if 1.0 > estimate else estimate
        return JoinEstimate(size, distinct)

    def join_sequence(
        self, estimates: Sequence[JoinEstimate], variables_of: Sequence[FrozenSet[str]]
    ) -> Tuple[JoinEstimate, float]:
        """Estimate joining a sequence of inputs, greedily smallest-first.

        Returns the final estimate and the accumulated *cost* (sum of input
        and intermediate sizes — the C_out metric).
        """
        if not estimates:
            return JoinEstimate(1.0, {}), 0.0
        items = sorted(
            zip(estimates, variables_of), key=lambda pair: pair[0].cardinality
        )
        current, current_vars = items[0]
        cost = current.cardinality
        for estimate, variables in items[1:]:
            # Sorted: the division order of a float must not be set order.
            shared = sorted(current_vars & variables)
            current = self.join(current, estimate, shared)
            current_vars = current_vars | variables
            cost += estimate.cardinality + current.cardinality
        return current, cost

    def project(self, estimate: JoinEstimate, keep: Iterable[str]) -> JoinEstimate:
        """Projection estimate: size bounded by the product of kept distincts."""
        keep_set = set(keep)
        distinct = {v: d for v, d in estimate.distinct.items() if v in keep_set}
        bound = 1.0
        for value in distinct.values():
            bound *= value
            if bound > estimate.cardinality:
                bound = estimate.cardinality
                break
        size = min(estimate.cardinality, max(bound, 1.0))
        return JoinEstimate(size, distinct)

    # ------------------------------------------------------------------
    # Decomposition-node costing (the weighting function of cost-k-decomp)
    # ------------------------------------------------------------------

    def join_atoms(
        self,
        lam_atoms: Sequence[str],
        atom_variables: Mapping[str, FrozenSet[str]],
    ) -> Tuple[JoinEstimate, float]:
        """Estimate joining one node's λ atoms, smallest-first (step P′).

        Returns the joined estimate and the join cost.  Both depend on λ
        alone: a search computes them once per distinct λ and projects the
        estimate onto each candidate's χ with :meth:`project`.
        """
        estimates = [self.atom_as_join(name) for name in lam_atoms]
        variables = [frozenset(atom_variables[name]) for name in lam_atoms]
        return self.join_sequence(estimates, variables)

    @staticmethod
    def stitch(
        parent: JoinEstimate, child: JoinEstimate, chi: FrozenSet[str]
    ) -> Tuple[float, JoinEstimate]:
        """Absorb one child's relation into its parent (step P″).

        One join estimate yields both results: the cost of the step and the
        parent's estimate afterwards, restricted to χ.
        """
        child_distinct = child.distinct
        shared = [v for v in parent.distinct if v in child_distinct]
        joined = DecompositionCostModel.join(parent, child, shared)
        cost = parent.cardinality + child.cardinality + joined.cardinality
        distinct = {v: d for v, d in joined.distinct.items() if v in chi}
        return cost, JoinEstimate(joined.cardinality, distinct)

"""Quantitative cost model for decomposition search.

cost-k-decomp (§4.1) does not look for *any* width-≤k decomposition: among
normal-form decompositions it picks one minimizing an estimated evaluation
cost, computed from statistics on the data (cardinalities and per-attribute
distinct counts).  The per-atom estimates and the join estimator are the
engine's (:mod:`repro.engine.cost`); this module adds what is about
decompositions: projecting onto χ, joining a node's λ atoms and stitching a
child into its parent.

When no statistics exist the model degrades to uniform defaults, making the
search *purely structural* — this is the mode the paper uses for the
"statistics not (yet) available" scenario of Fig. 8.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.engine.cost import UNIFORM_DISTINCT, UNIFORM_ROWS, Estimate, join
from repro.errors import DecompositionError
from repro.query.conjunctive import ConjunctiveQuery


class DecompositionCostModel:
    """Estimates evaluation cost of decomposition nodes from statistics.

    Args:
        atom_estimates: per atom name, the estimate of its base relation
            (already reflecting pushed-down constant filters).  Every row
            and distinct count must be ≥ 0 (not NaN): the search's lower
            bound rests on every estimated size being ≥ 0.
    """

    def __init__(self, atom_estimates: Mapping[str, Estimate]):
        for name, estimate in atom_estimates.items():
            checked = [("rows", estimate.rows)]
            checked += [(f"distinct({v})", d) for v, d in estimate.distinct.items()]
            for label, value in checked:
                if not value >= 0.0:
                    raise DecompositionError(
                        f"atom {name!r}: {label} estimate must be >= 0, got {value!r}"
                    )
        self.atom_estimates: Dict[str, Estimate] = dict(atom_estimates)

    @classmethod
    def uniform(
        cls,
        query: ConjunctiveQuery,
        cardinality: float = UNIFORM_ROWS,
        distinct: float = UNIFORM_DISTINCT,
    ) -> "DecompositionCostModel":
        """Purely structural mode: identical estimates for every atom."""
        estimates = {}
        for atom in query.atoms:
            estimates[atom.name] = Estimate(
                cardinality,
                {v: min(distinct, cardinality) for v in atom.variables},
            )
        return cls(estimates)

    # ------------------------------------------------------------------
    # Estimators
    # ------------------------------------------------------------------

    def join_sequence(
        self, estimates: Sequence[Estimate], variables_of: Sequence[FrozenSet[str]]
    ) -> Tuple[Estimate, float]:
        """Estimate joining a sequence of inputs, greedily smallest-first.

        Returns the final estimate and the accumulated *cost* (sum of input
        and intermediate sizes — the C_out metric).
        """
        if not estimates:
            return Estimate(1.0, {}), 0.0
        items = sorted(zip(estimates, variables_of), key=lambda pair: pair[0].rows)
        current, current_vars = items[0]
        cost = current.rows
        for estimate, variables in items[1:]:
            # Sorted: the division order of a float must not be set order.
            shared = sorted(current_vars & variables)
            current = join(current, estimate, shared)
            current_vars = current_vars | variables
            cost += estimate.rows + current.rows
        return current, cost

    def project(self, estimate: Estimate, keep: Iterable[str]) -> Estimate:
        """Projection estimate: size bounded by the product of kept distincts."""
        keep_set = set(keep)
        distinct = {v: d for v, d in estimate.distinct.items() if v in keep_set}
        bound = 1.0
        for value in distinct.values():
            bound *= value
            if bound > estimate.rows:
                bound = estimate.rows
                break
        size = min(estimate.rows, max(bound, 1.0))
        return Estimate(size, distinct)

    # ------------------------------------------------------------------
    # Decomposition-node costing (the weighting function of cost-k-decomp)
    # ------------------------------------------------------------------

    def join_atoms(
        self,
        lam_atoms: Sequence[str],
        atom_variables: Mapping[str, FrozenSet[str]],
    ) -> Tuple[Estimate, float]:
        """Estimate joining one node's λ atoms, smallest-first (step P′).

        Returns the joined estimate and the join cost.  Both depend on λ
        alone: a search computes them once per distinct λ and projects the
        estimate onto each candidate's χ with :meth:`project`.
        """
        try:
            estimates = [self.atom_estimates[name] for name in lam_atoms]
        except KeyError as missing:
            raise DecompositionError(
                f"no cost estimate registered for atom {missing.args[0]!r}"
            ) from None
        variables = [frozenset(atom_variables[name]) for name in lam_atoms]
        return self.join_sequence(estimates, variables)

    @staticmethod
    def stitch(
        parent: Estimate, child: Estimate, chi: FrozenSet[str]
    ) -> Tuple[float, Estimate]:
        """Absorb one child's relation into its parent (step P″).

        One join estimate yields both results: the cost of the step and the
        parent's estimate afterwards, restricted to χ.
        """
        child_distinct = child.distinct
        shared = [v for v in parent.distinct if v in child_distinct]
        joined = join(parent, child, shared)
        cost = parent.rows + child.rows + joined.rows
        distinct = {v: d for v, d in joined.distinct.items() if v in chi}
        return cost, Estimate(joined.rows, distinct)

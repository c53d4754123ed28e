"""GEQO: genetic join-order search (PostgreSQL's genetic query optimizer).

PostgreSQL switches from exhaustive DP to a genetic algorithm when the
FROM-clause exceeds ``geqo_threshold`` relations; the paper's Fig. 9 shows
the stock optimizer degrading on exactly the long queries where GEQO kicks
in.  This module reproduces that component: individuals are left-deep join
orders (alias permutations), fitness is the estimated C_out of the
resulting plan, evolution uses tournament selection, order crossover (OX)
and swap mutation, with a fixed generation budget and a seeded RNG for
reproducibility.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import OptimizationError
from repro.engine.cost import Estimate, join
from repro.engine.optimizer import JoinGraph
from repro.engine.plan import JoinNode, PlanNode, ScanNode
from repro.query.translate import TranslationResult

CROSS_PRODUCT_PENALTY = 1e12


class GeqoOptimizer:
    """Genetic search over left-deep join orders.

    Args:
        translation: the query being optimized.
        estimates: per-alias estimates (:func:`repro.engine.cost.atom_estimates`).
        population_size / generations / mutation_rate: GA knobs; defaults
            follow PostgreSQL's effort scaling for medium queries.
        seed: RNG seed — deterministic runs for the benchmark harness.
    """

    def __init__(
        self,
        translation: TranslationResult,
        estimates: Mapping[str, Estimate],
        population_size: int = 32,
        generations: int = 40,
        mutation_rate: float = 0.15,
        seed: Optional[int] = 0,
    ):
        self.graph = JoinGraph(translation)
        self.translation = translation
        self.estimates = estimates
        self.population_size = max(population_size, 4)
        self.generations = max(generations, 1)
        self.mutation_rate = mutation_rate
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------

    def optimize(self) -> PlanNode:
        """Run the GA and build the best-found left-deep plan."""
        aliases = list(self.graph.aliases)
        if not aliases:
            raise OptimizationError("cannot optimize a query with no relations")
        if len(aliases) == 1:
            return self._plan_for(aliases)

        population = [self._random_order(aliases) for _ in range(self.population_size)]
        fitness = [self._fitness(order) for order in population]

        for _generation in range(self.generations):
            offspring: List[List[str]] = []
            while len(offspring) < self.population_size:
                parent_a = self._tournament(population, fitness)
                parent_b = self._tournament(population, fitness)
                child = self._order_crossover(parent_a, parent_b)
                if self.rng.random() < self.mutation_rate:
                    self._swap_mutate(child)
                offspring.append(child)
            # Elitism: keep the best individual seen so far.
            best_index = min(range(len(population)), key=lambda i: fitness[i])
            offspring[0] = list(population[best_index])
            population = offspring
            fitness = [self._fitness(order) for order in population]

        best_index = min(range(len(population)), key=lambda i: fitness[i])
        return self._plan_for(population[best_index])

    # ------------------------------------------------------------------
    # GA machinery
    # ------------------------------------------------------------------

    def _random_order(self, aliases: Sequence[str]) -> List[str]:
        order = list(aliases)
        self.rng.shuffle(order)
        return order

    def _tournament(
        self, population: List[List[str]], fitness: List[float], size: int = 3
    ) -> List[str]:
        indices = [self.rng.randrange(len(population)) for _ in range(size)]
        winner = min(indices, key=lambda i: fitness[i])
        return population[winner]

    def _order_crossover(self, parent_a: List[str], parent_b: List[str]) -> List[str]:
        """OX crossover: copy a slice of A, fill the rest in B's order."""
        n = len(parent_a)
        start = self.rng.randrange(n)
        end = self.rng.randrange(start, n)
        slice_set = set(parent_a[start : end + 1])
        child: List[Optional[str]] = [None] * n
        child[start : end + 1] = parent_a[start : end + 1]
        fill = [alias for alias in parent_b if alias not in slice_set]
        cursor = 0
        for i in range(n):
            if child[i] is None:
                child[i] = fill[cursor]
                cursor += 1
        return [alias for alias in child if alias is not None]

    def _swap_mutate(self, order: List[str]) -> None:
        i = self.rng.randrange(len(order))
        j = self.rng.randrange(len(order))
        order[i], order[j] = order[j], order[i]

    # ------------------------------------------------------------------
    # Fitness: estimated C_out, with a heavy penalty per cross product
    # ------------------------------------------------------------------

    def _fitness(self, order: Sequence[str]) -> float:
        current = self.estimates[order[0]]
        current_aliases = frozenset({order[0]})
        cost = current.rows
        for alias in order[1:]:
            shared = self.graph.shared_variables(
                current_aliases, frozenset({alias})
            )
            scan = self.estimates[alias]
            current = join(current, scan, shared)
            current_aliases = current_aliases | {alias}
            cost += scan.rows + current.rows
            if not shared:
                cost += CROSS_PRODUCT_PENALTY
        return cost

    def _plan_for(self, order: Sequence[str]) -> PlanNode:
        plan: Optional[PlanNode] = None
        current: Optional[Estimate] = None
        current_aliases: FrozenSet[str] = frozenset()
        for alias in order:
            relation = self.translation.query.atom(alias).relation
            scan_node = ScanNode(alias, relation)
            scan_estimate = self.estimates[alias]
            scan_node.estimated_rows = scan_estimate.rows
            if plan is None:
                plan, current = scan_node, scan_estimate
                current_aliases = frozenset({alias})
                continue
            shared = self.graph.shared_variables(
                current_aliases, frozenset({alias})
            )
            assert current is not None
            current = join(current, scan_estimate, shared)
            node = JoinNode(plan, scan_node, shared)
            node.estimated_rows = current.rows
            plan = node
            current_aliases = current_aliases | {alias}
        assert plan is not None
        return plan

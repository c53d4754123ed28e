"""Property tests for the GEQO genetic machinery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.cost import atom_estimates
from repro.engine.geqo import CROSS_PRODUCT_PENALTY, GeqoOptimizer
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, RelationSchema


def make_optimizer(n=5, seed=0):
    db = Database("g")
    for i in range(n):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(schema, [(j % 5, j % 7) for j in range(30)])
    db.analyze()
    conditions = " AND ".join(f"r{i}.b{i} = r{i + 1}.a{i + 1}" for i in range(n - 1))
    sql = f"SELECT r0.a0 FROM {', '.join(f'r{i}' for i in range(n))} WHERE {conditions}"
    tr = sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())
    estimates = atom_estimates(tr, db, True)
    return GeqoOptimizer(tr, estimates, seed=seed)


class TestCrossover:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ga_seed=st.integers(min_value=0, max_value=100),
    )
    def test_ox_produces_permutations(self, seed, ga_seed):
        optimizer = make_optimizer(6, seed=ga_seed)
        rng = random.Random(seed)
        aliases = list(optimizer.graph.aliases)
        parent_a = aliases[:]
        parent_b = aliases[:]
        rng.shuffle(parent_a)
        rng.shuffle(parent_b)
        child = optimizer._order_crossover(parent_a, parent_b)
        assert sorted(child) == sorted(aliases)

    def test_mutation_preserves_permutation(self):
        optimizer = make_optimizer(5)
        order = list(optimizer.graph.aliases)
        expected = sorted(order)
        for _ in range(20):
            optimizer._swap_mutate(order)
            assert sorted(order) == expected


class TestFitness:
    def test_connected_order_has_no_penalty(self):
        optimizer = make_optimizer(4)
        order = [f"r{i}" for i in range(4)]  # chain order is connected
        assert optimizer._fitness(order) < CROSS_PRODUCT_PENALTY

    def test_disconnected_order_penalized(self):
        optimizer = make_optimizer(4)
        # r0 then r2 share no variable → cross product at step 2.
        order = ["r0", "r2", "r1", "r3"]
        assert optimizer._fitness(order) >= CROSS_PRODUCT_PENALTY

    def test_better_orders_score_lower(self):
        optimizer = make_optimizer(5)
        connected = [f"r{i}" for i in range(5)]
        shuffled = ["r0", "r4", "r1", "r3", "r2"]
        assert optimizer._fitness(connected) <= optimizer._fitness(shuffled)


class TestSearch:
    def test_finds_connected_plan_from_bad_seeds(self):
        # Whatever the RNG does, enough generations find a penalty-free order.
        for seed in range(5):
            optimizer = make_optimizer(6, seed=seed)
            plan = optimizer.optimize()
            from repro.engine.plan import JoinNode

            crosses = [
                n for n in plan.walk()
                if isinstance(n, JoinNode) and n.is_cross_product
            ]
            assert not crosses

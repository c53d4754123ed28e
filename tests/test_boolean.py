"""Tests for Boolean (decision) evaluation through decompositions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boolean import is_satisfiable
from repro.core.evaluator import evaluate_hd_boolean
from repro.core.costkdecomp import cost_k_decomp
from repro.core.costmodel import DecompositionCostModel
from repro.core.qhd import assign_atoms
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.query.builder import ConjunctiveQueryBuilder
from repro.relational import AttributeType, Database, Relation, RelationSchema

from tests.conftest import brute_force_answer, random_database_for


def chain_query(n):
    builder = ConjunctiveQueryBuilder("chain")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % n}")
    return builder.build()  # Boolean: empty head


def decomposition_for(query):
    model = DecompositionCostModel.uniform(query)
    tree, _ = cost_k_decomp(query.hypergraph(), 2, model)
    assign_atoms(tree, query)
    return tree


class TestEvaluateHdBoolean:
    @pytest.mark.parametrize("seed", list(range(10)))
    def test_matches_brute_force(self, seed):
        q = chain_query(5)
        rng = random.Random(seed)
        db = random_database_for(q, rng, max_rows=8, values=3)
        rels = atom_relations(q, db)
        tree = decomposition_for(q)
        expected = len(brute_force_answer(q.with_output(["V0"]), rels)) > 0
        assert evaluate_hd_boolean(tree, q, rels) == expected

    def test_unsatisfiable_detected_early(self):
        q = chain_query(4)
        rng = random.Random(0)
        db = random_database_for(q, rng)
        rels = atom_relations(q, db)
        rels["p2"] = Relation(rels["p2"].attributes, [])
        tree = decomposition_for(q)
        assert not evaluate_hd_boolean(tree, q, rels)

    def test_uses_only_semijoin_sized_work(self):
        # Boolean evaluation must not enumerate the (possibly large) answer.
        q = chain_query(6)
        rng = random.Random(3)
        db = random_database_for(q, rng, max_rows=30, values=2)  # dense
        rels = atom_relations(q, db)
        tree = decomposition_for(q)
        meter = WorkMeter()
        evaluate_hd_boolean(tree, q, rels, meter=meter)
        total_input = sum(len(r) for r in rels.values())
        assert meter.total < 200 * total_input


class TestIsSatisfiable:
    @pytest.fixture()
    def db(self):
        database = Database("sat")
        database.create_table(
            RelationSchema.of("t", {"a": AttributeType.INT, "b": AttributeType.INT}),
            [(1, 2), (2, 3)],
        )
        database.create_table(
            RelationSchema.of("s", {"b": AttributeType.INT, "c": AttributeType.INT}),
            [(2, 9)],
        )
        database.analyze()
        return database

    def test_satisfiable(self, db):
        assert is_satisfiable("SELECT t.a FROM t, s WHERE t.b = s.b", db)

    def test_unsatisfiable_join(self, db):
        assert not is_satisfiable(
            "SELECT t.a FROM t, s WHERE t.a = s.c", db
        )

    def test_filter_unsatisfiable(self, db):
        assert not is_satisfiable("SELECT t.a FROM t WHERE t.a = 99", db)

    def test_width_exceeded_raises(self, db):
        from repro.errors import DecompositionNotFound

        # A triangle over three copies of t has hypertree width 2.
        tri = (
            "SELECT t1.a FROM t t1, t t2, t t3 "
            "WHERE t1.b = t2.a AND t2.b = t3.a AND t3.b = t1.a"
        )
        with pytest.raises(DecompositionNotFound):
            is_satisfiable(tri, db, max_width=1)
        assert is_satisfiable(tri, db, max_width=2) in (True, False)

    def test_agrees_with_engine(self, db):
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS

        sql = "SELECT t.a FROM t, s WHERE t.b = s.b"
        engine = SimulatedDBMS(db, COMMDB_PROFILE).run_sql(sql)
        assert is_satisfiable(sql, db) == (len(engine.relation) > 0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_property_boolean_matches_enumeration(n, seed):
    q = chain_query(n)
    rng = random.Random(seed)
    db = random_database_for(q, rng, max_rows=8, values=3)
    rels = atom_relations(q, db)
    tree = decomposition_for(q)
    expected = len(brute_force_answer(q.with_output(["V0"]), rels)) > 0
    assert evaluate_hd_boolean(tree, q, rels) == expected

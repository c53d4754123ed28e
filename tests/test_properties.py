"""Property-based tests: algebra laws and cross-evaluator equivalence.

These pin down the invariants everything else stands on:

* relational-algebra laws (join commutativity/associativity under bag-set
  discipline, semijoin containment, projection idempotence);
* the SQL path end-to-end: for random chain databases, the simulated
  engine, the q-HD plan, the classic 3-phase evaluation and the SQL-view
  rewriting all compute the same answers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.boolean import is_satisfiable
from repro.core.evaluator import evaluate_hd_classic, evaluate_qhd
from repro.core.optimizer import HybridOptimizer
from repro.core.views import execute_view_plan
from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.relational import AttributeType, Database, Relation, RelationSchema

# ---------------------------------------------------------------------------
# Random relation strategies
# ---------------------------------------------------------------------------

values = st.integers(min_value=0, max_value=4)


@st.composite
def relation_pair(draw):
    """Two relations sharing exactly one attribute name."""
    n1 = draw(st.integers(min_value=0, max_value=8))
    n2 = draw(st.integers(min_value=0, max_value=8))
    r = Relation(
        ["a", "j"], [(draw(values), draw(values)) for _ in range(n1)], name="r"
    )
    s = Relation(
        ["j", "b"], [(draw(values), draw(values)) for _ in range(n2)], name="s"
    )
    return r, s


@settings(max_examples=60, deadline=None)
@given(pair=relation_pair())
def test_join_commutative(pair):
    r, s = pair
    assert r.natural_join(s).same_content(s.natural_join(r))


@settings(max_examples=60, deadline=None)
@given(pair=relation_pair())
def test_semijoin_is_subset_of_left(pair):
    r, s = pair
    result = r.semijoin(s)
    assert len(result) <= len(r)
    left = r.to_multiset()
    for row, count in result.to_multiset().items():
        assert left.get(row, 0) >= count


@settings(max_examples=60, deadline=None)
@given(pair=relation_pair())
def test_semijoin_equals_join_projection(pair):
    r, s = pair
    joined = r.natural_join(s).project(list(r.attributes), dedup=True)
    semi = r.semijoin(s).distinct()
    assert joined.same_content(semi)


@st.composite
def join_project_case(draw):
    """Two *bag* relations over random schemas, and a ``keep`` list.

    Schemas are drawn from a small pool so the pair may share several
    attributes, one, or none (a cartesian product); rows repeat; either
    side may be empty; ``keep`` is any sub-permutation of the joined
    attributes — it may drop the join key, or keep everything.
    """
    pool = ["a", "b", "c", "d", "e"]
    left_attrs = draw(st.permutations(pool))[: draw(st.integers(1, 3))]
    right_attrs = draw(st.permutations(pool))[: draw(st.integers(1, 3))]

    def rows(width):
        row = st.tuples(*[st.integers(min_value=0, max_value=2)] * width)
        return draw(st.lists(row, min_size=0, max_size=9))

    left = Relation(left_attrs, rows(len(left_attrs)), name="l")
    right = Relation(right_attrs, rows(len(right_attrs)), name="r")
    joined = list(left.joined_attributes(right))
    keep = draw(st.permutations(joined))[: draw(st.integers(0, len(joined)))]
    return left, right, keep


@settings(max_examples=300, deadline=None)
@given(case=join_project_case())
def test_join_project_equals_join_then_project(case):
    """Attributes, rows, row order and every charge."""
    left, right, keep = case
    reference_meter, meter = WorkMeter(), WorkMeter()
    joined = left.natural_join(right, meter=reference_meter)
    expected = joined.project(keep, dedup=True, meter=reference_meter)
    assert joined.attributes == left.joined_attributes(right)
    sizes = []
    actual = left.join_project(right, keep, meter=meter, on_joined=sizes.append)
    assert actual.attributes == expected.attributes
    assert actual.tuples == expected.tuples
    assert actual.name == expected.name
    assert meter.snapshot() == reference_meter.snapshot()
    assert sizes == [len(joined)]


@settings(max_examples=60, deadline=None)
@given(pair=relation_pair())
def test_projection_idempotent(pair):
    r, _ = pair
    once = r.project(["a"], dedup=True)
    twice = once.project(["a"], dedup=True)
    assert once.same_content(twice)


@settings(max_examples=40, deadline=None)
@given(pair=relation_pair(), extra=relation_pair())
def test_join_associative(pair, extra):
    r, s = pair
    t, _ = extra
    t = t.rename({"a": "b", "j": "a"})  # attrs: b, a — chains r-s-t
    left = r.natural_join(s).natural_join(t)
    right = r.natural_join(s.natural_join(t))
    assert left.same_content(right)


# ---------------------------------------------------------------------------
# End-to-end equivalence across every execution strategy
# ---------------------------------------------------------------------------


def make_chain_database(n_atoms, seed, rows=25, domain=6):
    rng = random.Random(seed)
    db = Database(f"prop{seed}")
    for i in range(n_atoms):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(
            schema,
            [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)],
        )
    db.analyze()
    return db


def chain_sql_for(n_atoms):
    tables = ", ".join(f"r{i}" for i in range(n_atoms))
    conditions = [f"r{i}.b{i} = r{i + 1}.a{i + 1}" for i in range(n_atoms - 1)]
    conditions.append(f"r{n_atoms - 1}.b{n_atoms - 1} = r0.a0")
    return (
        f"SELECT r0.a0, r1.a1 FROM {tables} WHERE " + " AND ".join(conditions)
    )


@settings(max_examples=15, deadline=None)
@given(
    n_atoms=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_all_execution_strategies_agree(n_atoms, seed):
    """Engine DP, q-HD single pass, classic 3-phase, SQL views, and the
    tight coupling all produce identical answers on random chain data, and
    the Boolean decision procedure says *yes* exactly when they are
    non-empty."""
    db = make_chain_database(n_atoms, seed)
    sql = chain_sql_for(n_atoms)

    dbms = SimulatedDBMS(db, COMMDB_PROFILE)
    engine_answer = dbms.run_sql(sql).relation

    optimizer = HybridOptimizer(db, max_width=2)
    plan = optimizer.optimize(sql)
    qhd_answer = plan.execute().relation
    assert engine_answer.same_content(qhd_answer)

    translation = plan.translation
    rels = atom_relations(translation.query, db, translation)
    classic = evaluate_hd_classic(plan.decomposition, translation.query, rels)
    single = evaluate_qhd(plan.decomposition, translation.query, rels)
    assert classic.same_content(single)

    views_answer = execute_view_plan(plan.to_sql_views(), dbms).relation
    assert engine_answer.same_content(views_answer)

    assert is_satisfiable(sql, db, max_width=2) == (len(engine_answer) > 0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_coupled_postgres_agrees_with_stock(seed):
    from repro.core.integration import install_structural_optimizer

    db = make_chain_database(4, seed)
    sql = chain_sql_for(4)
    stock = SimulatedDBMS(db, POSTGRES_PROFILE).run_sql(sql).relation
    coupled_dbms = SimulatedDBMS(db, POSTGRES_PROFILE)
    install_structural_optimizer(coupled_dbms, max_width=2)
    coupled = coupled_dbms.run_sql(sql).relation
    assert stock.same_content(coupled)

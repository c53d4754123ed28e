"""Tests for DP join ordering, GEQO, and the syntactic baseline."""

import pytest

from repro.engine.cost import atom_estimates
from repro.engine.geqo import GeqoOptimizer
from repro.engine.optimizer import JoinGraph, JoinOrderOptimizer, syntactic_plan
from repro.engine.plan import JoinNode, ScanNode, render_plan
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, RelationSchema


def make_db(tables):
    """tables: {name: (attrs, n_rows)} with integer data."""
    db = Database("opt")
    for name, (attrs, n_rows) in tables.items():
        schema = RelationSchema.of(
            name, {a: AttributeType.INT for a in attrs}
        )
        rows = [tuple(i % 7 for _ in attrs) for i in range(n_rows)]
        db.create_table(schema, rows)
    db.analyze()
    return db


@pytest.fixture()
def star_db():
    return make_db(
        {
            "fact": (["k1", "k2", "k3"], 1000),
            "dim1": (["k1", "a1"], 10),
            "dim2": (["k2", "a2"], 10),
            "dim3": (["k3", "a3"], 10),
        }
    )


def translate(db, sql):
    return sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())


STAR_SQL = """
SELECT dim1.a1 FROM fact, dim1, dim2, dim3
WHERE fact.k1 = dim1.k1 AND fact.k2 = dim2.k2 AND fact.k3 = dim3.k3
"""


class TestJoinGraph:
    def test_shared_variables(self, star_db):
        tr = translate(star_db, STAR_SQL)
        graph = JoinGraph(tr)
        shared = graph.shared_variables(frozenset({"fact"}), frozenset({"dim1"}))
        assert len(shared) == 1

    def test_connected_components(self, star_db):
        tr = translate(star_db, STAR_SQL)
        graph = JoinGraph(tr)
        assert len(graph.connected_components()) == 1

    def test_disconnected_components(self, star_db):
        tr = translate(
            star_db, "SELECT dim1.a1 FROM dim1, dim2"
        )
        graph = JoinGraph(tr)
        assert len(graph.connected_components()) == 2


class TestDP:
    @pytest.mark.parametrize("search", ["bushy", "leftdeep"])
    def test_produces_complete_plan(self, star_db, search):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, search).optimize()
        assert plan.aliases == frozenset({"fact", "dim1", "dim2", "dim3"})
        assert sum(isinstance(n, JoinNode) for n in plan.walk()) == 3

    def test_no_cross_products_when_connected(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, "bushy").optimize()
        for node in plan.walk():
            if isinstance(node, JoinNode):
                assert not node.is_cross_product

    def test_disconnected_gets_cross_join(self, star_db):
        tr = translate(star_db, "SELECT dim1.a1 FROM dim1, dim2")
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, "bushy").optimize()
        joins = [n for n in plan.walk() if isinstance(n, JoinNode)]
        assert len(joins) == 1 and joins[0].is_cross_product

    def test_leftdeep_is_left_deep(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, "leftdeep").optimize()
        node = plan
        while isinstance(node, JoinNode):
            assert isinstance(node.right, ScanNode)
            node = node.left

    def test_invalid_search_space(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        from repro.errors import OptimizationError

        with pytest.raises(OptimizationError):
            JoinOrderOptimizer(tr, estimates, "zigzag")

    def test_estimates_annotated(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, "bushy").optimize()
        assert all(node.estimated_rows > 0 for node in plan.walk())

    def test_single_relation(self, star_db):
        tr = translate(star_db, "SELECT dim1.a1 FROM dim1")
        estimates = atom_estimates(tr, star_db, True)
        plan = JoinOrderOptimizer(tr, estimates, "bushy").optimize()
        assert isinstance(plan, ScanNode)


class TestSyntactic:
    def test_follows_from_order(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = syntactic_plan(tr, estimates)
        # Left-deep with scans in FROM order: fact, dim1, dim2, dim3.
        scans = [n.alias for n in plan.walk() if isinstance(n, ScanNode)]
        assert scans == ["fact", "dim1", "dim2", "dim3"]

    def test_render(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        text = render_plan(syntactic_plan(tr, estimates))
        assert "Scan(fact)" in text
        assert "HashJoin" in text


class TestGeqo:
    def test_deterministic_with_seed(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        p1 = GeqoOptimizer(tr, estimates, seed=7).optimize()
        p2 = GeqoOptimizer(tr, estimates, seed=7).optimize()
        assert render_plan(p1) == render_plan(p2)

    def test_covers_all_aliases(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = GeqoOptimizer(tr, estimates).optimize()
        assert plan.aliases == frozenset({"fact", "dim1", "dim2", "dim3"})

    def test_avoids_cross_products_on_connected_graph(self, star_db):
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        plan = GeqoOptimizer(tr, estimates, generations=60, seed=1).optimize()
        crosses = [
            n for n in plan.walk()
            if isinstance(n, JoinNode) and n.is_cross_product
        ]
        assert not crosses

    def test_single_relation(self, star_db):
        tr = translate(star_db, "SELECT dim1.a1 FROM dim1")
        estimates = atom_estimates(tr, star_db, True)
        plan = GeqoOptimizer(tr, estimates).optimize()
        assert isinstance(plan, ScanNode)

    def test_geqo_quality_close_to_dp(self, star_db):
        # On a small star schema GEQO should find a plan whose estimated
        # cost is within a small factor of the DP optimum.
        tr = translate(star_db, STAR_SQL)
        estimates = atom_estimates(tr, star_db, True)
        geqo = GeqoOptimizer(tr, estimates, generations=80, seed=0)
        dp_plan = JoinOrderOptimizer(tr, estimates, "leftdeep").optimize()
        geqo_plan = geqo.optimize()
        dp_cost = geqo._fitness(
            [n.alias for n in dp_plan.walk() if isinstance(n, ScanNode)][::-1]
        )
        geqo_cost = geqo._fitness(
            [n.alias for n in geqo_plan.walk() if isinstance(n, ScanNode)][::-1]
        )
        assert geqo_cost <= dp_cost * 5

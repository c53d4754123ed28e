"""Tests for the star-schema synthetic family."""

import pytest

from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.errors import QueryError
from repro.hypergraph import is_acyclic, primal_graph
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.workloads.synthetic import (
    StarConfig,
    generate_star_database,
    star_query_sql,
)


@pytest.fixture()
def star():
    config = StarConfig(n_dimensions=4, fact_rows=300, dimension_rows=20, seed=5)
    db = generate_star_database(config)
    db.analyze()
    return config, db


class TestGeneration:
    def test_shapes(self, star):
        config, db = star
        assert len(db.table("fact")) == 300
        assert len(db.table("fact").attributes) == 5  # measure + 4 keys
        for i in range(4):
            assert len(db.table(f"dim{i}")) == 20

    def test_keys_in_range(self, star):
        config, db = star
        fact = db.table("fact")
        for i in range(4):
            idx = fact.index_of(f"k{i}")
            assert all(0 <= row[idx] < 20 for row in fact.tuples)

    def test_validation(self):
        with pytest.raises(QueryError):
            StarConfig(n_dimensions=0)
        with pytest.raises(QueryError):
            StarConfig(n_dimensions=2, fact_rows=0)


class TestStructure:
    def test_wide_atom_gap(self, star):
        """The intro's motivating case: the hypergraph is acyclic (hw 1),
        but the fact atom makes its primal graph a clique on the dimension
        keys, so every primal-graph method sees a width of n_dimensions."""
        config, db = star
        tr = sql_to_conjunctive(parse_sql(star_query_sql(config)), db.schema.as_mapping())
        hg = tr.query.hypergraph()
        assert is_acyclic(hg)
        dimensions = hg.variables_of(n for n in hg.edge_names if n != "fact")
        keys = hg.edge("fact").vertices & dimensions
        assert len(keys) == config.n_dimensions
        adjacency = primal_graph(hg)
        assert all(keys - {key} <= adjacency[key] for key in keys)


class TestExecution:
    def test_all_systems_agree(self, star):
        config, db = star
        sql = star_query_sql(config)
        engine = SimulatedDBMS(db, COMMDB_PROFILE).run_sql(sql)
        plan = HybridOptimizer(db, max_width=2).optimize(sql)
        qhd = plan.execute()
        assert engine.relation.same_content(qhd.relation)

    def test_scales_with_dimensions(self):
        for d in (2, 5, 8):
            config = StarConfig(n_dimensions=d, fact_rows=100, dimension_rows=10, seed=d)
            db = generate_star_database(config)
            db.analyze()
            sql = star_query_sql(config)
            plan = HybridOptimizer(db, max_width=2).optimize(sql)
            result = plan.execute()
            baseline = SimulatedDBMS(db, COMMDB_PROFILE).run_sql(sql)
            assert result.relation.same_content(baseline.relation)

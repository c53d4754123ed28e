"""Tests for the TPC-H and synthetic workload generators."""

import pytest

from repro.errors import QueryError
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_synthetic_database,
    synthetic_query_sql,
)
from repro.workloads.tpch import (
    NATIONS,
    REGIONS,
    TPCH_SCHEMA,
    generate_tpch_database,
    tpch_row_counts,
)
from repro.workloads.tpch_queries import TPCH_QUERIES, query_q3, query_q5, query_q8, query_q10


class TestTpchRowCounts:
    def test_fixed_tables(self):
        counts = tpch_row_counts(500)
        assert counts["region"] == 5
        assert counts["nation"] == 25

    def test_linear_scaling(self):
        small = tpch_row_counts(200)
        large = tpch_row_counts(1000)
        assert large["lineitem"] == pytest.approx(5 * small["lineitem"], rel=0.05)

    def test_dbgen_proportions(self):
        counts = tpch_row_counts(1000)
        assert counts["lineitem"] == pytest.approx(4 * counts["orders"], rel=0.05)
        assert counts["customer"] == pytest.approx(15 * counts["supplier"], rel=0.05)


class TestTpchGeneration:
    def test_deterministic(self):
        db1 = generate_tpch_database(size_mb=50, seed=9)
        db2 = generate_tpch_database(size_mb=50, seed=9)
        assert db1.table("orders").tuples == db2.table("orders").tuples

    def test_all_tables_present(self, tiny_tpch):
        for schema in TPCH_SCHEMA:
            assert schema.name in tiny_tpch

    def test_foreign_keys_in_range(self, tiny_tpch):
        n_customers = len(tiny_tpch.table("customer"))
        custkey_idx = tiny_tpch.table("orders").index_of("o_custkey")
        for row in tiny_tpch.table("orders").tuples:
            assert 1 <= row[custkey_idx] <= n_customers
        nationkey_idx = tiny_tpch.table("supplier").index_of("s_nationkey")
        for row in tiny_tpch.table("supplier").tuples:
            assert 0 <= row[nationkey_idx] < len(NATIONS)

    def test_region_names(self, tiny_tpch):
        names = set(tiny_tpch.table("region").column("r_name"))
        assert names == set(REGIONS)

    def test_dates_in_dbgen_window(self, tiny_tpch):
        idx = tiny_tpch.table("orders").index_of("o_orderdate")
        for row in tiny_tpch.table("orders").tuples:
            assert "1992-01-01" <= row[idx] <= "1998-08-02"

    def test_partsupp_key_unique(self, tiny_tpch):
        ps = tiny_tpch.table("partsupp")
        keys = list(zip(ps.column("ps_partkey"), ps.column("ps_suppkey")))
        assert len(keys) == len(set(keys))

    def test_analyze_flag(self):
        db = generate_tpch_database(size_mb=50, seed=1, analyze=True)
        assert db.has_statistics()

    def test_types_validate(self):
        db = generate_tpch_database(size_mb=50, seed=1)
        for schema in TPCH_SCHEMA:
            relation = db.table(schema.name)
            for row in relation.tuples[:20]:
                for (attr, attr_type), value in zip(schema.attributes, row):
                    assert attr_type.validate(value), (schema.name, attr, value)


class TestTpchQueries:
    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    def test_queries_parse_and_translate(self, name, tiny_tpch):
        sql = TPCH_QUERIES[name]()
        tr = sql_to_conjunctive(parse_sql(sql), tiny_tpch.schema.as_mapping())
        assert tr.query.atoms

    def test_q5_is_cyclic_width_2(self, tiny_tpch):
        from repro.core.detkdecomp import hypertree_width
        from repro.hypergraph import is_acyclic

        tr = sql_to_conjunctive(parse_sql(query_q5()), tiny_tpch.schema.as_mapping())
        hg = tr.query.hypergraph()
        assert not is_acyclic(hg)
        assert hypertree_width(hg) == 2

    def test_q8_has_8_atoms_and_qhd_width_2(self, tiny_tpch):
        # Q8's join graph is a tree, but its output variables span lineitem
        # and the supplier-side nation, so any q-hypertree decomposition
        # needs width ≥ 2 at the root (the paper's Example 4 effect — this
        # is why the paper counts Q8 among its width-2 queries).
        from repro.core.qhd import q_hypertree_decomp
        from repro.errors import DecompositionNotFound

        tr = sql_to_conjunctive(parse_sql(query_q8()), tiny_tpch.schema.as_mapping())
        assert len(tr.query.atoms) == 8
        with pytest.raises(DecompositionNotFound):
            q_hypertree_decomp(tr.query, 1)
        tree = q_hypertree_decomp(tr.query, 2)
        assert tree.is_q_hypertree_decomposition(tr.query.output_variables)

    def test_q3_q10_acyclic(self, tiny_tpch):
        from repro.hypergraph import is_acyclic

        for sql in (query_q3(), query_q10()):
            tr = sql_to_conjunctive(parse_sql(sql), tiny_tpch.schema.as_mapping())
            assert is_acyclic(tr.query.hypergraph())

    def test_q7_double_nation_reference(self, tiny_tpch):
        from repro.workloads.tpch_queries import query_q7

        tr = sql_to_conjunctive(parse_sql(query_q7()), tiny_tpch.schema.as_mapping())
        nations = [a for a in tr.query.atoms if a.relation == "nation"]
        assert len(nations) == 2

    def test_q9_partsupp_absorbed_by_lineitem(self, tiny_tpch):
        # partsupp's (partkey, suppkey) variables are a subset of
        # lineitem's, so GYO absorbs it: CQ(Q9) is acyclic.
        from repro.hypergraph import is_acyclic
        from repro.workloads.tpch_queries import query_q9

        tr = sql_to_conjunctive(parse_sql(query_q9()), tiny_tpch.schema.as_mapping())
        assert len(tr.query.atoms) == 6
        assert is_acyclic(tr.query.hypergraph())

    def test_q7_q9_execute_consistently(self, tiny_tpch):
        from repro.core.optimizer import HybridOptimizer
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
        from repro.workloads.tpch_queries import query_q7, query_q9

        dbms = SimulatedDBMS(tiny_tpch, COMMDB_PROFILE)
        optimizer = HybridOptimizer(tiny_tpch, max_width=3)
        for sql in (query_q7(), query_q9()):
            engine = dbms.run_sql(sql)
            qhd = optimizer.optimize(sql).execute()
            assert engine.relation.same_content(qhd.relation)

    def test_parameterization(self):
        sql = query_q5(region="EUROPE", date_from="1995-06-01")
        assert "EUROPE" in sql
        assert "1995-06-01" in sql


class TestSynthetic:
    def test_config_validation(self):
        with pytest.raises(QueryError):
            SyntheticConfig(n_atoms=1)
        with pytest.raises(QueryError):
            SyntheticConfig(n_atoms=3, selectivity=0)
        with pytest.raises(QueryError):
            SyntheticConfig(n_atoms=3, cardinality=0)

    def test_distinct_values(self):
        config = SyntheticConfig(n_atoms=3, cardinality=500, selectivity=30)
        assert config.distinct_values == 150

    def test_label(self):
        config = SyntheticConfig(n_atoms=4, cyclic=True)
        assert "chain" in config.label

    def test_database_shape(self):
        config = SyntheticConfig(n_atoms=5, cardinality=100, selectivity=50)
        db = generate_synthetic_database(config)
        assert len(db) == 5
        assert all(len(db.table(f"rel{i}")) == 100 for i in range(5))

    def test_values_within_domain(self):
        config = SyntheticConfig(n_atoms=2, cardinality=50, selectivity=10, seed=3)
        db = generate_synthetic_database(config)
        v = config.distinct_values
        for row in db.table("rel0").tuples:
            assert all(0 <= value < v for value in row)

    def test_deterministic(self):
        config = SyntheticConfig(n_atoms=3, seed=5)
        db1 = generate_synthetic_database(config)
        db2 = generate_synthetic_database(config)
        assert db1.table("rel1").tuples == db2.table("rel1").tuples

    def test_acyclic_query_structure(self):
        config = SyntheticConfig(n_atoms=4, cyclic=False)
        sql = synthetic_query_sql(config)
        db = generate_synthetic_database(config)
        tr = sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())
        from repro.hypergraph import is_acyclic

        assert is_acyclic(tr.query.hypergraph())

    def test_chain_query_structure(self):
        config = SyntheticConfig(n_atoms=4, cyclic=True)
        sql = synthetic_query_sql(config)
        db = generate_synthetic_database(config)
        tr = sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())
        from repro.core.detkdecomp import hypertree_width
        from repro.hypergraph import is_acyclic

        hg = tr.query.hypergraph()
        assert not is_acyclic(hg)
        assert hypertree_width(hg) == 2

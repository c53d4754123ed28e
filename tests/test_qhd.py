"""Tests for Algorithm q-HypertreeDecomp: atom assignment and Optimize."""

import pytest

from repro.errors import DecompositionError, DecompositionNotFound
from repro.hypergraph import Hypergraph
from repro.query.builder import ConjunctiveQueryBuilder
from repro.core.detkdecomp import det_k_decomp
from repro.core.hypertree import Hypertree, make_node
from repro.core.qhd import assign_atoms, procedure_optimize, q_hypertree_decomp


def chain_query(n, output=("V0",)):
    builder = ConjunctiveQueryBuilder("chain")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % n}")
    return builder.output(*output).build()


def line_query(n, output=("V0",)):
    builder = ConjunctiveQueryBuilder("line")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{i + 1}")
    return builder.output(*output).build()


class TestQHypertreeDecomp:
    def test_basic_chain(self):
        q = chain_query(6)
        tree = q_hypertree_decomp(q, 2)
        assert tree.is_q_hypertree_decomposition(q.output_variables)
        assert q.output_variables <= tree.root.chi

    def test_failure_raised(self):
        # Covering all 7 distinct variables of a 7-line at the root needs
        # more than 2 edges.
        q = line_query(7, output=tuple(f"V{i}" for i in range(8)))
        with pytest.raises(DecompositionNotFound):
            q_hypertree_decomp(q, 2)

    def test_every_atom_lands_in_some_lambda(self):
        q = chain_query(8)
        tree = q_hypertree_decomp(q, 3)
        placed = set()
        for node in tree.root.walk():
            placed.update(node.lam)
        assert placed == {a.name for a in q.atoms}

    def test_query_without_variables_gets_one_empty_node(self):
        from repro.query.conjunctive import Atom, ConjunctiveQuery, Constant

        q = ConjunctiveQuery([Atom("a", "r", (Constant(1),))])
        tree = q_hypertree_decomp(q, 2)
        assert len(tree) == 1
        assert tree.root.chi == frozenset() and not tree.root.lam

    def test_example4_style_output_forces_width_2(self):
        # An acyclic line whose output spans both endpoints: the q-HD must
        # pay width 2 even though hw = 1 (the paper's Example 4).
        q = line_query(6, output=("V0", "V6"))
        tree = q_hypertree_decomp(q, 2)
        assert {"V0", "V6"} <= tree.root.chi
        assert tree.width >= 2


class TestAssignAtoms:
    def test_assigns_missing_atoms(self):
        q = chain_query(4)
        hg = q.hypergraph()
        # A decomposition covering everything with only two λ atoms per
        # node; p1/p3 are χ-covered but absent from λ.
        child = make_node(chi=["V2", "V3", "V0"], lam=["p2"])
        root = make_node(chi=["V0", "V1", "V2"], lam=["p0", "p1"], children=[child])
        # Fix the tree so every edge is χ-covered:
        child.chi = frozenset({"V2", "V3", "V0"})
        tree = Hypertree(root, hg)
        assign_atoms(tree, q)
        placed = [name for node in tree.root.walk() for name in node.lam]
        assert sorted(placed) >= sorted({a.name for a in q.atoms} & set(placed))
        assert "p3" in placed  # was missing, covered by child's χ

    def test_uncovered_atom_rejected(self):
        q = chain_query(3)
        hg = q.hypergraph()
        root = make_node(chi=["V0", "V1"], lam=["p0"])
        tree = Hypertree(root, hg)
        with pytest.raises(DecompositionError):
            assign_atoms(tree, q)

    def test_noop_when_all_assigned(self):
        q = chain_query(4)
        tree = q_hypertree_decomp(q, 2, optimize=False)
        before = [node.lam for node in tree.root.walk()]
        assign_atoms(tree, q)
        assert [node.lam for node in tree.root.walk()] == before


class TestProcedureOptimize:
    def test_removes_redundant_bounding_atoms(self):
        # det-k-decomp's first-found decomposition of a chain duplicates
        # the root cover atom down the tree (the paper's HD₁ pattern).
        q = chain_query(6)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        total_before = sum(len(n.lam) for n in tree.root.walk())
        removed = procedure_optimize(tree)
        total_after = sum(len(n.lam) for n in tree.root.walk())
        assert removed > 0
        assert total_after == total_before - removed

    def test_guards_recorded(self):
        q = chain_query(6)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        procedure_optimize(tree)
        guard_count = sum(len(n.guards) for n in tree.root.walk())
        assert guard_count > 0
        for node in tree.root.walk():
            for atom, guard in node.guards.items():
                assert guard in node.children
                assert atom not in node.lam

    def test_never_removes_last_occurrence(self):
        q = chain_query(6)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        procedure_optimize(tree)
        placed = set()
        for node in tree.root.walk():
            placed.update(node.lam)
        assert placed == {a.name for a in q.atoms}

    def test_idempotent(self):
        q = chain_query(6)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        procedure_optimize(tree)
        assert procedure_optimize(tree) == 0

    def test_cost_k_decomp_output_already_lean(self):
        # With the min-cost search, Optimize usually finds nothing to strip.
        q = chain_query(6)
        tree = q_hypertree_decomp(q, 2, optimize=False)
        removed = procedure_optimize(tree)
        assert removed >= 0  # lean trees stay lean; nothing breaks


class TestQueriesWithoutVariables:
    """``SELECT count(*)`` over unreferenced columns has an empty H(Q): its
    decomposition is one node with χ = λ = ∅, and both q-HD paths give the
    built-in engine's answer."""

    @pytest.fixture()
    def db(self):
        from repro.relational import AttributeType, Database, RelationSchema

        db = Database("nv")
        db.create_table(RelationSchema.of("n", {"k": AttributeType.INT}), [(1,), (2,), (3,)])
        db.create_table(RelationSchema.of("m", {"j": AttributeType.INT}), [(1,), (5,)])
        db.create_table(RelationSchema.of("e", {"j": AttributeType.INT}), [])
        db.analyze()
        return db

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT count(*) FROM n", [(1,)]),
            ("SELECT count(*) FROM n, m", [(1,)]),
            ("SELECT count(*) FROM n, e", [(0,)]),
        ],
    )
    def test_optimizer_and_service_match_the_engine(self, db, sql, expected):
        from repro.core.optimizer import HybridOptimizer
        from repro.engine.dbms import SimulatedDBMS
        from repro.service.config import ServiceConfig

        assert SimulatedDBMS(db).run_sql(sql).relation.tuples == expected
        plan = HybridOptimizer(db).optimize(sql)
        assert plan.decomposition.root.chi == frozenset()
        assert plan.execute().relation.tuples == expected
        service = ServiceConfig(db).build()
        try:
            result = service.execute(sql)
        finally:
            service.close()
        assert result.optimizer == "q-hd"
        assert result.relation.tuples == expected

"""Tests for Yannakakis and the q-hypertree evaluator.

The reference point throughout is the brute-force backtracking evaluator
in ``conftest.py``: every decomposition-based evaluator must compute
exactly the same (set-semantics) answers.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HypergraphError
from repro.hypergraph.jointree import build_join_forest
from repro.metering import SpillModel, WorkMeter
from repro.query.builder import ConjunctiveQueryBuilder
from repro.core.detkdecomp import det_k_decomp
from repro.core.evaluator import (
    QHDEvaluator,
    atom_relations,
    evaluate_hd_classic,
    evaluate_qhd,
    subtree_signature,
    yannakakis_acyclic,
    yannakakis_boolean,
)
from repro.core.qhd import assign_atoms, procedure_optimize, q_hypertree_decomp

from repro.relational import Relation

from tests.conftest import brute_force_answer, random_database_for


def line_query(n, output=("V0",)):
    builder = ConjunctiveQueryBuilder("line")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{i + 1}")
    return builder.output(*output).build()


def chain_query(n, output=("V0", "V1")):
    builder = ConjunctiveQueryBuilder("chain")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", f"V{i}", f"V{(i + 1) % n}")
    return builder.output(*output).build()


def relations_for(query, seed=0, rows=10, values=4):
    rng = random.Random(seed)
    db = random_database_for(query, rng, max_rows=rows, values=values)
    return atom_relations(query, db)


class TestYannakakisBoolean:
    def test_satisfiable_line(self):
        q = line_query(4, output=())
        rels = relations_for(q, seed=1)
        expected = len(brute_force_answer(q.with_output(["V0"]), rels)) > 0
        assert yannakakis_boolean(q, rels) == expected

    def test_unsatisfiable(self):
        q = line_query(2, output=())
        rels = relations_for(q, seed=1)
        # Make the middle variable never match.
        rels["p1"] = Relation(["V1", "V2"], [(99, 99)])
        assert not yannakakis_boolean(q, rels)

    def test_cyclic_raises(self):
        q = chain_query(4, output=())
        rels = relations_for(q)
        with pytest.raises(HypergraphError):
            yannakakis_boolean(q, rels)

    def test_stops_at_the_first_empty_node(self):
        q = line_query(5, output=())
        rels = relations_for(q, seed=3)
        (root,) = build_join_forest(q.hypergraph())
        first = next(iter(root.postorder()))
        rels[first.edge.name] = Relation(rels[first.edge.name].attributes, [])
        # What a full upward pass over the join tree charges.
        full, current = WorkMeter(), dict(rels)
        for node in root.postorder():
            for child in node.children:
                current[node.edge.name] = current[node.edge.name].semijoin(
                    current[child.edge.name], meter=full
                )
        meter = WorkMeter()
        assert not yannakakis_boolean(q, rels, meter=meter)
        assert meter.total < full.total


class TestYannakakisFull:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, seed):
        q = line_query(4, output=("V0", "V2", "V4"))
        rels = relations_for(q, seed=seed)
        expected = brute_force_answer(q, rels)
        got = yannakakis_acyclic(q, rels)
        assert got.same_content(expected)

    def test_work_is_bounded(self):
        # Yannakakis should never blow past input+output polynomial size.
        q = line_query(6, output=("V0",))
        rels = relations_for(q, seed=7, rows=30, values=3)
        meter = WorkMeter()
        yannakakis_acyclic(q, rels, meter=meter)
        total_input = sum(len(r) for r in rels.values())
        assert meter.total < 100 * total_input

    def test_empty_answer(self):
        q = line_query(3, output=("V0",))
        rels = relations_for(q, seed=2)
        rels["p1"] = Relation(["V1", "V2"], [])
        got = yannakakis_acyclic(q, rels)
        assert len(got) == 0

        # A disconnected query: whichever component is empty, the answer is
        # the empty relation over the whole head.
        forest = (
            ConjunctiveQueryBuilder("forest")
            .atom("p0", "r0", "A", "B")
            .atom("p1", "r1", "C", "D")
            .output("A", "C")
            .build()
        )
        for empty in ("p0", "p1"):
            rels = {
                "p0": Relation(["A", "B"], [(1, 2)]),
                "p1": Relation(["C", "D"], [(3, 4)]),
            }
            rels[empty] = Relation(rels[empty].attributes, [])
            got = yannakakis_acyclic(forest, rels)
            assert got.attributes == ("A", "C")
            assert len(got) == 0


class TestQHDEvaluator:
    @pytest.mark.parametrize("seed", list(range(8)))
    def test_chain_matches_brute_force(self, seed):
        q = chain_query(5)
        rels = relations_for(q, seed=seed)
        tree = q_hypertree_decomp(q, 2)
        got = evaluate_qhd(tree, q, rels)
        expected = brute_force_answer(q, rels)
        assert got.same_content(expected)

    @pytest.mark.parametrize("seed", list(range(5)))
    def test_line_with_span_output(self, seed):
        q = line_query(5, output=("V0", "V5"))
        rels = relations_for(q, seed=seed)
        tree = q_hypertree_decomp(q, 2)
        got = evaluate_qhd(tree, q, rels)
        assert got.same_content(brute_force_answer(q, rels))

    def test_optimized_tree_same_answers(self):
        q = chain_query(6)
        rels = relations_for(q, seed=3, rows=15)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        plain = evaluate_qhd(tree.clone(), q, rels)
        procedure_optimize(tree)
        optimized = evaluate_qhd(tree, q, rels)
        assert plain.same_content(optimized)

    def test_optimize_saves_work(self):
        q = chain_query(8)
        rels = relations_for(q, seed=3, rows=60, values=6)
        tree = det_k_decomp(q.hypergraph(), 2, required_root_cover=q.output_variables)
        assign_atoms(tree, q)
        baseline = tree.clone()
        procedure_optimize(tree)
        m1, m2 = WorkMeter(), WorkMeter()
        evaluate_qhd(tree, q, rels, meter=m1)
        evaluate_qhd(baseline, q, rels, meter=m2)
        assert m1.total <= m2.total

    def test_spill_model_charges(self):
        q = chain_query(5)
        rels = relations_for(q, seed=0, rows=40, values=3)
        tree = q_hypertree_decomp(q, 2)
        meter = WorkMeter()
        evaluate_qhd(tree, q, rels, meter=meter, spill=SpillModel(1, 5.0))
        assert meter.by_category.get("spill", 0) > 0

    def test_output_ordering_matches_head(self):
        q = chain_query(4, output=("V1", "V0"))
        rels = relations_for(q, seed=5)
        tree = q_hypertree_decomp(q, 2)
        got = evaluate_qhd(tree, q, rels)
        assert got.attributes == ("V1", "V0")

    def test_trace_available(self):
        q = chain_query(4)
        rels = relations_for(q, seed=0)
        tree = q_hypertree_decomp(q, 2)
        evaluator = QHDEvaluator(tree, q, WorkMeter())
        evaluator.evaluate(rels)
        assert evaluator.trace()


class TestClassicHD:
    @pytest.mark.parametrize("seed", list(range(5)))
    def test_matches_brute_force(self, seed):
        q = chain_query(5)
        rels = relations_for(q, seed=seed)
        tree = q_hypertree_decomp(q, 2)
        got = evaluate_hd_classic(tree, q, rels)
        assert got.same_content(brute_force_answer(q, rels))

    def test_matches_qhd_evaluator(self):
        q = chain_query(6)
        rels = relations_for(q, seed=11, rows=20)
        tree = q_hypertree_decomp(q, 2)
        classic = evaluate_hd_classic(tree, q, rels)
        single_pass = evaluate_qhd(tree, q, rels)
        assert classic.same_content(single_pass)

    @pytest.mark.parametrize(
        "n, seed, rows, spill, expected",
        [
            (5, 0, 10, None, {
                "join-build": 10, "join-out": 14, "join-probe": 13,
                "project": 14, "semijoin-build": 2, "semijoin-probe": 11,
            }),
            (6, 11, 20, SpillModel(1, 5.0), {
                "join-build": 41, "join-out": 134, "join-probe": 65,
                "project": 159, "semijoin-build": 99, "semijoin-probe": 132,
                "spill": 725,
            }),
        ],
    )
    def test_work_units_are_pinned(self, n, seed, rows, spill, expected):
        """The comparator's work-unit contract: S₂′ + the three phases charge
        exactly these units, category by category."""
        q = chain_query(n)
        rels = relations_for(q, seed=seed, rows=rows)
        tree = q_hypertree_decomp(q, 2)
        meter = WorkMeter()
        evaluate_hd_classic(tree, q, rels, meter=meter, spill=spill)
        assert dict(meter.by_category) == expected


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    values=st.integers(min_value=2, max_value=5),
)
def test_property_qhd_equals_brute_force_on_chains(n, seed, values):
    """The crown-jewel property: for random chain data, the q-hypertree
    evaluator computes exactly the brute-force answers."""
    q = chain_query(n)
    rng = random.Random(seed)
    db = random_database_for(q, rng, max_rows=10, values=values)
    rels = atom_relations(q, db)
    tree = q_hypertree_decomp(q, 2)
    got = evaluate_qhd(tree, q, rels)
    assert got.same_content(brute_force_answer(q, rels))


def star_query(n, output=("C",)):
    builder = ConjunctiveQueryBuilder("star")
    for i in range(n):
        builder.atom(f"p{i}", f"rel{i}", "C", f"V{i}")
    return builder.output(*output).build()


@st.composite
def shaped_case(draw):
    """A random line, chain or star CQ with a random head of 0–3 variables
    (Boolean included), its width-≤3 q-HD, and small random relations."""
    shape = draw(st.sampled_from(["line", "chain", "star"]))
    n = draw(st.integers(min_value=3 if shape == "chain" else 2, max_value=6))
    body = {"line": line_query, "chain": chain_query, "star": star_query}[shape](n)
    variables = sorted(body.variables)
    head = draw(st.permutations(variables))[: draw(st.integers(0, 3))]
    query = body.with_output(head)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    db = random_database_for(query, rng, max_rows=12, values=draw(st.integers(2, 4)))
    return query, q_hypertree_decomp(query, 3), atom_relations(query, db)


class TestProjectionRule:
    """Every fold step keeps only the node's interface — out(Q) at the root —
    plus the variables pending sources need."""

    @settings(max_examples=60, deadline=None)
    @given(case=shaped_case())
    def test_equals_classic_hd_as_sets(self, case):
        query, tree, rels = case
        classic = evaluate_hd_classic(tree, query, rels)
        single_pass = evaluate_qhd(tree, query, rels)
        assert single_pass.attributes == tuple(query.output)
        assert set(single_pass.tuples) == set(classic.tuples)
        assert len(single_pass.tuples) == len(set(single_pass.tuples))

    @settings(max_examples=25, deadline=None)
    @given(case=shaped_case())
    def test_worker_counts_agree_byte_for_byte(self, case):
        query, tree, rels = case
        runs = []
        for workers in (0, 2):
            meter = WorkMeter()
            answer = QHDEvaluator(tree, query, meter, workers=workers).evaluate(rels)
            runs.append((answer.attributes, answer.tuples, meter.snapshot()))
        assert runs[0] == runs[1]

    def test_root_drops_chi_variables_outside_the_head(self):
        q = chain_query(6, output=("V0",))
        rels = relations_for(q, seed=4, rows=25, values=4)
        tree = q_hypertree_decomp(q, 2)
        assert len(tree.root.chi) > 1
        evaluator = QHDEvaluator(tree, q, WorkMeter())
        answer = evaluator.evaluate(rels)
        assert answer.same_content(brute_force_answer(q, rels))
        root_lines = [
            line for line in evaluator.trace()
            if line.startswith(f"node {tree.root.node_id}:")
        ]
        # The root's last fold already holds exactly the answer's rows.
        assert root_lines[-1].endswith(f"-> {len(answer)} tuples")

    def test_signature_keys_the_root_on_the_head(self):
        """Two heads over one body sign their subtrees alike but never
        their roots, so no root result is ever shared between them."""
        narrow = chain_query(5, output=("V0",))
        wide = narrow.with_output(["V0", "V2"])
        rels = relations_for(wide, seed=6, rows=20, values=3)
        tree = q_hypertree_decomp(wide, 2)
        root = tree.root
        assert subtree_signature(
            root, frozenset(narrow.output), rels
        ) != subtree_signature(root, frozenset(wide.output), rels)
        for child in root.ordered_children():
            keep = child.chi & root.chi
            assert subtree_signature(child, keep, rels) == subtree_signature(
                child, keep, rels
            )
        assert QHDEvaluator(tree, narrow).evaluate(rels).same_content(
            brute_force_answer(narrow, rels)
        )
        assert QHDEvaluator(tree, wide).evaluate(rels).same_content(
            brute_force_answer(wide, rels)
        )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_yannakakis_equals_brute_force_on_lines(n, seed):
    q = line_query(n, output=("V0", f"V{n}"))
    rng = random.Random(seed)
    db = random_database_for(q, rng, max_rows=10, values=4)
    rels = atom_relations(q, db)
    got = yannakakis_acyclic(q, rels)
    assert got.same_content(brute_force_answer(q, rels))

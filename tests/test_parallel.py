"""The q-HD evaluator across worker counts: parity, signatures, tracing, budgets.

The contract under test is the strongest one the evaluator makes: for every
workload and every worker count it returns *exactly* the inline
evaluation's relation — same rows, same order — for exactly the same work
units, and under exhausted budgets each run trips with the same typed
error at the same fold.  Served and stand-alone queries always fold
inline; ``workers >= 2`` is reachable only through the evaluator.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.scans import atom_relations
from repro.errors import MemoryBudgetExceeded, WorkBudgetExceeded
from repro.metering import SpillModel, WorkMeter
from repro.obs.tracing import Tracer
from repro.parallel import (
    ParallelQHDEvaluator,
    SubtreePool,
    fused_join_project,
    joined_attributes,
    subtree_signature,
)
from repro.relational.relation import Relation
from repro.resilience.budget import MemoryBudget
from repro.resilience.context import resilient
from repro.core.evaluator import QHDEvaluator
from repro.core.optimizer import HybridOptimizer
from repro.workloads.synthetic import (
    StarConfig,
    SyntheticConfig,
    generate_star_database,
    generate_synthetic_database,
    star_query_sql,
    synthetic_query_sql,
)

WORKER_COUNTS = (1, 2, 8)


def _plans():
    """(name, database, sql, max_width) for every parity workload."""
    chain = SyntheticConfig(
        n_atoms=6, cardinality=120, selectivity=12, cyclic=True, seed=7
    )
    star = StarConfig(n_dimensions=4, fact_rows=150, dimension_rows=40, seed=5)
    return [
        ("chain", generate_synthetic_database(chain), synthetic_query_sql(chain), 2),
        ("star", generate_star_database(star), star_query_sql(star), 3),
    ]


@pytest.fixture(scope="module")
def workloads():
    return _plans()


def _evaluate(plan, workers, tracer=None):
    """One evaluation of ``plan`` at ``workers``: (answer, work by category)."""
    meter = WorkMeter()
    base = atom_relations(
        plan.translation.query, plan.database, plan.translation, meter
    )
    answer = QHDEvaluator(
        plan.decomposition,
        plan.translation.query,
        meter,
        tracer=tracer,
        workers=workers,
    ).evaluate(base)
    return answer, meter.snapshot()


class TestParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_synthetic_parity(self, workloads, workers):
        for name, db, sql, width in workloads:
            plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(
                sql, name=name
            )
            serial, serial_work = _evaluate(plan, 0)
            parallel, parallel_work = _evaluate(plan, workers)
            assert parallel.attributes == serial.attributes, name
            assert parallel.tuples == serial.tuples, name
            assert parallel_work == serial_work, name

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("query", ["q5", "q8"])
    def test_tpch_parity(self, tiny_tpch, query, workers):
        from repro.workloads.tpch_queries import TPCH_QUERIES

        plan = HybridOptimizer(tiny_tpch, max_width=3).optimize(
            TPCH_QUERIES[query](), name=query
        )
        serial, serial_work = _evaluate(plan, 0)
        parallel, parallel_work = _evaluate(plan, workers)
        assert parallel.attributes == serial.attributes
        assert parallel.tuples == serial.tuples
        assert parallel_work == serial_work

    def test_single_worker_is_the_serial_path(self, workloads):
        """``workers <= 1`` folds inline: no pool, no thread, no fan-out span."""
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        for workers in (0, 1):
            tracer = Tracer()
            _evaluate(plan, workers, tracer=tracer)
            assert not tracer.spans("qhd.parallel")
            nodes = tracer.spans("qhd.node")
            assert nodes
            assert {span.thread for span in nodes} == {
                threading.current_thread().name
            }
        assert not [t for t in threading.enumerate() if t.name.startswith("qhd-node")]

    def test_trace_matches_serial_shape(self, workloads):
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        base = atom_relations(plan.translation.query, db, plan.translation)
        serial_ev = QHDEvaluator(plan.decomposition, plan.translation.query)
        serial_ev.evaluate(base)
        parallel_ev = ParallelQHDEvaluator(
            plan.decomposition, plan.translation.query, workers=4
        )
        parallel_ev.evaluate(base)
        # One fold line per source per node, in the serial post-order.
        assert len(parallel_ev.trace()) == len(serial_ev.trace())


class TestBudgets:
    """Typed budget errors fire at the same fold, with the same numbers,
    whether nodes run inline or on pool workers.

    The chain decomposition is a path, so its nodes run one after another
    at any worker count and the trip point is deterministic.
    """

    SPILL = SpillModel(200, 3.0)

    @pytest.fixture(scope="class")
    def chain(self, workloads):
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        assert all(len(n.children) <= 1 for n in plan.decomposition.root.walk())
        return db, plan

    def _evaluate(self, db, plan, workers, budget=None, memory=None):
        meter = WorkMeter(budget=budget)
        base = atom_relations(plan.translation.query, db, plan.translation, meter)
        evaluator = QHDEvaluator(
            plan.decomposition,
            plan.translation.query,
            meter,
            spill=self.SPILL,
            workers=workers,
        )
        with resilient(memory=memory):
            try:
                return evaluator.evaluate(base), meter
            except (WorkBudgetExceeded, MemoryBudgetExceeded) as error:
                return error, meter

    def test_work_budget_trips_at_the_same_charge(self, chain):
        db, plan = chain
        _, full = self._evaluate(db, plan, 0)
        tripped = 0
        for tenths in range(1, 10):
            budget = full.total * tenths // 10
            inline, inline_meter = self._evaluate(db, plan, 0, budget=budget)
            pooled, pooled_meter = self._evaluate(db, plan, 2, budget=budget)
            assert type(pooled) is type(inline)
            assert pooled_meter.snapshot() == inline_meter.snapshot()
            if isinstance(inline, WorkBudgetExceeded):
                tripped += 1
                assert (pooled.spent, pooled.phase) == (inline.spent, inline.phase)
        assert tripped >= 5

    def test_memory_budget_trips_at_the_same_fold(self, chain):
        db, plan = chain
        tripped = 0
        for cells in (300, 1000, 3000, 10000, 10**9):
            inline, inline_meter = self._evaluate(
                db, plan, 0, memory=MemoryBudget(max_cells=cells)
            )
            pooled, pooled_meter = self._evaluate(
                db, plan, 2, memory=MemoryBudget(max_cells=cells)
            )
            assert type(pooled) is type(inline)
            assert pooled_meter.snapshot() == inline_meter.snapshot()
            if isinstance(inline, MemoryBudgetExceeded):
                tripped += 1
                assert str(pooled) == str(inline)
                assert (pooled.rows, pooled.row_width, pooled.cells) == (
                    inline.rows,
                    inline.row_width,
                    inline.cells,
                )
        assert 1 <= tripped < 5


class TestFusedKernel:
    def test_matches_join_then_project(self):
        left = Relation(["a", "j"], [(i % 5, i % 3) for i in range(40)], name="L")
        right = Relation(["j", "b"], [(i % 3, i % 7) for i in range(50)], name="R")
        keep = ["a", "b"]
        expected = left.natural_join(right).project(keep, dedup=True)
        fused = left.join_project(right, keep)
        assert fused_join_project is Relation.join_project
        assert fused.attributes == expected.attributes
        assert fused.tuples == expected.tuples

    def test_joined_attributes_matches_natural_join(self):
        left = Relation(["a", "j"], [(1, 2)], name="L")
        right = Relation(["j", "b", "c"], [(2, 3, 4)], name="R")
        assert tuple(joined_attributes(left, right)) == (
            left.natural_join(right).attributes
        )

    def test_charges_and_checkpoints(self):
        meter = WorkMeter()
        left = Relation(["a", "j"], [(i, i % 4) for i in range(30)])
        right = Relation(["j", "b"], [(i % 4, i) for i in range(30)])
        seen = []
        left.join_project(right, ["a", "b"], meter=meter, on_joined=seen.append)
        reference = WorkMeter()
        joined = left.natural_join(right, meter=reference)
        joined.project(["a", "b"], dedup=True, meter=reference)
        assert meter.snapshot() == reference.snapshot()
        assert {"join-build", "join-probe", "join-out", "project"} <= set(
            meter.by_category
        )
        # The caller is handed the size of the join the two-step form
        # would have materialized.
        assert seen == [len(joined)]

    def test_cross_product_and_empty(self):
        left = Relation(["a"], [(1,), (2,)], name="L")
        right = Relation(["b"], [(3,), (4,)], name="R")
        fused = left.join_project(right, ["a", "b"])
        expected = left.natural_join(right).project(["a", "b"], dedup=True)
        assert fused.tuples == expected.tuples
        empty = Relation(["j", "b"], [], name="E")
        out = Relation(["a", "j"], [(1, 2)]).join_project(empty, ["a"])
        assert len(out) == 0


class TestMemo:
    """The signature under in-tree sharing: structurally identical
    subtrees are folded once."""

    def test_signature_soundness(self, workloads):
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        base = atom_relations(plan.translation.query, db, plan.translation)
        root = plan.decomposition.root
        sig_a = subtree_signature(root, None, base)
        sig_b = subtree_signature(root, None, base)
        assert sig_a == sig_b  # deterministic
        child = root.ordered_children()[0] if root.ordered_children() else None
        if child is not None:
            child_sig = subtree_signature(
                child, frozenset(child.chi & root.chi), base
            )
            assert child_sig != sig_a  # different subtree → different key
        narrowed = subtree_signature(
            root, frozenset(sorted(root.chi)[:1]), base
        )
        assert narrowed != sig_a  # different interface → different key


class TestTracing:
    def test_node_spans_parent_under_parallel_span(self, workloads):
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        tracer = Tracer()
        _evaluate(plan, 4, tracer=tracer)
        spans = tracer.spans()
        parallel = [s for s in spans if s.name == "qhd.parallel"]
        assert len(parallel) == 1
        nodes = [s for s in spans if s.name == "qhd.node"]
        assert nodes, "worker spans must be recorded"
        for span in nodes:
            assert span.parent_id == parallel[0].span_id


class TestPool:
    def test_pool_reuse_and_close(self, workloads):
        name, db, sql, width = workloads[0]
        plan = HybridOptimizer(db, max_width=width, use_statistics=False).optimize(sql)
        base = atom_relations(plan.translation.query, db, plan.translation)
        with SubtreePool(4) as pool:
            a = ParallelQHDEvaluator(
                plan.decomposition, plan.translation.query, workers=4, pool=pool
            ).evaluate(base)
            b = ParallelQHDEvaluator(
                plan.decomposition, plan.translation.query, workers=4, pool=pool
            ).evaluate(base)
        assert a.tuples == b.tuples

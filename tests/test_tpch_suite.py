"""Every TPC-H query on every system, every answer compared: a tiny database
for the unit checks, and the §6.1 comparison widened to all six queries at
200 MB (seed 1)."""

import pytest

from repro.core.integration import install_structural_optimizer
from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import TPCH_QUERIES

SYSTEMS = ("commdb+stats", "commdb-no-opt", "q-hd", "postgres+q-hd")


def run_systems(db, max_width=3, budget=5_000_000):
    """query → (q-HD width, system → DBMSResult) for every TPC-H query."""
    commdb = SimulatedDBMS(db, COMMDB_PROFILE)
    coupled = SimulatedDBMS(db, POSTGRES_PROFILE)
    install_structural_optimizer(coupled, max_width=max_width)
    optimizer = HybridOptimizer(db, max_width=max_width)
    runs = {}
    for name, make_sql in TPCH_QUERIES.items():
        sql = make_sql()
        plan = optimizer.optimize(sql)
        runs[name] = plan.width, {
            "commdb+stats": commdb.run_sql(sql, use_statistics=True, work_budget=budget),
            "commdb-no-opt": commdb.run_sql(sql, optimizer_enabled=False, work_budget=budget),
            "q-hd": plan.execute(work_budget=budget, spill=commdb.spill_model),
            "postgres+q-hd": coupled.run_sql(sql, work_budget=budget),
        }
    return runs


def work(result):
    return result.work if result.finished else None


def answers_agree(results):
    answers = [r.relation for r in results.values() if r.relation is not None]
    return all(answers[0].same_content(other) for other in answers[1:])


@pytest.fixture(scope="module")
def runs(tiny_tpch):
    return run_systems(tiny_tpch)


class TestSuite:
    def test_all_queries_present(self, runs):
        assert sorted(runs) == ["q10", "q3", "q5", "q7", "q8", "q9"]

    def test_all_systems_measured(self, runs):
        for _width, results in runs.values():
            assert set(results) == set(SYSTEMS)
            assert all(result.work > 0 for result in results.values())

    def test_answers_agree_everywhere(self, runs):
        assert all(answers_agree(results) for _width, results in runs.values())

    def test_widths_recorded(self, runs):
        assert all(width >= 1 for width, _results in runs.values())

    def test_qhd_and_coupled_engine_match_exactly(self, runs):
        # Both run the same decomposition pipeline → identical work.
        for _width, results in runs.values():
            qhd, coupled = work(results["q-hd"]), work(results["postgres+q-hd"])
            if qhd is not None and coupled is not None:
                assert qhd == coupled


@pytest.fixture(scope="module")
def runs_200mb():
    return run_systems(generate_tpch_database(size_mb=200, seed=1, analyze=True))


class TestSuiteAt200MB:
    """Every implemented TPC-H query, every system, every answer compared."""

    def test_every_system_finishes_and_agrees(self, runs_200mb):
        assert set(runs_200mb) == {"q3", "q5", "q7", "q8", "q9", "q10"}
        assert all(answers_agree(results) for _width, results in runs_200mb.values())
        # Only CommDB without its optimizer may exceed the budget.
        for _width, results in runs_200mb.values():
            for system in SYSTEMS:
                assert work(results[system]) is not None or system == "commdb-no-opt"

    def test_structure_wins_on_the_join_heavy_queries(self, runs_200mb):
        qhd = {name: work(results["q-hd"]) for name, (_w, results) in runs_200mb.items()}
        commdb = {
            name: work(results["commdb+stats"]) for name, (_w, results) in runs_200mb.items()
        }
        # The paper's headline: on Q5 and Q8 the structural plan beats the
        # statistics-driven engine ...
        for query in ("q5", "q8"):
            assert qhd[query] < commdb[query]
        # ... and it never loses by more than 2× anywhere.
        for query in runs_200mb:
            assert qhd[query] <= commdb[query] * 2

"""Smoke tests for the figure experiments (tiny budgets, quick scale).

The shape assertions are the verdict predicates of
``scripts/generate_experiments_md.py``, run at full scale by its
``--check`` (and mutated in ``test_verdicts.py``); these just pin that the
sweep runners produce complete, internally consistent series so a
regression cannot hide until that slower run.
"""

import pytest

from repro.bench.experiments import run_fig7, run_fig8, run_fig9


@pytest.mark.parametrize("variant", ["a", "b"])
def test_fig7_smoke(variant):
    # Small budget: big points may DNF, which is fine — the record shape
    # and answer consistency are what this test pins.
    result = run_fig7(variant, scale="quick", budget=200_000)
    assert result.consistent_answers()
    # 3 sweeps × 2 systems × 5 atom counts.
    assert len(result.records) == 30
    assert len(result.systems()) == 6
    for record in result.records:
        assert record.work >= 0
        assert record.extra.get("group")


def test_fig8_smoke():
    result = run_fig8("q5", scale="quick", budget=150_000)
    assert result.consistent_answers()
    assert result.systems() == ["commdb+stats", "commdb-no-opt", "q-hd"]
    assert result.points() == [200, 600, 1000]
    qhd = result.series("q-hd")
    assert all("width" in record.extra for record in qhd)
    # Work grows monotonically with database size for the q-HD series.
    finished = [r.work for r in qhd if r.finished]
    assert finished == sorted(finished)


def test_fig9_smoke():
    result = run_fig9(scale="quick", budget=300_000)
    assert result.consistent_answers()
    assert len(result.systems()) == 4
    for kind in ("acyclic", "chain"):
        series = result.series(f"postgres+q-hd-{kind}")
        assert [r.point for r in series] == [2, 4, 6, 8, 10]

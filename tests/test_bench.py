"""Tests for the experiment harness and reporting."""

import pytest

from repro.bench.harness import DNF, ExperimentResult, RunRecord, run_with_budget
from repro.bench.reporting import render_series_table
from repro.bench.experiments import EXPERIMENTS, run_experiment, run_fig10, run_overhead


def record(system, point, work=100, finished=True, rows=5, group=""):
    extra = {"group": group} if group else {}
    return RunRecord(
        system=system,
        point=point,
        work=work,
        simulated_seconds=work * 1e-6,
        elapsed_seconds=0.01,
        finished=finished,
        answer_rows=rows,
        extra=extra,
    )


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("x", "Title")
        result.add(record("a", 1, work=10))
        result.add(record("b", 1, work=20))
        result.add(record("a", 2, work=30))
        result.add(record("b", 2, work=60, finished=False, rows=None))
        return result

    def test_systems_and_points_ordered(self):
        result = self.make()
        assert result.systems() == ["a", "b"]
        assert result.points() == [1, 2]

    def test_series_and_lookup(self):
        result = self.make()
        assert len(result.series("a")) == 2
        assert result.record_for("b", 1).work == 20
        assert result.record_for("zzz", 1) is None

    def test_consistency_ok(self):
        assert self.make().consistent_answers()

    def test_consistency_detects_mismatch(self):
        result = self.make()
        result.add(record("c", 1, rows=999))
        assert not result.consistent_answers()

    def test_consistency_respects_groups(self):
        result = ExperimentResult("x", "t")
        result.add(record("a", 1, rows=5, group="g1"))
        result.add(record("b", 1, rows=7, group="g2"))
        assert result.consistent_answers()


class TestRunWithBudget:
    def test_wraps_dbms_result(self, chain_db, chain_sql):
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        rec = run_with_budget(
            lambda: dbms.run_sql(chain_sql), system="commdb", point=4
        )
        assert rec.finished
        assert rec.work > 0
        assert rec.answer_rows is not None

    def test_dnf_wrapped(self, chain_db, chain_sql):
        from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS

        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        rec = run_with_budget(
            lambda: dbms.run_sql(chain_sql, work_budget=10), system="x", point=1
        )
        assert not rec.finished
        assert rec.answer_rows is None


class TestReporting:
    def test_series_table(self):
        result = ExperimentResult("x", "My Title")
        result.add(record("sysA", 2, work=10))
        result.add(record("sysB", 2, work=20, finished=False))
        text = render_series_table(result, point_label="atoms")
        assert "My Title" in text
        assert "sysA" in text
        assert DNF in text
        assert "atoms" in text

    def test_series_table_float_metric(self):
        result = ExperimentResult("x", "t")
        result.add(record("a", 1))
        text = render_series_table(result, metric="simulated_seconds")
        assert "0.000" in text

    def test_missing_cell_rendered_as_dash(self):
        result = ExperimentResult("x", "t")
        result.add(record("a", 1))
        result.add(record("b", 2))
        text = render_series_table(result)
        assert "-" in text


class TestExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig7a", "fig7b", "fig7c", "fig7d",
            "fig8a", "fig8b", "fig9", "fig10", "overhead",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_fig10_runs_tiny(self):
        result = run_fig10(scale="quick", budget=2_000_000)
        assert result.records
        assert result.consistent_answers()
        # Optimize never does worse than no-Optimize.
        for point in result.points():
            with_opt = result.record_for("q-hd+optimize", point)
            without = result.record_for("q-hd-no-optimize", point)
            if with_opt.finished and without.finished:
                assert with_opt.work <= without.work
        # Optimize removes λ occurrences on the longer chains (a count the
        # CSV does not carry, so the fig10 verdict cannot read it).
        assert any(
            record.extra["removed"] > 0 for record in result.series("q-hd+optimize")
        )

    def test_overhead_runs(self):
        result = run_overhead(scale="quick")
        analyze = result.series("analyze")
        decompose = result.series("decompose")
        assert len(analyze) == len(decompose) == 3
        # ANALYZE work grows with size; the decomposition search charges
        # the same plan units at every size.
        assert analyze[-1].work > analyze[0].work
        assert decompose[0].work > 0
        assert len({rec.work for rec in decompose}) == 1

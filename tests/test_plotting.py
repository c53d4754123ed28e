"""Tests for the ASCII chart renderer."""

import pytest

from repro.bench.harness import ExperimentResult, RunRecord
from repro.bench.plotting import render_ascii_chart


def record(system, point, work, finished=True):
    return RunRecord(
        system=system,
        point=point,
        work=work,
        simulated_seconds=work * 1e-6,
        elapsed_seconds=0.0,
        finished=finished,
        answer_rows=1,
    )


@pytest.fixture()
def result():
    r = ExperimentResult("x", "Chart test")
    for point, (a, b) in enumerate([(10, 100), (20, 1000), (40, 10000)], start=2):
        r.add(record("alpha", point, a))
        r.add(record("beta", point, b))
    return r


class TestChart:
    def test_contains_title_and_legend(self, result):
        text = render_ascii_chart(result)
        assert "Chart test" in text
        assert "o=alpha" in text
        assert "x=beta" in text

    def test_monotone_series_rises(self, result):
        text = render_ascii_chart(result, height=8)
        chart_rows = [line[1:] for line in text.splitlines() if line.startswith("|")]
        # beta's marker must appear above alpha's in the top rows.
        top_half = "".join(chart_rows[: len(chart_rows) // 2])
        assert "x" in top_half

    def test_dnf_pinned_to_top(self, result):
        result.add(record("alpha", 5, 0, finished=False))
        result.add(record("beta", 5, 99999))
        text = render_ascii_chart(result)
        assert "!" in text

    def test_linear_scale(self, result):
        text = render_ascii_chart(result, log_scale=False)
        assert "scale" in text

    def test_empty_result(self):
        empty = ExperimentResult("x", "t")
        assert render_ascii_chart(empty) == "(no data)"

    def test_no_finished_runs(self):
        r = ExperimentResult("x", "t")
        r.add(record("a", 1, 0, finished=False))
        assert render_ascii_chart(r) == "(no finished runs)"

    def test_overlap_marker(self):
        r = ExperimentResult("x", "t")
        r.add(record("a", 1, 100))
        r.add(record("b", 1, 100))
        text = render_ascii_chart(r, height=5)
        assert "•" in text

    def test_cli_chart_flag(self, capsys):
        from repro.cli import main

        assert main(["experiment", "fig10", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

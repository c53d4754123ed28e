"""Tests for experiment-result export (CSV / JSON / Markdown)."""

import csv
import json

import pytest

from repro.bench.export import (
    render_markdown_table,
    result_to_rows,
    write_csv,
    write_json,
)
from repro.bench.harness import ExperimentResult, RunRecord


def record(system, point, work=100, finished=True):
    return RunRecord(
        system=system,
        point=point,
        work=work,
        simulated_seconds=work * 1e-6,
        elapsed_seconds=0.01,
        finished=finished,
        answer_rows=3,
    )


@pytest.fixture()
def result():
    r = ExperimentResult("figX", "Test experiment")
    r.add(record("a", 1, 10))
    r.add(record("b", 1, 20))
    r.add(record("a", 2, 30))
    r.add(record("b", 2, 0, finished=False))
    r.notes.append("a note")
    return r


class TestRows:
    def test_flattening(self, result):
        rows = result_to_rows(result)
        assert len(rows) == 4
        assert rows[0]["experiment"] == "figX"
        assert rows[0]["work"] == 10


class TestCsvJson:
    def test_csv_written(self, result, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([result], path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert rows[0]["system"] == "a"

    def test_json_written(self, result, tmp_path):
        path = tmp_path / "out.json"
        write_json([result], path)
        doc = json.loads(path.read_text())
        assert doc[0]["experiment"] == "figX"
        assert doc[0]["notes"] == ["a note"]
        assert len(doc[0]["records"]) == 4


class TestMarkdown:
    def test_table_shape(self, result):
        text = render_markdown_table(result, point_label="atoms")
        lines = text.splitlines()
        assert lines[0] == "| atoms | a | b |"
        assert "DNF" in text

    def test_missing_cell(self, result):
        result.add(record("c", 3))
        text = render_markdown_table(result)
        assert "–" in text

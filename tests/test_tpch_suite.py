"""The TPC-H suite runner: unit tests on a tiny database, and the §6.1
comparison widened to every query at 200 MB (seed 1)."""

import pytest

from repro.bench.tpch_suite import SYSTEMS, SuiteRow, render_suite, run_tpch_suite


@pytest.fixture(scope="module")
def rows(tiny_tpch):
    return run_tpch_suite(database=tiny_tpch, max_width=3, budget=5_000_000)


class TestSuite:
    def test_all_queries_present(self, rows):
        assert sorted(row.query for row in rows) == ["q10", "q3", "q5", "q7", "q8", "q9"]

    def test_all_systems_measured(self, rows):
        for row in rows:
            assert set(row.work) == set(SYSTEMS)

    def test_answers_agree_everywhere(self, rows):
        assert all(row.agree for row in rows)

    def test_widths_recorded(self, rows):
        assert all(row.qhd_width is not None for row in rows)

    def test_qhd_and_coupled_engine_match_exactly(self, rows):
        # Both run the same decomposition pipeline → identical work.
        for row in rows:
            if row.work["q-hd"] is not None and row.work["postgres+q-hd"] is not None:
                assert row.work["q-hd"] == row.work["postgres+q-hd"]

    def test_render(self, rows):
        text = render_suite(rows)
        assert "query" in text
        assert "q5" in text
        assert text.count("yes") == len(rows)

    def test_render_handles_dnf(self):
        row = SuiteRow(query="qX", work={s: None for s in SYSTEMS})
        text = render_suite([row])
        assert "DNF" in text


@pytest.fixture(scope="module")
def rows_200mb():
    return run_tpch_suite(size_mb=200, seed=1)


class TestSuiteAt200MB:
    """Every implemented TPC-H query, every system, every answer compared."""

    def test_every_system_finishes_and_agrees(self, rows_200mb):
        assert {row.query for row in rows_200mb} == {"q3", "q5", "q7", "q8", "q9", "q10"}
        assert all(row.agree for row in rows_200mb)
        # Only CommDB without its optimizer may exceed the budget.
        for row in rows_200mb:
            for system in SYSTEMS:
                assert row.work[system] is not None or system == "commdb-no-opt"

    def test_structure_wins_on_the_join_heavy_queries(self, rows_200mb):
        by_query = {row.query: row for row in rows_200mb}
        # The paper's headline: on Q5 and Q8 the structural plan beats the
        # statistics-driven engine ...
        for query in ("q5", "q8"):
            assert by_query[query].work["q-hd"] < by_query[query].work["commdb+stats"]
        # ... and it never loses by more than 2× anywhere.
        for row in rows_200mb:
            assert row.work["q-hd"] <= row.work["commdb+stats"] * 2

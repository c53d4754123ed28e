"""The SQL dialect's deliberate deviations (DESIGN.md §2), one test each.

Every compared system shares the parser, the scans and post-processing, so
the built-in engine and q-HD answer alike; SQLite and PostgreSQL answer
differently on each query here."""

import pytest

from repro.core.optimizer import HybridOptimizer
from repro.engine.dbms import SimulatedDBMS
from repro.relational import AttributeType, Database, RelationSchema


@pytest.fixture(scope="module")
def db():
    db = Database("dialect")
    db.create_table(
        RelationSchema.of("n", {"k": AttributeType.INT, "name": AttributeType.STRING}),
        [(7, "abc"), (8, "Abc"), (9, "abc")],
    )
    db.analyze()
    return db


def answers(db, sql):
    """The built-in engine's and q-HD's rows, checked equal."""
    engine = SimulatedDBMS(db).run_sql(sql).relation
    qhd = HybridOptimizer(db).optimize(sql).execute().relation
    assert engine.same_content(qhd)
    return sorted(engine.tuples)


def test_integer_division_is_true_division(db):
    # SQLite and PostgreSQL truncate an INT / INT: 7 / 2 = 3.
    assert answers(db, "SELECT n.k / 2 AS half FROM n WHERE n.k = 7") == [(3.5,)]


def test_like_is_case_sensitive(db):
    # As in PostgreSQL; SQLite's LIKE ignores ASCII case by default.
    assert answers(db, "SELECT n.k FROM n WHERE n.name LIKE 'a%'") == [(7,), (9,)]


def test_aggregates_and_plain_selects_run_over_distinct_bindings(db):
    # SQL counts 3 joined rows and returns 'abc' twice (ROADMAP item 17).
    assert answers(db, "SELECT count(*) FROM n, n m WHERE n.k = m.k") == [(1,)]
    assert answers(db, "SELECT n.name FROM n") == [("Abc",), ("abc",)]

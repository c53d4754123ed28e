"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import contextlib
import faulthandler
import io
import itertools
import json
import os
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Mapping, Optional, Tuple

import pytest

# Allow running the tests without installing the package.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.query.conjunctive import Atom, ConjunctiveQuery, Constant
from repro.relational import AttributeType, Database, Relation, RelationSchema


# ---------------------------------------------------------------------------
# Per-test deadline (opt-in, dependency-free)
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _per_test_deadline():
    """Abort a hung test with a traceback after ``HDQO_TEST_DEADLINE`` s.

    CI sets the variable (the chaos job must never wedge a runner); local
    runs leave it unset and pay nothing.  ``faulthandler`` dumps every
    thread's stack and exits, so a deadlock diagnoses itself.
    """
    seconds = float(os.environ.get("HDQO_TEST_DEADLINE", "0") or 0)
    if seconds <= 0:
        yield
        return
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


# ---------------------------------------------------------------------------
# Dynamic lock-order witness (opt-in: HDQO_LOCKCHECK=1)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session", autouse=True)
def _lock_order_witness():
    """Fail the session if the lock witness saw an acquisition cycle.

    With ``HDQO_LOCKCHECK=1``, every lock built by
    :func:`repro.analysis.lockwitness.make_lock` reports to the global
    witness; any two locks ever taken in opposite orders anywhere in the
    suite raise :class:`~repro.errors.LockOrderViolation` here.
    """
    yield
    from repro.analysis.lockwitness import GLOBAL_WITNESS, lockcheck_enabled

    if lockcheck_enabled():
        GLOBAL_WITNESS.assert_clean()


# ---------------------------------------------------------------------------
# One self-lint of src/repro per session (the model build is the cost)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def self_lint(tmp_path_factory):
    """CI's lint command, run once: ``hdqo lint --format json --graphs-out``.

    Returns the exit code, the JSON report and the two graph artifacts, so
    every self-clean / graph assertion in the suite reads one run.
    """
    from repro.cli import main as cli_main

    graphs = tmp_path_factory.mktemp("lint-graphs")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = cli_main(
            ["lint", "--format", "json", "--graphs-out", str(graphs)]
        )
    return SimpleNamespace(
        code=code,
        payload=json.loads(stdout.getvalue()),
        call_graph=json.loads((graphs / "call-graph.json").read_text()),
        lock_graph=json.loads((graphs / "lock-graph.json").read_text()),
    )


# ---------------------------------------------------------------------------
# Brute-force reference evaluation (used to validate every evaluator)
# ---------------------------------------------------------------------------


def brute_force_answer(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> Relation:
    """All answers of a conjunctive query by naive backtracking join.

    ``relations`` maps atom name → a relation whose attributes are the
    atom's variables (the :func:`repro.engine.scans.atom_relations` shape).
    Output is the distinct projection onto the query head.
    """
    bindings: List[Dict[str, object]] = [{}]
    for atom in query.atoms:
        relation = relations[atom.name]
        new_bindings: List[Dict[str, object]] = []
        for binding in bindings:
            for row in relation.tuples:
                candidate = dict(binding)
                ok = True
                for variable, value in zip(relation.attributes, row):
                    if variable in candidate and candidate[variable] != value:
                        ok = False
                        break
                    candidate[variable] = value
                if ok:
                    new_bindings.append(candidate)
        bindings = new_bindings
        if not bindings:
            break
    seen = set()
    out_rows: List[Tuple[object, ...]] = []
    for binding in bindings:
        row = tuple(binding[v] for v in query.output)
        if row not in seen:
            seen.add(row)
            out_rows.append(row)
    return Relation(query.output, out_rows)


def random_database_for(
    query: ConjunctiveQuery,
    rng: random.Random,
    max_rows: int = 12,
    values: int = 4,
) -> Database:
    """A random database matching a conjunctive query's positional atoms."""
    db = Database("random")
    for atom in query.atoms:
        if atom.relation in db:
            continue
        arity = len(atom.terms)
        schema = RelationSchema.of(
            atom.relation,
            [(f"c{i}", AttributeType.INT) for i in range(arity)],
        )
        rows = [
            tuple(rng.randrange(values) for _ in range(arity))
            for _ in range(rng.randrange(1, max_rows + 1))
        ]
        db.create_table(schema, rows)
    return db


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tiny_tpch():
    """A very small TPC-H database with statistics, shared by tests."""
    from repro.workloads.tpch import generate_tpch_database

    return generate_tpch_database(size_mb=50, seed=42, analyze=True)


@pytest.fixture()
def chain_db():
    """Four binary relations forming a cyclic chain, with statistics."""
    rng = random.Random(0)
    db = Database("chain4")
    for i in range(4):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(
            schema, [(rng.randrange(8), rng.randrange(8)) for _ in range(40)]
        )
    db.analyze()
    return db


CHAIN_SQL = """
SELECT r0.a0, r2.a2 FROM r0, r1, r2, r3
WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
"""


@pytest.fixture()
def chain_sql():
    return CHAIN_SQL


# ---------------------------------------------------------------------------
# Prometheus exposition well-formedness
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^{}]*)\})? (?P<value>\S+)$'
)
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def assert_wellformed_exposition(
    text: str, sums: Optional[Mapping[str, float]] = None
) -> None:
    """Every sample line parses and every histogram series is coherent.

    Per histogram series (``_bucket`` lines sharing their non-``le``
    labels): ``le`` strictly increasing, cumulative counts non-decreasing,
    the ``+Inf`` bucket present, last, and equal to ``_count``, and a
    ``_sum`` sample present — equal to ``sums[name]`` (the exact total)
    when the caller knows it.
    """
    buckets: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}
    samples: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        value = float(match["value"])  # raises on a malformed value
        labels = dict(_LABEL.findall(match["labels"] or ""))
        name = match["name"]
        if name.endswith("_bucket") and "le" in labels:
            le = float(labels.pop("le").replace("+Inf", "inf"))
            series = (name[: -len("_bucket")], repr(sorted(labels.items())))
            buckets.setdefault(series, []).append((le, int(value)))
        else:
            samples[(name, repr(sorted(labels.items())))] = value
    for (name, labels), series in buckets.items():
        bounds = [le for le, _ in series]
        counts = [count for _, count in series]
        assert bounds == sorted(set(bounds)), f"{name}: le not increasing"
        assert counts == sorted(counts), f"{name}: buckets not cumulative"
        assert bounds[-1] == float("inf"), f"{name}: no +Inf bucket"
        assert counts[-1] == samples[(f"{name}_count", labels)], name
        assert (f"{name}_sum", labels) in samples, f"{name}: no _sum"
        if sums is not None and name in sums:
            assert samples[(f"{name}_sum", labels)] == sums[name], name

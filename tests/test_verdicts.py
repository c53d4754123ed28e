"""The EXPERIMENTS.md verdicts: one predicate per experiment.

Each predicate in ``scripts/generate_experiments_md.py`` tests a figure's
shape on the committed ``experiments.csv`` (read back with the script's own
reader) and returns whether it holds plus its sentence.  These tests pin
that every predicate holds on the committed cells, reads only the
deterministic columns, prints no hand-typed number, and fails — making
``check`` exit 1 with no drifted row — when the cells it reads are swapped
or scaled.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

from repro.bench.experiments import run_fig9
from repro.bench.export import write_csv

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_CSV = ROOT / "experiments.csv"

_spec = importlib.util.spec_from_file_location(
    "generate_experiments_md", ROOT / "scripts" / "generate_experiments_md.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture()
def committed():
    return {result.experiment_id: result for result in gen.read_results(COMMITTED_CSV)}


def test_every_verdict_holds_on_the_committed_csv(committed, capsys):
    assert list(committed) == list(gen.EXPERIMENT_IDS)
    for experiment_id, result in committed.items():
        holds, sentence = gen.VERDICTS[experiment_id](result)
        assert holds, f"{experiment_id}: {sentence}"
    assert gen.check(list(committed.values()), COMMITTED_CSV) == 0
    assert "0 false verdict(s), 0 drifted row(s)" in capsys.readouterr().out


def test_reader_round_trips_the_deterministic_columns(committed):
    assert gen.drift(list(committed.values()), COMMITTED_CSV) == []


def test_verdicts_read_only_deterministic_columns(committed):
    for experiment_id, result in committed.items():
        before = gen.VERDICTS[experiment_id](result)
        for index, record in enumerate(result.records):
            result.records[index] = dataclasses.replace(
                record,
                simulated_seconds=123.0 + index,
                elapsed_seconds=1e-3 * (index % 7),
                extra={**record.extra, "width": index, "optimizer": "?"},
            )
        assert gen.VERDICTS[experiment_id](result) == before


def _sentence_constants(function):
    """String constants a function can put in its sentence (not its
    docstring, not a format spec such as ``.2f``)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    body = tree.body[0].body
    skipped = {id(body[0].value)} if ast.get_docstring(tree.body[0]) else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            skipped.update(id(inner) for inner in ast.walk(node.format_spec))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in skipped
    ]


def test_no_verdict_sentence_contains_a_literal_number():
    functions = set(gen.VERDICTS.values()) | {gen._x, gen._units, gen._join}
    for function in functions:
        for text in _sentence_constants(function):
            assert not any(ch.isdigit() for ch in text), (function.__name__, text)


def test_groups_read_back_from_labels_match_the_runner(committed):
    result = run_fig9(scale="quick", budget=300_000)
    for record in result.records:
        match = gen.GROUP_LABEL.search(record.system)
        assert match is not None and match.group(1) == record.extra["group"]
    # The runners that set no group get none back.
    for experiment_id in ("fig8a", "fig8b", "fig10", "overhead"):
        assert all("group" not in r.extra for r in committed[experiment_id].records)


# ---------------------------------------------------------------------------
# Mutations: swap or scale the cells a predicate reads, and it fails
# ---------------------------------------------------------------------------


def scale(system, point, factor, column="work"):
    def mutate(result):
        record = result.record_for(system, point)
        setattr(record, column, round(getattr(record, column) * factor))

    return mutate


def swap(first, second):
    """Exchange two records' deterministic cells."""

    def mutate(result):
        a, b = result.record_for(*first), result.record_for(*second)
        for column in ("work", "finished", "answer_rows", "phase_work"):
            value = getattr(a, column)
            setattr(a, column, getattr(b, column))
            setattr(b, column, value)

    return mutate


def finish(system, point, like, factor):
    """Let a DNF record finish with ``like``'s answer and ``factor`` × its work."""

    def mutate(result):
        record, reference = result.record_for(system, point), result.record_for(*like)
        record.finished = True
        record.answer_rows = reference.answer_rows
        record.work = reference.work * factor

    return mutate


MUTATIONS = {
    # The gap no longer narrows with selectivity; selectivity 30 finishes.
    "fig7a/selectivity-order": ("fig7a", swap(("commdb-sel30", 10), ("commdb-sel90", 10))),
    "fig7a/qhd-loses": ("fig7a", scale("commdb-sel90", 10, 0.5)),
    # Selectivity 30 still DNFs from 8 atoms but finishes the largest query,
    # far behind q-HD, so the gap stays ordered.
    "fig7a/sel30-finishes-last": (
        "fig7a",
        finish("commdb-sel30", 10, like=("q-hd-sel30", 10), factor=100),
    ),
    "fig7b/no-crossover": ("fig7b", swap(("commdb-sel30", 10), ("q-hd-sel30", 10))),
    "fig7b/beyond-slack": ("fig7b", scale("q-hd-sel60", 10, 2)),
    "fig7c/dnf-later": ("fig7c", swap(("commdb-card500", 7), ("commdb-card1000", 7))),
    "fig7c/not-linear": ("fig7c", scale("q-hd-card1000", 10, 1.5)),
    "fig7d/qhd-loses": ("fig7d", scale("commdb-card500", 10, 0.25)),
    "fig8a/qhd-loses": ("fig8a", scale("q-hd", 600, 1.5)),
    "fig8a/ratio-shrinks": ("fig8a", swap(("commdb-no-opt", 400), ("commdb-no-opt", 600))),
    "fig8b/ratio-shrinks": ("fig8b", swap(("commdb-no-opt", 200), ("commdb-no-opt", 400))),
    "fig9/coupling-loses": ("fig9", scale("postgres-chain", 10, 0.3)),
    "fig9/gap-peaks-early": ("fig9", swap(("postgres-acyclic", 9), ("postgres-acyclic", 10))),
    "fig10/small-saving": ("fig10", scale("q-hd+optimize", 10, 1.6)),
    "fig10/answers-disagree": ("fig10", scale("q-hd+optimize", 5, 2, column="answer_rows")),
    "overhead/plan-units-move": ("overhead", scale("decompose", 1000, 2)),
    "overhead/analyze-not-linear": ("overhead", scale("analyze", 1000, 0.5)),
}


def test_every_predicate_has_a_mutation():
    assert {experiment for experiment, _ in MUTATIONS.values()} == set(gen.EXPERIMENT_IDS)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_falsifies_its_predicate(name, committed, tmp_path, capsys):
    experiment_id, mutate = MUTATIONS[name]
    mutate(committed[experiment_id])
    holds, _ = gen.VERDICTS[experiment_id](committed[experiment_id])
    assert not holds
    # ``check`` fails on the false verdict alone: no committed cell drifted.
    results = list(committed.values())
    write_csv(results, tmp_path / "experiments.csv")
    assert gen.check(results, tmp_path / "experiments.csv") == 1
    assert "1 false verdict(s), 0 drifted row(s)" in capsys.readouterr().out


def test_fig9_geqo_clause_follows_the_growth_rates(committed):
    result = committed["fig9"]
    holds, sentence = gen.VERDICTS["fig9"](result)
    assert holds and "is not shown:" in sentence and "short of" in sentence
    # Stock PostgreSQL's work at the largest query tripled: its growth per
    # atom from the GEQO threshold on now clearly outpaces the growth below.
    for kind in ("acyclic", "chain"):
        scale(f"postgres-{kind}", 10, 3)(result)
    holds, sentence = gen.VERDICTS["fig9"](result)
    assert holds and "is shown:" in sentence and "at least" in sentence


def test_quick_check_is_rejected_before_any_experiment_runs(monkeypatch, capsys):
    def run_experiment(*_args, **_kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(gen, "run_experiment", run_experiment)
    monkeypatch.setattr(
        "sys.argv", ["generate_experiments_md.py", "--scale", "quick", "--check"]
    )
    with pytest.raises(SystemExit) as exited:
        gen.main()
    assert exited.value.code == 2
    assert "--scale full" in capsys.readouterr().err

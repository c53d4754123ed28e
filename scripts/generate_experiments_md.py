"""Generate EXPERIMENTS.md by running every paper experiment.

Run:  python scripts/generate_experiments_md.py [--scale full|quick] [--check]

Each section records what the paper's figure shows, the series this
reproduction measures (work units — the machine-independent time proxy),
and a verdict.  A verdict is a predicate over the experiment's own cells
(:data:`VERDICTS`): it tests the figure's shape on the deterministic
columns only and returns whether the shape holds and the sentence, whose
every number is computed from the cells it tested.

``--check`` writes nothing: it re-runs the experiments, prints every
verdict, and exits 1 when a verdict is false or a deterministic column of
the committed ``experiments.csv`` has drifted.  That file is the
full-scale record, so ``--check`` runs only with ``--scale full``; with
``--scale quick`` it exits 2 before any experiment runs.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.experiments import run_experiment
from repro.bench.export import (
    render_markdown_table,
    result_to_rows,
    write_csv,
    write_json,
)
from repro.bench.harness import ExperimentResult, RunRecord
from repro.engine.dbms import POSTGRES_PROFILE

EXPERIMENT_IDS = (
    "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8a", "fig8b", "fig9", "fig10", "overhead",
)

#: The columns of ``experiments.csv`` that do not depend on the clock —
#: the only columns a verdict reads.
DETERMINISTIC_COLUMNS = (
    "experiment", "system", "point", "work", "finished", "answer_rows",
    "work_decompose", "work_optimize", "work_execute",
)

#: The fig7/fig9 runners group records (answers are compared within a
#: group) by the last part of the system label: ``q-hd-sel30`` → ``sel30``,
#: ``postgres+q-hd-chain`` → ``chain``.
GROUP_LABEL = re.compile(r"-((?:sel|card)\d+|acyclic|chain)$")

PAPER_NOTES = {
    "fig7a": (
        "Acyclic queries, cardinality 500, selectivity ∈ {30, 60, 90}: CommDB's "
        "execution time grows steeply with the number of body atoms and stops "
        "terminating at 10 atoms, while the q-HD driven executions take just a "
        "few seconds; lower selectivity (larger joins) widens the gap."
    ),
    "fig7b": (
        "Chain (cyclic) queries, same sweep: same picture, with the structural "
        "method's advantage appearing from ~8 atoms."
    ),
    "fig7c": (
        "Acyclic queries at selectivity 30, cardinality ∈ {500, 750, 1000}: "
        "larger relations push CommDB into non-termination earlier; q-HD stays flat."
    ),
    "fig7d": "Chain queries, cardinality sweep: as fig7c.",
    "fig8a": (
        "TPC-H Q5, 200 MB–1000 MB: q-HD (used purely structurally — statistics "
        "did not change its plan) beats CommDB with statistics at every size; "
        "CommDB without its standard optimizer grows dramatically with database "
        "size and quickly becomes infeasible."
    ),
    "fig8b": "TPC-H Q8, same sweep and same ordering of the three systems.",
    "fig9": (
        "PostgreSQL 8.3 vs PostgreSQL with the structural optimizer integrated "
        "(cardinality 450, selectivity 60): the stock optimizer takes ~80 s "
        "already at 6 acyclic atoms, while the coupled system scales nicely to "
        "10 atoms on both acyclic and chain queries."
    ),
    "fig10": (
        "Chain queries on the fig9 dataset: evaluating the q-hypertree "
        "decomposition with Procedure Optimize (feature (b): λ atoms whose "
        "bounding role a child subsumes are dropped) is increasingly faster "
        "than evaluating the unoptimized decomposition."
    ),
    "overhead": (
        "§6.1 text: gathering statistics takes ~800 s for 1 GB and grows with "
        "the database, while building a structure-based query plan takes ~1.5 s "
        "on average, independent of the database size."
    ),
}

# ---------------------------------------------------------------------------
# Verdicts: one predicate per experiment
# ---------------------------------------------------------------------------

#: fig7: at the largest query q-HD needs at most this × the baseline's work.
BASELINE_SLACK = 2.0
#: "Linear": work per unit of the swept size varies by at most this factor.
LINEAR_SLACK = 1.1
#: fig9: GEQO "degrades fastest" when stock PostgreSQL's mean growth per
#: atom from the GEQO threshold on is at least this × the growth below it.
GEQO_STEEPER = 1.1
#: fig10: at the largest query Optimize's work is below this × without it.
OPTIMIZE_SHARE = 0.8

Verdict = Tuple[bool, str]


def _work(result: ExperimentResult, system: str, point: object) -> float:
    """A cell's work units; ∞ when the run did not finish (or is missing)."""
    record = result.record_for(system, point)
    return record.work if record is not None and record.finished else math.inf


def _beats(result: ExperimentResult, winner: str, loser: str, point: object) -> bool:
    """``winner`` finished at ``point`` with less work than ``loser`` (or it DNF'd)."""
    return _work(result, winner, point) < _work(result, loser, point)


def _gap(result: ExperimentResult, baseline: str, challenger: str, point: object) -> float:
    """``baseline``'s work over ``challenger``'s: ∞ when only the baseline
    DNF'd, 0 when the challenger did."""
    challenger_work = _work(result, challenger, point)
    if challenger_work == math.inf:
        return 0.0
    return _work(result, baseline, point) / challenger_work


def _wins_from(result: ExperimentResult, winner: str, loser: str) -> Optional[object]:
    """The first point from which ``winner`` beats ``loser`` and never loses
    again; None when it loses at the last point it is compared on."""
    start = None
    for point in result.points():
        if _beats(result, loser, winner, point):
            start = None
        elif start is None and _beats(result, winner, loser, point):
            start = point
    return start


def _first_dnf(result: ExperimentResult, system: str) -> Optional[object]:
    return next((r.point for r in result.series(system) if not r.finished), None)


def _finishes(result: ExperimentResult, system: str) -> bool:
    series = result.series(system)
    return bool(series) and all(record.finished for record in series)


def _linear(sizes: Sequence[float], works: Sequence[float]) -> bool:
    """Work proportional to size within ``LINEAR_SLACK`` (every run finished)."""
    per_unit = [work / size for size, work in zip(sizes, works)]
    return math.inf not in works and max(per_unit) <= LINEAR_SLACK * min(per_unit)


def _x(ratio: float) -> str:
    return "DNF" if ratio == math.inf else f"×{ratio:.2f}"


def _units(work: float) -> str:
    return "DNF" if work == math.inf else f"{work:,.0f}"


def _join(items: Iterable[object]) -> str:
    words = [str(item) for item in items]
    if len(words) <= 1:
        return "".join(words)
    return ", ".join(words[:-1]) + " and " + words[-1]


def _sweep(result: ExperimentResult) -> List[Tuple[int, str, str]]:
    """fig7's series in sweep order: (swept value, CommDB label, q-HD label)."""
    return [
        (int(re.sub(r"\D", "", system)), system, "q-hd-" + system[len("commdb-"):])
        for system in result.systems()
        if system.startswith("commdb-")
    ]


def _fig7_common(
    result: ExperimentResult, sweep: Sequence[Tuple[int, str, str]], last: object
) -> bool:
    """Every fig7 variant: the answers agree, and at the largest query q-HD
    needs at most ``BASELINE_SLACK`` × the baseline's work."""
    return result.consistent_answers() and all(
        _work(result, qhd, last) <= BASELINE_SLACK * _work(result, commdb, last)
        for _, commdb, qhd in sweep
    )


def _no_later(dnfs: Sequence[Optional[object]]) -> bool:
    """First-DNF points that never move later along the sweep (None = never)."""
    points = [math.inf if point is None else point for point in dnfs]
    return all(a >= b for a, b in zip(points, points[1:]))


def fig7a_verdict(result: ExperimentResult) -> Verdict:
    """q-HD finishes everywhere and wins at the largest query; the gap widens
    as selectivity drops, and at the lowest selectivity the baseline DNFs at
    the largest query."""
    sweep = _sweep(result)
    last = result.points()[-1]
    gaps = [_gap(result, commdb, qhd, last) for _, commdb, qhd in sweep]
    dnfs = [_first_dnf(result, commdb) for _, commdb, _ in sweep]
    holds = (
        _fig7_common(result, sweep, last)
        and all(_finishes(result, qhd) for _, _, qhd in sweep)
        and all(gap > 1 for gap in gaps)
        and gaps == sorted(gaps, reverse=True)
        and gaps[0] == math.inf
    )
    stopped = [(value, dnf) for (value, _, _), dnf in zip(sweep, dnfs) if dnf is not None]
    going = [(value, commdb) for (value, commdb, _), dnf in zip(sweep, dnfs) if dnf is None]
    sentence = (
        f"{'Shape holds in part' if going else 'Shape reproduced'}: q-HD finishes "
        f"every point and wins at {last} atoms at every selectivity, and lower "
        f"selectivity widens the gap — at {last} atoms CommDB's work is "
        f"{_join(_x(gap) for gap in gaps)} q-HD's at selectivity "
        f"{_join(value for value, _, _ in sweep)}. CommDB hits the budget at "
        f"selectivity {_join(value for value, _ in stopped)} (from "
        f"{_join(dnf for _, dnf in stopped)} atoms)"
    )
    if going:
        sentence += (
            f" but finishes {last} atoms at selectivity "
            f"{_join(value for value, _ in going)}, in "
            f"{_join(_units(_work(result, commdb, last)) for _, commdb in going)} "
            "units, where the paper's CommDB stops terminating at every selectivity"
        )
    return holds, sentence + "."


def fig7b_verdict(result: ExperimentResult) -> Verdict:
    """At the lowest selectivity q-HD overtakes the chain baseline for good;
    elsewhere the baseline may stay ahead, within ``BASELINE_SLACK``."""
    sweep = _sweep(result)
    last = result.points()[-1]
    crossovers = [_wins_from(result, qhd, commdb) for _, commdb, qhd in sweep]
    holds = _fig7_common(result, sweep, last) and crossovers[0] is not None
    wins = [
        f"at selectivity {value} q-HD wins from {crossover} atoms on, and at "
        f"{last} atoms the baseline's work is {_x(_gap(result, commdb, qhd, last))} q-HD's"
        for (value, commdb, qhd), crossover in zip(sweep, crossovers)
        if crossover is not None
    ]
    behind = [
        (value, _x(_work(result, qhd, last) / _work(result, commdb, last)))
        for (value, commdb, qhd), crossover in zip(sweep, crossovers)
        if crossover is None
    ]
    sentence = "Shape reproduced with the paper's own nuance: " + "; ".join(wins)
    if behind:
        sentence += (
            f"; at selectivity {_join(value for value, _ in behind)} the baseline "
            f"stays ahead at {last} atoms, with q-HD at "
            f"{_join(ratio for _, ratio in behind)} its work"
        )
    return holds, sentence + (
        " — the paper notes that q-HD's gain concentrates on long, "
        "low-selectivity queries, and that where the structure plays a marginal "
        "role q-HD is generally not competitive."
    )


def fig7c_verdict(result: ExperimentResult) -> Verdict:
    """Larger relations push the baseline to DNF no later; q-HD finishes
    everywhere and its work at the largest query is linear in cardinality."""
    sweep = _sweep(result)
    last = result.points()[-1]
    dnfs = [_first_dnf(result, commdb) for _, commdb, _ in sweep]
    cardinalities = [value for value, _, _ in sweep]
    qhd_last = [_work(result, qhd, last) for _, _, qhd in sweep]
    holds = (
        _fig7_common(result, sweep, last)
        and all(_finishes(result, qhd) for _, _, qhd in sweep)
        and None not in dnfs
        and _no_later(dnfs)
        and _linear(cardinalities, qhd_last)
    )
    strictly = len(set(dnfs)) == len(dnfs)
    sentence = (
        f"{'Shape reproduced' if strictly else 'Shape holds in part'}: larger "
        f"relations push CommDB to DNF no later — first at "
        f"{_join(dnfs)} atoms for cardinality {_join(cardinalities)}"
    )
    if not strictly:
        tied = [c for c, dnf in zip(cardinalities, dnfs) if dnfs.count(dnf) > 1]
        sentence += (
            f", but cardinality {_join(tied)} tie, so the largest relations do "
            "not stop it strictly earliest"
        )
    return holds, sentence + (
        f". q-HD finishes every point and scales linearly with cardinality: at "
        f"{last} atoms its work is "
        f"{_join(_x(work / qhd_last[0]) for work in qhd_last[1:])} cardinality "
        f"{cardinalities[0]}'s for {_join(_x(c / cardinalities[0]) for c in cardinalities[1:])} "
        "the rows."
    )


def fig7d_verdict(result: ExperimentResult) -> Verdict:
    """q-HD overtakes the chain baseline for good at every cardinality, and
    larger relations push the baseline to DNF no later."""
    sweep = _sweep(result)
    last = result.points()[-1]
    crossovers = [_wins_from(result, qhd, commdb) for _, commdb, qhd in sweep]
    dnfs = [_first_dnf(result, commdb) for _, commdb, _ in sweep]
    holds = (
        _fig7_common(result, sweep, last)
        and None not in crossovers
        and _no_later(dnfs)
    )
    cardinalities = [value for value, _, _ in sweep]
    sentence = (
        f"Shape reproduced on the cyclic family: q-HD overtakes the baseline from "
        f"{_join(crossovers)} atoms at cardinality {_join(cardinalities)} and "
        "never loses after"
    )
    stopped = [(value, dnf) for value, dnf in zip(cardinalities, dnfs) if dnf is not None]
    if stopped:
        sentence += (
            f"; the baseline exceeds the budget at cardinality "
            f"{_join(value for value, _ in stopped)} (from "
            f"{_join(dnf for _, dnf in stopped)} atoms)"
        )
    qhd_dnfs = [
        (value, _first_dnf(result, qhd))
        for value, _, qhd in sweep
        if _first_dnf(result, qhd) is not None
    ]
    finished_last = [
        (value, _work(result, qhd, last))
        for (value, commdb, qhd) in sweep
        if _work(result, commdb, last) == math.inf and _work(result, qhd, last) < math.inf
    ]
    if finished_last:
        sentence += (
            f", where q-HD still finishes {last} atoms at cardinality "
            f"{_join(value for value, _ in finished_last)} ("
            f"{_join(_units(work) for _, work in finished_last)} units)"
        )
    if qhd_dnfs:
        sentence += (
            f"; q-HD exceeds it too at cardinality {_join(value for value, _ in qhd_dnfs)} "
            f"(from {_join(dnf for _, dnf in qhd_dnfs)} atoms) — the width-bounded "
            "chain decomposition's quadratic node relations are the polynomial "
            "bound's price, visible in the paper's figure as well"
        )
    return holds, sentence + "."


def fig8_verdict(result: ExperimentResult) -> Verdict:
    """q-HD beats CommDB+stats at every size; CommDB without its optimizer is
    the worst everywhere and its ratio to CommDB+stats grows (DNF = ∞)."""
    sizes = result.points()
    stats_over_qhd = [_gap(result, "commdb+stats", "q-hd", size) for size in sizes]
    no_opt_ratio = [_gap(result, "commdb-no-opt", "commdb+stats", size) for size in sizes]
    holds = (
        result.consistent_answers()
        and all(_beats(result, "q-hd", "commdb+stats", size) for size in sizes)
        and all(_beats(result, "commdb+stats", "commdb-no-opt", size) for size in sizes)
        and all(a <= b for a, b in zip(no_opt_ratio, no_opt_ratio[1:]))
        and no_opt_ratio[-1] > no_opt_ratio[0]
    )
    finished = [(size, r) for size, r in zip(sizes, no_opt_ratio) if r != math.inf]
    sentence = (
        f"Shape reproduced: q-HD beats CommDB+stats at every size, which needs "
        f"{_x(min(stats_over_qhd))}–{_x(max(stats_over_qhd))} q-HD's work; CommDB "
        f"without its optimizer is the worst system at every size, its work over "
        f"CommDB+stats is {_join(_x(r) for _, r in finished)} at "
        f"{_join(size for size, _ in finished)} MB"
    )
    dnf = _first_dnf(result, "commdb-no-opt")
    if dnf is not None:
        sentence += f", and it exceeds the budget from {dnf} MB"
    return holds, sentence + " (memory-pressure spilling)."


def fig9_verdict(result: ExperimentResult) -> Verdict:
    """The coupling wins at the largest query on both families, where its
    advantage over stock PostgreSQL is the largest of the sweep."""
    points = result.points()
    last = points[-1]
    kinds = ("acyclic", "chain")
    advantage = {
        kind: [_gap(result, f"postgres-{kind}", f"postgres+q-hd-{kind}", p) for p in points]
        for kind in kinds
    }
    holds = result.consistent_answers() and all(
        _beats(result, f"postgres+q-hd-{kind}", f"postgres-{kind}", last)
        and all(gap < advantage[kind][-1] for gap in advantage[kind][:-1])
        for kind in kinds
    )
    wins = []
    for kind in kinds:
        start = _wins_from(result, f"postgres+q-hd-{kind}", f"postgres-{kind}")
        wins.append(
            f"at every size on {kind} queries" if start == points[0]
            else f"from {start} atoms on {kind} queries"
        )
    # GEQO plans a FROM clause of ``geqo_threshold`` relations or more (one
    # relation per atom here): compare the growth up to the last query
    # below that size with the growth from it.
    threshold = POSTGRES_PROFILE.geqo_threshold
    split = max(p for p in points if p < threshold)
    growth = {}
    for kind in kinds:
        work = {p: _work(result, f"postgres-{kind}", p) for p in points}
        growth[kind] = (
            (work[split] / work[points[0]]) ** (1 / (split - points[0])),
            (work[last] / work[split]) ** (1 / (last - split)),
        )
    steepening = [growth[kind][1] / growth[kind][0] for kind in kinds]
    shown = all(ratio >= GEQO_STEEPER for ratio in steepening)
    return holds, (
        f"Shape reproduced: the coupling wins {_join(wins)}, and its advantage is "
        f"largest at {last} atoms: {_x(advantage['acyclic'][-1])} (acyclic) and "
        f"{_x(advantage['chain'][-1])} (chain). The claim that stock PostgreSQL "
        f"degrades fastest once GEQO takes over (from {threshold} relations) is "
        f"{'shown' if shown else 'not shown'}: its work grows "
        f"{_x(growth['acyclic'][0])} per atom below that size and "
        f"{_x(growth['acyclic'][1])} from it on acyclic queries, "
        f"{_x(growth['chain'][0])} and {_x(growth['chain'][1])} on chains, so the "
        f"growth per atom changes {_x(steepening[0])} (acyclic) and "
        f"{_x(steepening[1])} (chain) at the threshold — "
        f"{'at least' if shown else 'short of'} the {_x(GEQO_STEEPER)} steepening "
        "that marks a change of regime."
    )


def fig10_verdict(result: ExperimentResult) -> Verdict:
    """Optimize never costs more, and its saving is largest — and at least
    ``1 − OPTIMIZE_SHARE`` — at the largest query."""
    points = result.points()
    last = points[-1]
    shares = [
        _work(result, "q-hd+optimize", p) / _work(result, "q-hd-no-optimize", p)
        for p in points
    ]
    holds = (
        result.consistent_answers()
        and _finishes(result, "q-hd+optimize")
        and _finishes(result, "q-hd-no-optimize")
        and all(share <= 1 for share in shares)
        and shares[-1] < OPTIMIZE_SHARE
        and shares[-1] == min(shares)
    )
    return holds, (
        "Shape reproduced on the paper's pipeline inputs (first-found NF "
        "decompositions): Optimize strips the duplicated bounding atoms, never "
        f"costs more, and saves the most at {last} atoms, "
        f"{1 - shares[-1]:.0%} of the work ("
        f"{_units(_work(result, 'q-hd-no-optimize', last))} → "
        f"{_units(_work(result, 'q-hd+optimize', last))} units). The full "
        "cost-k-decomp search already avoids most of the redundancy upfront, so "
        "the ablation is run on det-k-decomp outputs."
    )


def overhead_verdict(result: ExperimentResult) -> Verdict:
    """ANALYZE's work is linear in the database size; the decomposition
    search charges the same plan units at every size."""
    sizes = result.points()
    analyze = [_work(result, "analyze", size) for size in sizes]
    decompose = [_work(result, "decompose", size) for size in sizes]
    holds = (
        _linear(sizes, analyze)
        and len(set(decompose)) == 1
        and 0 < decompose[0] < math.inf
    )
    return holds, (
        f"Shape reproduced in plan units: ANALYZE's work grows linearly, "
        f"{_x(analyze[-1] / analyze[0])} from {sizes[0]} to {sizes[-1]} MB "
        f"({_units(analyze[0])} → {_units(analyze[-1])} units), while the "
        f"cost-k-decomp search charges {_units(decompose[0])} plan units at every "
        "size — the paper's contrast between statistics that grow with the "
        "database and a structural plan independent of it."
    )


VERDICTS: Dict[str, Callable[[ExperimentResult], Verdict]] = {
    "fig7a": fig7a_verdict,
    "fig7b": fig7b_verdict,
    "fig7c": fig7c_verdict,
    "fig7d": fig7d_verdict,
    "fig8a": fig8_verdict,
    "fig8b": fig8_verdict,
    "fig9": fig9_verdict,
    "fig10": fig10_verdict,
    "overhead": overhead_verdict,
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (§6), reproduced by the harness in
`src/repro/bench/experiments.py`.

**Metric.** The paper reports wall-clock seconds on a 2.66 GHz Pentium 4
with 512 MB RAM. This reproduction reports **work units** (tuples touched
by all operators, plus spill penalties for intermediates exceeding the
simulated memory) — deterministic and machine-independent. `DNF` marks runs
that exceeded the work budget, the analogue of the paper's "> 10 minutes".
Absolute numbers are not comparable with the paper; the *shapes* — who
wins, by what factor, where the crossovers fall — are the reproduction
targets.

**Verdicts are predicates.** Each verdict is printed by a predicate in
`scripts/generate_experiments_md.py` that tests the figure's shape on the
table's deterministic cells (work, finished, answer rows) and computes
every number it states from them. `--check` re-runs every experiment and
fails when a verdict is false or a committed cell drifted.

**Workload scaling.** TPC-H databases use dbgen-faithful schemas and row
ratios, scaled down 100× for the in-memory Python engine (the `size_mb`
axis keeps the paper's 200–1000 labels). Synthetic workloads use the
paper's exact parameters (cardinality 450–1000, selectivity 30–90 % distinct
values, 2–10 atoms).

**q-HD projection rule.** After every fold step a decomposition node keeps
only the interface its parent asks for (χ(node) ∩ χ(parent); out(Q) at the
root) plus the variables its still-pending sources join on.

**Overhead in plan units.** The overhead table's `decompose` rows record
the plan units the cost-k-decomp search charges (they recorded `work = 0`
and were rendered as single-shot wall-clock seconds). Five cells moved:
`decompose` at 200, 400, 600, 800 and 1000 MB, 0 → 28.

Regenerate with: `python scripts/generate_experiments_md.py --scale full`
(also writes `experiments.csv` / `experiments.json` next to this file).

"""


def read_results(path: Path) -> List[ExperimentResult]:
    """A committed ``experiments.csv`` as results: the deterministic columns.

    Timing columns read back as 0.0, and a record's ``group`` is derived
    from its system label (:data:`GROUP_LABEL`), so a verdict gives the same
    answer on these results as on the fresh run that wrote them.
    """
    results: Dict[str, ExperimentResult] = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            experiment = row["experiment"]
            result = results.setdefault(experiment, ExperimentResult(experiment, ""))
            group = GROUP_LABEL.search(row["system"])
            result.add(
                RunRecord(
                    system=row["system"],
                    point=int(row["point"]),
                    work=int(row["work"]),
                    simulated_seconds=0.0,
                    elapsed_seconds=0.0,
                    finished=row["finished"] == "True",
                    answer_rows=int(row["answer_rows"]) if row["answer_rows"] else None,
                    extra={"group": group.group(1)} if group else {},
                    phase_work={
                        phase: int(row[f"work_{phase}"])
                        for phase in ("decompose", "optimize", "execute")
                        if row[f"work_{phase}"]
                    },
                )
            )
    return list(results.values())


def _cells(results: Sequence[ExperimentResult]) -> List[Tuple[str, ...]]:
    """Every record's deterministic columns as ``csv.DictWriter`` renders them."""
    return [
        tuple("" if row[column] is None else str(row[column]) for column in DETERMINISTIC_COLUMNS)
        for result in results
        for row in result_to_rows(result)
    ]


def drift(results: Sequence[ExperimentResult], committed_csv: Path) -> List[str]:
    """Rows whose deterministic columns differ from the committed CSV."""
    fresh = _cells(results)
    committed = _cells(read_results(committed_csv))
    problems = [
        f"{old[:3]}: committed {old[3:]} != regenerated {new[3:]}"
        for old, new in zip(committed, fresh)
        if old != new
    ]
    if len(committed) != len(fresh):
        problems.append(f"{len(committed)} committed rows != {len(fresh)} regenerated")
    return problems


def report(results: Sequence[ExperimentResult]) -> int:
    """Print every verdict; the number that are false."""
    false = 0
    for result in results:
        holds, sentence = VERDICTS[result.experiment_id](result)
        print(f"{'true ' if holds else 'FALSE'} {result.experiment_id}: {sentence}")
        false += not holds
    return false


def check(results: Sequence[ExperimentResult], committed_csv: Path) -> int:
    """``--check``: 1 when a verdict is false or a committed row drifted."""
    false = report(results)
    problems = drift(results, committed_csv)
    for problem in problems:
        print(f"DRIFT {problem}")
    print(f"{false} false verdict(s), {len(problems)} drifted row(s)")
    return 1 if false or problems else 0


def section(result: ExperimentResult) -> str:
    """One experiment's EXPERIMENTS.md section."""
    experiment_id = result.experiment_id
    label = "atoms" if experiment_id.startswith(("fig7", "fig9", "fig10")) else "size_mb"
    holds, sentence = VERDICTS[experiment_id](result)
    verdict = "**Verdict:**" if holds else "**Verdict (FALSE on this table):**"
    lines = [
        f"## {experiment_id} — {result.title}\n",
        f"**Paper:** {PAPER_NOTES[experiment_id]}\n",
        "**Measured (work):**\n",
        render_markdown_table(result, metric="work", point_label=label),
        "",
        f"{verdict} {sentence}\n",
    ]
    lines.extend(f"*{note}*\n" for note in result.notes)
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=["quick", "full"], default="full")
    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if a verdict is false or experiments.csv's "
        "deterministic columns no longer match a fresh run",
    )
    args = parser.parse_args()
    if args.check and args.scale != "full":
        # experiments.csv is the full-scale record: a quick sweep can only drift.
        parser.error("--check compares with the full-scale experiments.csv; use --scale full")

    results = []
    for experiment_id in EXPERIMENT_IDS:
        started = time.perf_counter()
        print(f"running {experiment_id} ({args.scale}) ...", flush=True)
        results.append(run_experiment(experiment_id, scale=args.scale))
        print(f"  done in {time.perf_counter() - started:.1f}s", flush=True)

    committed_csv = Path(args.output).with_name("experiments.csv")
    if args.check:
        return check(results, committed_csv)
    Path(args.output).write_text("\n".join([HEADER] + [section(r) for r in results]))
    write_csv(results, committed_csv)
    write_json(results, Path(args.output).with_name("experiments.json"))
    print(f"wrote {args.output}")
    return 1 if report(results) else 0


if __name__ == "__main__":
    sys.exit(main())

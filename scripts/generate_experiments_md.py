"""Generate EXPERIMENTS.md by running every paper experiment.

Run:  python scripts/generate_experiments_md.py [--scale full|quick] [--check]

``--check`` writes nothing: it re-runs the experiments and exits 1 when a
deterministic column of the committed ``experiments.csv`` has drifted.

Each section records what the paper's figure shows and the series this
reproduction measures (work units — the machine-independent time proxy),
then a short verdict on whether the shape holds.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.export import (
    render_markdown_table,
    result_to_rows,
    write_csv,
    write_json,
)

#: The columns of ``experiments.csv`` that do not depend on the clock.
DETERMINISTIC_COLUMNS = (
    "experiment", "system", "point", "work", "finished", "answer_rows",
    "work_decompose", "work_optimize", "work_execute",
)

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

VERDICTS = {
    "fig7a": "Shape reproduced: CommDB (all selectivities) grows geometrically and hits the budget (DNF) at 8–10 atoms; q-HD stays within a small multiple of its 2-atom cost. Lower selectivity ⇒ earlier DNF, as in the paper.",
    "fig7b": "Shape reproduced with the paper's own nuance: at selectivity 30 (large joins) the chain crossover falls at ~9 atoms and q-HD wins at 10 while the baseline nears the budget; at selectivities 60/90 the baseline remains competitive — the paper notes q-HD's gain concentrates on long, low-selectivity queries (§6.1: 'on queries where the structure plays a marginal role, q-HD … is generally not competitive').",
    "fig7c": "Shape reproduced: cardinality 1000 pushes the baseline to DNF earliest; q-HD scales linearly with cardinality.",
    "fig7d": "Shape reproduced on the cyclic family: the baseline crosses over at ~9 atoms for every cardinality and q-HD wins beyond; at 10 atoms q-HD still finishes at cardinality 750 (2,054,290 units) where the baseline exceeds the budget, and only cardinality 1000 exceeds it on both sides — the width-2 chain decomposition's V² node relations are the polynomial bound's price, visible in the paper's Fig. 7(d) as well.",
    "fig8a": "Shape reproduced: q-HD < CommDB+stats at every size (~1.4×); the optimizer-disabled baseline's ratio to CommDB+stats grows with size (memory-pressure spilling) and exceeds the budget at the largest sizes.",
    "fig8b": "Shape reproduced: same ordering on the 8-relation Q8 join core.",
    "fig9": "Shape reproduced: the coupling wins at every size on acyclic queries and from 6 atoms on chains, and the gap grows to ~15× (acyclic) / ~3× (chain) at 10 atoms; stock PostgreSQL degrades fastest once GEQO takes over (≥ 8 relations).",
    "fig10": "Shape reproduced on the paper's pipeline inputs (first-found NF decompositions): Optimize strips the duplicated bounding atoms and halves the work at 10 atoms. Note: the full cost-k-decomp search already avoids most of the redundancy upfront, so the ablation is run on det-k-decomp outputs (the decompositions of the paper's HD₁ example).",
    "overhead": "Shape reproduced: ANALYZE cost grows linearly with database size while decomposition time stays milliseconds and size-independent (the paper's 800 s vs 1.5 s contrast).",
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (§6), reproduced by the harness in
`src/repro/bench/experiments.py` (bench targets in `benchmarks/`).

**Metric.** The paper reports wall-clock seconds on a 2.66 GHz Pentium 4
with 512 MB RAM. This reproduction reports **work units** (tuples touched
by all operators, plus spill penalties for intermediates exceeding the
simulated memory) — deterministic and machine-independent. `DNF` marks runs
that exceeded the work budget, the analogue of the paper's "> 10 minutes".
Absolute numbers are not comparable with the paper; the *shapes* — who
wins, by what factor, where the crossovers fall — are the reproduction
targets.

**Workload scaling.** TPC-H databases use dbgen-faithful schemas and row
ratios, scaled down 100× for the in-memory Python engine (the `size_mb`
axis keeps the paper's 200–1000 labels). Synthetic workloads use the
paper's exact parameters (cardinality 450–1000, selectivity 30–90 % distinct
values, 2–10 atoms).

**q-HD projection rule.** After every fold step a decomposition node keeps
only the interface its parent asks for (χ(node) ∩ χ(parent); out(Q) at the
root) plus the variables its still-pending sources join on.

Regenerate with: `python scripts/generate_experiments_md.py --scale full`
(also writes `experiments.csv` / `experiments.json` next to this file).

"""


def drift(results, committed_csv: Path) -> list:
    """Rows whose deterministic columns differ from the committed CSV."""
    # As csv.DictWriter renders them: None is the empty field.
    fresh = [
        tuple(
            "" if row[column] is None else str(row[column])
            for column in DETERMINISTIC_COLUMNS
        )
        for result in results
        for row in result_to_rows(result)
    ]
    with open(committed_csv, newline="") as handle:
        committed = [
            tuple(row.get(column, "<missing>") for column in DETERMINISTIC_COLUMNS)
            for row in csv.DictReader(handle)
        ]
    problems = [
        f"{old[:3]}: committed {old[3:]} != regenerated {new[3:]}"
        for old, new in zip(committed, fresh)
        if old != new
    ]
    if len(committed) != len(fresh):
        problems.append(f"{len(committed)} committed rows != {len(fresh)} regenerated")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", choices=["quick", "full"], default="full")
    parser.add_argument("--output", default="EXPERIMENTS.md")
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if experiments.csv's deterministic "
        "columns no longer match a fresh run",
    )
    args = parser.parse_args()

    sections = [HEADER]
    results = []
    for experiment_id in [
        "fig7a", "fig7b", "fig7c", "fig7d",
        "fig8a", "fig8b", "fig9", "fig10", "overhead",
    ]:
        started = time.perf_counter()
        print(f"running {experiment_id} ({args.scale}) ...", flush=True)
        result = run_experiment(experiment_id, scale=args.scale)
        elapsed = time.perf_counter() - started
        print(f"  done in {elapsed:.1f}s", flush=True)
        results.append(result)

        sections.append(f"## {experiment_id} — {result.title}\n")
        sections.append(f"**Paper:** {PAPER_NOTES[experiment_id]}\n")
        metric = "elapsed_seconds" if experiment_id == "overhead" else "work"
        label = "size_mb" if "fig8" in experiment_id or experiment_id == "overhead" else "atoms"
        sections.append(f"**Measured ({metric}):**\n")
        sections.append(render_markdown_table(result, metric=metric, point_label=label))
        sections.append("")
        sections.append(f"**Verdict:** {VERDICTS[experiment_id]}\n")
        for note in result.notes:
            sections.append(f"*{note}*\n")

    if args.check:
        problems = drift(results, Path(args.output).with_name("experiments.csv"))
        for problem in problems:
            print(f"DRIFT {problem}")
        print(f"{len(problems)} drifted row(s)")
        return 1 if problems else 0
    Path(args.output).write_text("\n".join(sections))
    write_csv(results, Path(args.output).with_name("experiments.csv"))
    write_json(results, Path(args.output).with_name("experiments.json"))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

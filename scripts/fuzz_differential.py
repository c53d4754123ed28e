"""Differential fuzzer: random queries, every execution strategy, one oracle.

Generates random conjunctive workloads (lines, chains, stars with random
sizes and domains, and 0–3 filters — constant comparisons, BETWEEN and IN
over random columns, or arithmetic and column-to-column comparisons between
two columns of one alias), runs each through the quantitative engine, the q-HD
plan, the classic 3-phase evaluation, the SQL-view stack and the un-pushed
baseline (filters applied per row on the join result, so independent of
the base scans the other four share), and verifies all answers agree.  The
Boolean decision procedure (``is_satisfiable``) must say *yes* exactly when
the engine's answer is non-empty.  Any disagreement prints a reproducer
seed.

Each line/chain table is drawn without replacement with probability ½, so
one fold mixes keyed scans (a column set no two stored rows share, read
through a column map) with bag scans (deduplicated copies).  The run ends
with a census of the cases whose scans were keyed, bag or both, and a
count of the cases with a two-column filter.

Run:  python scripts/fuzz_differential.py --iterations 200 --seed 0
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.boolean import is_satisfiable
from repro.core.evaluator import evaluate_hd_classic, evaluate_qhd
from repro.core.optimizer import HybridOptimizer
from repro.core.views import execute_view_plan
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.engine.scans import atom_relations
from repro.relational import AttributeType, Database, RelationSchema
from repro.relational.relation import _ScanRelation


COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

#: The un-pushed baseline joins unfiltered, undeduplicated tables in FROM
#: order; a case it cannot finish within this many work units is not compared.
UNPUSHED_BUDGET = 300_000


#: Filters between two columns of one alias, arithmetic or not; every
#: divisor is a non-zero literal.  The pushed-down scan and the un-pushed
#: baseline's residual filters evaluate them on different rows.
TWO_COLUMN_SHAPES = (
    "{x} + {y} > {c}",
    "{x} * 2 <= {y}",
    "{x} <> {y}",
    "{c} < {x} - {y}",
    "{x} / 2 >= {y}",
)


def random_filters(rng: random.Random, tables, domain: int):
    """0–3 filters, each over a random alias's columns (``tables`` lists
    each alias's qualified columns): a constant comparison, BETWEEN or IN
    over one column, or a two-column shape over two of them.  Returns the
    filters and whether any has a two-column shape."""
    filters, two_column = [], False
    for _ in range(rng.randint(0, 3)):
        columns = rng.choice(tables)
        column = rng.choice(columns)
        shape = rng.choice(["compare", "between", "in", "two-column"])
        if shape == "compare":
            filters.append(f"{column} {rng.choice(COMPARISONS)} {rng.randrange(domain)}")
        elif shape == "between":
            low = rng.randrange(domain)
            filters.append(f"{column} BETWEEN {low} AND {rng.randrange(low, domain)}")
        elif shape == "in":
            values = sorted({rng.randrange(domain) for _ in range(rng.randint(1, 3))})
            filters.append(f"{column} IN ({', '.join(map(str, values))})")
        else:
            x, y = rng.sample(columns, 2)
            template = rng.choice(TWO_COLUMN_SHAPES)
            filters.append(template.format(x=x, y=y, c=rng.randrange(domain)))
            two_column = True
    return filters, two_column


def random_case(rng: random.Random):
    """One random workload: (database, sql, label, whether a filter has a
    two-column shape)."""
    kind = rng.choice(["line", "chain", "star"])
    domain = rng.randint(2, 8)
    rows = rng.randint(5, 40)

    if kind in ("line", "chain"):
        n = rng.randint(2 if kind == "line" else 3, 6)
        db = Database("fuzz")
        for i in range(n):
            schema = RelationSchema.of(
                f"r{i}", {f"x{i}": AttributeType.INT, f"y{i}": AttributeType.INT}
            )
            if rng.random() < 0.5:
                # Without replacement: no two rows agree, {x, y} is a key.
                pairs = [(x, y) for x in range(domain) for y in range(domain)]
                table = rng.sample(pairs, min(rows, len(pairs)))
            else:
                table = [(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)]
            db.create_table(schema, table)
        conditions = [f"r{i}.y{i} = r{i + 1}.x{i + 1}" for i in range(n - 1)]
        if kind == "chain":
            conditions.append(f"r{n - 1}.y{n - 1} = r0.x0")
        tables = [[f"r{i}.x{i}", f"r{i}.y{i}"] for i in range(n)]
        filters, two_column = random_filters(rng, tables, domain)
        conditions += filters
        sql = (
            f"SELECT r0.x0, r1.x1 FROM {', '.join(f'r{i}' for i in range(n))} "
            f"WHERE {' AND '.join(conditions)}"
        )
        return db, sql, f"{kind}-{n}", two_column

    d = rng.randint(2, 4)
    db = Database("fuzz")
    fact = RelationSchema.of(
        "fact",
        [("m", AttributeType.INT)] + [(f"k{i}", AttributeType.INT) for i in range(d)],
    )
    db.create_table(
        fact,
        [
            tuple([rng.randrange(50)] + [rng.randrange(domain) for _ in range(d)])
            for _ in range(rows)
        ],
    )
    for i in range(d):
        schema = RelationSchema.of(
            f"dim{i}", {f"k{i}": AttributeType.INT, f"p{i}": AttributeType.INT}
        )
        db.create_table(
            schema, [(k, rng.randrange(domain)) for k in range(domain)]
        )
    conditions = [f"fact.k{i} = dim{i}.k{i}" for i in range(d)]
    tables = [["fact.m"] + [f"fact.k{i}" for i in range(d)]]
    tables += [[f"dim{i}.k{i}", f"dim{i}.p{i}"] for i in range(d)]
    filters, two_column = random_filters(rng, tables, domain)
    conditions += filters
    sql = (
        f"SELECT dim0.p0, fact.m FROM fact, "
        f"{', '.join(f'dim{i}' for i in range(d))} "
        f"WHERE {' AND '.join(conditions)}"
    )
    return db, sql, f"star-{d}", two_column


def scan_kind(relations) -> str:
    """``keyed``, ``bag`` or ``mixed``: whether a case's pushed-down scans
    read stored rows through a column map, deduplicated a copy, or both."""
    keyed = {isinstance(relation, _ScanRelation) for relation in relations}
    return "mixed" if len(keyed) == 2 else "keyed" if True in keyed else "bag"


def check_case(db: Database, sql: str):
    """Run every strategy; ``(all agree, the un-pushed baseline was
    compared, the scan kind)``."""
    db.analyze()
    dbms = SimulatedDBMS(db, COMMDB_PROFILE)
    # The engine's scans learn which scanned column sets are keys.
    reference = dbms.run_sql(sql).relation

    plan = HybridOptimizer(db, max_width=3).optimize(sql)
    translation = plan.translation
    rels = atom_relations(translation.query, db, translation)
    kind = scan_kind(rels.values())
    if not plan.execute().relation.same_content(reference):
        return False, False, kind

    single = evaluate_qhd(plan.decomposition, translation.query, rels)
    classic = evaluate_hd_classic(plan.decomposition, translation.query, rels)
    if not single.same_content(classic):
        return False, False, kind

    via_views = execute_view_plan(plan.to_sql_views(), dbms).relation
    if not via_views.same_content(reference):
        return False, False, kind

    if is_satisfiable(sql, db, max_width=3) != (len(reference) > 0):
        return False, False, kind

    unpushed = dbms.run_sql(sql, optimizer_enabled=False, work_budget=UNPUSHED_BUDGET)
    if not unpushed.finished:
        return True, False, kind
    return unpushed.relation.same_content(reference), True, kind


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failures = []
    counts = {}
    kinds = {}  # shape -> [keyed only, bag only, mixed]
    unpushed_compared = 0
    two_column_cases = 0
    for i in range(args.iterations):
        case_seed = args.seed * 1_000_003 + i
        rng = random.Random(case_seed)
        db, sql, label, two_column = random_case(rng)
        two_column_cases += two_column
        counts[label.split("-")[0]] = counts.get(label.split("-")[0], 0) + 1
        try:
            ok, compared, kind = check_case(db, sql)
            unpushed_compared += compared
            shape = kinds.setdefault(label.split("-")[0], [0, 0, 0])
            shape[("keyed", "bag", "mixed").index(kind)] += 1
        except Exception as exc:  # noqa: BLE001 — a fuzzer reports, not crashes
            print(f"[seed {case_seed}] {label}: EXCEPTION {exc!r}")
            failures.append(case_seed)
            continue
        if not ok:
            print(f"[seed {case_seed}] {label}: ANSWER MISMATCH\n  {sql}")
            failures.append(case_seed)

    total = args.iterations
    print(
        f"\n{total - len(failures)}/{total} cases agree "
        f"({', '.join(f'{k}: {v}' for k, v in sorted(counts.items()))}; "
        f"un-pushed baseline compared on {unpushed_compared})"
    )
    census = ", ".join(f"{k}: {'/'.join(map(str, v))}" for k, v in sorted(kinds.items()))
    print(f"scan census, cases keyed only/bag only/mixed: {census}")
    print(f"cases mixing keyed and bag scans: {sum(v[2] for v in kinds.values())}")
    print(f"cases with arithmetic filters: {two_column_cases}")
    if failures:
        print(f"failing seeds: {failures}")
        return 1
    print("no disagreements ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded-randomness regressions: same seed ⇒ identical plans and data.

The ``no-wall-clock`` lint rule keeps unseeded randomness out of the
planner statically; these tests pin the dynamic half of the contract for
the two randomized components, the GEQO join-order search and the
synthetic workload generator — and for the one unseeded source the planner
cannot avoid, string hashing: cost-k-decomp and the built-in planner's
estimator both handle sets of variable names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.engine.cost import atom_estimates
from repro.engine.geqo import GeqoOptimizer
from repro.engine.plan import ScanNode
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, RelationSchema
from repro.workloads.synthetic import (
    StarConfig,
    SyntheticConfig,
    generate_star_database,
    generate_synthetic_database,
    synthetic_query_sql,
)


def geqo_scan_order(n: int = 6, seed: int = 0):
    db = Database("g")
    for i in range(n):
        schema = RelationSchema.of(
            f"r{i}", {f"a{i}": AttributeType.INT, f"b{i}": AttributeType.INT}
        )
        db.create_table(schema, [(j % 5, j % 7) for j in range(40)])
    db.analyze()
    conditions = " AND ".join(
        f"r{i}.b{i} = r{i + 1}.a{i + 1}" for i in range(n - 1)
    )
    froms = ", ".join(f"r{i}" for i in range(n))
    sql = f"SELECT r0.a0 FROM {froms} WHERE {conditions}"
    translation = sql_to_conjunctive(parse_sql(sql), db.schema.as_mapping())
    estimates = atom_estimates(translation, db, True)
    optimizer = GeqoOptimizer(translation, estimates, seed=seed)
    plan = optimizer.optimize()
    return [node.alias for node in plan.walk() if isinstance(node, ScanNode)]


class TestGeqoDeterminism:
    def test_same_seed_same_plan(self):
        assert geqo_scan_order(seed=7) == geqo_scan_order(seed=7)

    def test_seed_actually_drives_the_search(self):
        orders = {tuple(geqo_scan_order(seed=s)) for s in range(8)}
        assert len(orders) > 1


def table_dump(db: Database):
    return {
        name: tuple(db.table(name).tuples) for name in db.table_names
    }


class TestSyntheticDeterminism:
    def test_same_seed_same_database(self):
        config = SyntheticConfig(n_atoms=4, cardinality=120, seed=11)
        assert table_dump(generate_synthetic_database(config)) == table_dump(
            generate_synthetic_database(config)
        )

    def test_different_seed_different_database(self):
        base = SyntheticConfig(n_atoms=4, cardinality=120, seed=11)
        other = SyntheticConfig(n_atoms=4, cardinality=120, seed=12)
        assert table_dump(generate_synthetic_database(base)) != table_dump(
            generate_synthetic_database(other)
        )

    def test_star_generator_is_seed_stable(self):
        config = StarConfig(n_dimensions=3, fact_rows=200, seed=5)
        assert table_dump(generate_star_database(config)) == table_dump(
            generate_star_database(config)
        )


def planner_fingerprints():
    """``{query: [cost.hex(), tree]}`` of statistics-driven searches."""
    from repro.core.costkdecomp import cost_k_decomp
    from repro.core.optimizer import HybridOptimizer, cost_model_from_database
    from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
    from repro.workloads.tpch import generate_tpch_database
    from repro.workloads.tpch_queries import query_q5, query_q8
    from tests.test_costkdecomp import path_query, skewed_model

    def shape(node):
        return [sorted(node.chi), list(node.lam), [shape(c) for c in node.children]]

    tpch = generate_tpch_database(size_mb=5, seed=1, analyze=True)
    chain = SyntheticConfig(n_atoms=8, cardinality=200, cyclic=True, seed=4)
    chain_db = generate_synthetic_database(chain)
    chain_db.analyze()
    fingerprints = {}
    for label, database, sql in (
        ("q5", tpch, query_q5()),
        ("q8", tpch, query_q8()),
        ("chain8", chain_db, synthetic_query_sql(chain)),
    ):
        translation = HybridOptimizer(database, max_width=4).translate(sql)
        model = cost_model_from_database(translation, database, True)
        tree, cost = cost_k_decomp(
            translation.query.hypergraph(),
            4,
            model,
            required_root_cover=translation.query.output_variables,
            output_weight=1.0,
        )
        fingerprints[label] = [float(cost).hex(), shape(tree.root)]
        # The comparison system: the built-in planner's statistics-driven
        # join tree, with its float estimates.
        fingerprints[f"builtin-{label}"] = SimulatedDBMS(
            database, COMMDB_PROFILE
        ).explain(translation, use_statistics=True)
    # Splits with an edge bridging two earlier groups: the piece order (and
    # through the stitch order the cost, hence the λ chosen) once followed
    # the iteration order of a set of variable names.
    for n, k in ((9, 2), (10, 3), (11, 2)):
        query = path_query(n, cyclic=True)
        tree, cost = cost_k_decomp(query.hypergraph(), k, skewed_model(query))
        fingerprints[f"skewed-chain{n}-k{k}"] = [float(cost).hex(), shape(tree.root)]
    return fingerprints


class TestHashSeedDeterminism:
    def test_search_is_independent_of_string_hashing(self):
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            result = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import json; from tests.test_determinism import "
                    "planner_fingerprints as f; print(json.dumps(f()))",
                ],
                capture_output=True,
                text=True,
                timeout=300,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(json.loads(result.stdout))
        assert set(outputs[0]) == {
            "q5",
            "q8",
            "chain8",
            "builtin-q5",
            "builtin-q8",
            "builtin-chain8",
            "skewed-chain9-k2",
            "skewed-chain10-k3",
            "skewed-chain11-k2",
        }
        for output in outputs[1:]:
            assert output == outputs[0]

"""Boolean (decision) queries over SQL.

§3.2 of the paper: for Boolean conjunctive queries, a hypertree
decomposition yields a pure semijoin program — materialize each node's
relation (step S₂′), then process the tree bottom-up with upward semijoins
(Yannakakis); the answer is *yes* iff the root relation is non-empty.  That
program is :func:`repro.core.evaluator.evaluate_hd_boolean`.

This module is its EXISTS-style façade over SQL:
``is_satisfiable(sql, database)`` decides whether the query has any answer
without enumerating it.
"""

from __future__ import annotations

from typing import Union

from repro.engine.scans import atom_relations
from repro.metering import NULL_METER, WorkMeter
from repro.query import ast
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational.database import Database
from repro.core.evaluator import evaluate_hd_boolean
from repro.core.qhd import q_hypertree_decomp


def is_satisfiable(
    sql: Union[str, ast.SelectQuery],
    database: Database,
    max_width: int = 4,
    meter: WorkMeter = NULL_METER,
) -> bool:
    """EXISTS over the conjunctive core of a SQL query.

    Decomposes the query's hypergraph (no output-cover constraint — this is
    the decision problem, so plain hypertree decompositions suffice) and
    runs the Boolean semijoin program.

    Raises:
        DecompositionNotFound: hypertree width exceeds ``max_width``.
    """
    parsed = parse_sql(sql) if isinstance(sql, str) else sql
    translation = sql_to_conjunctive(parsed, database.schema.as_mapping())
    query = translation.query.with_output(())

    if len(query.hypergraph()) == 0:
        relations = atom_relations(query, database, translation, meter)
        return all(
            atom.variables or len(relations.get(atom.name, ())) > 0
            for atom in query.atoms
        )

    from repro.core.optimizer import cost_model_from_database

    model = cost_model_from_database(
        translation, database, use_statistics=database.has_statistics()
    )
    decomposition = q_hypertree_decomp(
        query, max_width, cost_model=model, optimize=False
    )
    relations = atom_relations(query, database, translation, meter)
    return evaluate_hd_boolean(decomposition, query, relations, meter)

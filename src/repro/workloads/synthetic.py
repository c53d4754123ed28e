"""Synthetic acyclic-line and chain workloads (§6 of the paper).

*Acyclic* queries are lines:  q(y) ← p₁(x₁), …, p_n(x_n) with
x_i ∩ x_{i+1} ≠ ∅ and non-adjacent atoms disjoint.  *Chain* queries close
the line into a cycle (x₁ ∩ x_n ≠ ∅) — the simplest cyclic variation,
hypertree width 2.

Data is generated "randomly by using an uniform distribution over a fixed
range of values, setting the desired values for the cardinality of each
relation and the selectivity of each attribute".  Selectivity ``s`` is the
percentage of distinct values per attribute: an attribute of a relation
with cardinality N and selectivity s draws uniformly from
``V = max(1, round(N·s/100))`` values.  Lower selectivity ⇒ fewer distinct
values ⇒ larger joins ⇒ bigger advantage for the structural method, which
is the ordering Fig. 7 shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import QueryError
from repro.relational.database import Database
from repro.relational.schema import AttributeType, RelationSchema


@dataclass(frozen=True)
class SyntheticConfig:
    """One synthetic experiment point.

    Attributes:
        n_atoms: number of body atoms (the paper sweeps 2–10).
        cardinality: tuples per relation (450 / 500 / 750 / 1000 in §6).
        selectivity: percent distinct values per attribute (30 / 60 / 90).
        cyclic: False = acyclic line query, True = chain query.
        seed: RNG seed for the data generator.
    """

    n_atoms: int
    cardinality: int = 500
    selectivity: int = 60
    cyclic: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_atoms < 2:
            raise QueryError("synthetic queries need at least 2 atoms")
        if not (1 <= self.selectivity <= 100):
            raise QueryError("selectivity is a percentage in [1, 100]")
        if self.cardinality < 1:
            raise QueryError("cardinality must be positive")

    @property
    def distinct_values(self) -> int:
        """V: distinct values per attribute at this cardinality/selectivity."""
        return max(1, round(self.cardinality * self.selectivity / 100))

    @property
    def label(self) -> str:
        kind = "chain" if self.cyclic else "acyclic"
        return (
            f"{kind}-n{self.n_atoms}-card{self.cardinality}"
            f"-sel{self.selectivity}"
        )


def generate_synthetic_database(config: SyntheticConfig) -> Database:
    """Generate the relations rel0 … rel{n-1} for a synthetic query.

    Relation ``rel_i`` has two attributes ``x{i}`` and ``y{i}``; the query
    equates ``y{i} = x{i+1}`` (and ``y{n-1} = x0`` when cyclic).  Values
    are uniform over ``range(V)``.
    """
    rng = random.Random(config.seed)
    db = Database(config.label)
    v = config.distinct_values
    for i in range(config.n_atoms):
        schema = RelationSchema.of(
            f"rel{i}",
            [(f"x{i}", AttributeType.INT), (f"y{i}", AttributeType.INT)],
        )
        rows = [
            (rng.randrange(v), rng.randrange(v))
            for _ in range(config.cardinality)
        ]
        db.create_table(schema, rows)
    return db


def synthetic_query_sql(config: SyntheticConfig) -> str:
    """The SQL text of the line/chain query for a configuration.

    Output variables: the first atom's attributes (``q(y)`` with y = x₁ in
    the paper's notation).  A small head taken from one atom keeps the
    answer linear in the data — the regime where decomposition-based
    evaluation enjoys its polynomial guarantee while binary join plans
    still materialize the exponentially-growing intermediate joins.
    """
    n = config.n_atoms
    tables = ", ".join(f"rel{i}" for i in range(n))
    conditions: List[str] = [
        f"rel{i}.y{i} = rel{i + 1}.x{i + 1}" for i in range(n - 1)
    ]
    if config.cyclic:
        conditions.append(f"rel{n - 1}.y{n - 1} = rel0.x0")
    where = " AND ".join(conditions)
    return f"SELECT rel0.x0, rel0.y0 FROM {tables} WHERE {where}"


# ---------------------------------------------------------------------------
# Star-schema family (acyclic, wide fact atom)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarConfig:
    """A star join: one fact relation keyed to ``n_dimensions`` dimensions.

    Not in the paper's §6 sweep, but the canonical *wide-atom* case its
    introduction argues for: the fact atom's arity equals the number of
    dimensions, so the primal graph is a clique (treewidth = n) while the
    hypergraph is acyclic (hypertree width 1).

    Attributes:
        n_dimensions: dimension tables (fact arity = n_dimensions + 1).
        fact_rows / dimension_rows: cardinalities.
        selectivity: percent distinct values for dimension payloads.
        seed: RNG seed.
    """

    n_dimensions: int
    fact_rows: int = 1000
    dimension_rows: int = 50
    selectivity: int = 60
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_dimensions < 1:
            raise QueryError("a star needs at least one dimension")
        if self.fact_rows < 1 or self.dimension_rows < 1:
            raise QueryError("cardinalities must be positive")


def generate_star_database(config: StarConfig) -> Database:
    """Generate ``fact(m, k0..k{d-1})`` plus ``dim{i}(k{i}, payload{i})``."""
    rng = random.Random(config.seed)
    db = Database(f"star-d{config.n_dimensions}")
    v = max(1, round(config.dimension_rows * config.selectivity / 100))

    fact_schema = RelationSchema.of(
        "fact",
        [("measure", AttributeType.INT)]
        + [(f"k{i}", AttributeType.INT) for i in range(config.n_dimensions)],
    )
    db.create_table(
        fact_schema,
        [
            tuple(
                [rng.randrange(1000)]
                + [rng.randrange(config.dimension_rows) for _ in range(config.n_dimensions)]
            )
            for _ in range(config.fact_rows)
        ],
    )
    for i in range(config.n_dimensions):
        schema = RelationSchema.of(
            f"dim{i}",
            [(f"k{i}", AttributeType.INT), (f"payload{i}", AttributeType.INT)],
        )
        db.create_table(
            schema,
            [(key, rng.randrange(v)) for key in range(config.dimension_rows)],
        )
    return db


def star_query_sql(config: StarConfig) -> str:
    """``SELECT payload0, sum(measure) … GROUP BY payload0`` over the star."""
    tables = ["fact"] + [f"dim{i}" for i in range(config.n_dimensions)]
    conditions = [
        f"fact.k{i} = dim{i}.k{i}" for i in range(config.n_dimensions)
    ]
    return (
        "SELECT dim0.payload0, sum(fact.measure) AS total FROM "
        + ", ".join(tables)
        + " WHERE "
        + " AND ".join(conditions)
        + " GROUP BY dim0.payload0"
    )

"""Storage substrate: schemas, in-memory relations, catalogs, statistics.

This is the ground the simulated DBMS engines and the decomposition
evaluator share: an attribute-named, tuple-at-a-time relational algebra with
work accounting, plus an ANALYZE-style statistics collector (cardinalities,
distinct counts, min/max) feeding both the quantitative optimizer and the
cost model of cost-k-decomp.
"""

from repro.relational.schema import (
    AttributeType,
    DatabaseSchema,
    RelationSchema,
)
from repro.relational.relation import Relation
from repro.relational.database import Database
from repro.relational.csvio import (
    export_database_csv,
    load_database_csv,
    read_relation_csv,
    write_relation_csv,
)
from repro.relational.statistics import (
    AttributeStatistics,
    StatisticsCatalog,
    TableStatistics,
    analyze_relation,
)

__all__ = [
    "AttributeType",
    "RelationSchema",
    "DatabaseSchema",
    "Relation",
    "Database",
    "export_database_csv",
    "load_database_csv",
    "read_relation_csv",
    "write_relation_csv",
    "AttributeStatistics",
    "TableStatistics",
    "StatisticsCatalog",
    "analyze_relation",
]

"""Relation and database import/export (CSV).

The paper's stand-alone mode expects users to bring their own data; this
module provides the loading path: CSV files with a header row, one file per
relation.  Values are coerced to the relation schema's types on load
(``dbgen`` emits text, like every CSV source).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import AttributeType, DatabaseSchema, RelationSchema

PathLike = Union[str, Path]


def _coerce(value: str, attr_type: AttributeType) -> object:
    """Coerce one CSV text field to a schema type."""
    if attr_type is AttributeType.INT:
        try:
            return int(value)
        except ValueError as exc:
            raise SchemaError(f"cannot read {value!r} as INT") from exc
    if attr_type is AttributeType.FLOAT:
        try:
            return float(value)
        except ValueError as exc:
            raise SchemaError(f"cannot read {value!r} as FLOAT") from exc
    # STRING and DATE stay text (dates are ISO strings by convention).
    return value


def write_relation_csv(relation: Relation, path: PathLike) -> None:
    """Write a relation as a CSV file with a header row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.attributes)
        writer.writerows(relation.tuples)


def read_relation_csv(
    path: PathLike,
    schema: Optional[RelationSchema] = None,
    name: str = "",
) -> Relation:
    """Read a relation from a CSV file with a header row.

    With a schema, column order and types are validated/coerced; without
    one, every value stays a string.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV file (missing header)") from None
        rows = list(reader)

    if schema is None:
        return Relation(header, [tuple(row) for row in rows], name=name or Path(path).stem)

    if tuple(header) != schema.attribute_names:
        raise SchemaError(
            f"{path}: header {header} does not match schema "
            f"{list(schema.attribute_names)}"
        )
    types = [attr_type for _name, attr_type in schema.attributes]
    coerced: List[Tuple[object, ...]] = []
    for row in rows:
        if len(row) != len(types):
            raise SchemaError(f"{path}: row arity {len(row)} != {len(types)}")
        coerced.append(tuple(_coerce(v, t) for v, t in zip(row, types)))
    return Relation(schema.attribute_names, coerced, name=schema.name)


def export_database_csv(database: Database, directory: PathLike) -> List[Path]:
    """Write every relation of a database as ``<directory>/<name>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in database.table_names:
        path = directory / f"{name}.csv"
        write_relation_csv(database.table(name), path)
        written.append(path)
    return written


def load_database_csv(
    schema: DatabaseSchema,
    directory: PathLike,
    name: str = "db",
    analyze: bool = False,
) -> Database:
    """Load a database from per-relation CSV files.

    Every relation of ``schema`` must have a ``<name>.csv`` file in
    ``directory``.
    """
    directory = Path(directory)
    database = Database(name)
    for rel_schema in schema:
        path = directory / f"{rel_schema.name}.csv"
        if not path.exists():
            raise SchemaError(f"missing CSV file for relation {rel_schema.name!r}: {path}")
        relation = read_relation_csv(path, rel_schema)
        database.create_table(rel_schema, relation.tuples)
    if analyze:
        database.analyze()
    return database

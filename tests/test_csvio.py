"""Tests for CSV relation and database I/O."""

import pytest

from repro.errors import SchemaError
from repro.relational import AttributeType, Database, Relation, RelationSchema
from repro.relational.csvio import (
    export_database_csv,
    load_database_csv,
    read_relation_csv,
    write_relation_csv,
)


@pytest.fixture()
def db():
    database = Database("io")
    database.create_table(
        RelationSchema.of(
            "t",
            {
                "a": AttributeType.INT,
                "b": AttributeType.FLOAT,
                "c": AttributeType.STRING,
                "d": AttributeType.DATE,
            },
            key=["a"],
        ),
        [(1, 2.5, "x", "1994-01-01"), (2, 3.5, "y", "1995-06-30")],
    )
    return database


class TestRelationCsv:
    def test_round_trip_with_schema(self, db, tmp_path):
        path = tmp_path / "t.csv"
        write_relation_csv(db.table("t"), path)
        schema = db.schema.relation("t")
        loaded = read_relation_csv(path, schema)
        assert loaded.tuples == db.table("t").tuples

    def test_read_without_schema_keeps_strings(self, db, tmp_path):
        path = tmp_path / "t.csv"
        write_relation_csv(db.table("t"), path)
        loaded = read_relation_csv(path)
        assert loaded.tuples[0][0] == "1"

    def test_header_mismatch_rejected(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            read_relation_csv(path, db.schema.relation("t"))

    def test_bad_int_rejected(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\nnope,1.0,x,1994-01-01\n")
        with pytest.raises(SchemaError, match="INT"):
            read_relation_csv(path, db.schema.relation("t"))

    def test_arity_mismatch_rejected(self, db, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\n1,1.0,x\n")
        with pytest.raises(SchemaError, match="arity"):
            read_relation_csv(path, db.schema.relation("t"))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_relation_csv(path)


class TestDatabaseCsv:
    def test_export_and_load(self, db, tmp_path):
        export_database_csv(db, tmp_path)
        loaded = load_database_csv(db.schema, tmp_path, analyze=True)
        assert loaded.table("t").tuples == db.table("t").tuples
        assert loaded.has_statistics()

    def test_missing_file_rejected(self, db, tmp_path):
        with pytest.raises(SchemaError, match="missing CSV"):
            load_database_csv(db.schema, tmp_path)


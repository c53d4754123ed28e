"""Tests for the database catalog and schemas."""

import pytest

from repro.errors import SchemaError
from repro.metering import WorkMeter
from repro.relational import (
    AttributeType,
    Database,
    DatabaseSchema,
    RelationSchema,
)


class TestAttributeType:
    def test_int(self):
        assert AttributeType.INT.validate(3)
        assert not AttributeType.INT.validate(3.5)
        assert not AttributeType.INT.validate(True)

    def test_float_accepts_int(self):
        assert AttributeType.FLOAT.validate(3)
        assert AttributeType.FLOAT.validate(3.5)

    def test_string(self):
        assert AttributeType.STRING.validate("x")
        assert not AttributeType.STRING.validate(1)

    def test_date(self):
        assert AttributeType.DATE.validate("1994-01-01")
        assert not AttributeType.DATE.validate("not a date")
        assert not AttributeType.DATE.validate(None)


class TestRelationSchema:
    def test_of_constructor(self):
        schema = RelationSchema.of(
            "T", {"a": AttributeType.INT, "b": AttributeType.STRING}, key=["a"]
        )
        assert schema.name == "t"
        assert schema.attribute_names == ("a", "b")
        assert schema.arity == 2
        assert schema.index_of("b") == 1
        assert schema.has_attribute("a")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("t", [("a", AttributeType.INT), ("a", AttributeType.INT)])

    def test_bad_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("t", {"a": AttributeType.INT}, key=["zzz"])

    def test_unknown_attribute(self):
        schema = RelationSchema.of("t", {"a": AttributeType.INT})
        with pytest.raises(SchemaError):
            schema.index_of("b")


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        ds = DatabaseSchema([RelationSchema.of("t", {"a": AttributeType.INT})])
        assert "t" in ds
        assert len(ds) == 1
        assert ds.relation("T").name == "t"
        with pytest.raises(SchemaError):
            ds.relation("missing")

    def test_duplicate_rejected(self):
        ds = DatabaseSchema()
        ds.add(RelationSchema.of("t", {"a": AttributeType.INT}))
        with pytest.raises(SchemaError):
            ds.add(RelationSchema.of("t", {"b": AttributeType.INT}))

    def test_as_mapping(self):
        ds = DatabaseSchema([RelationSchema.of("t", {"a": AttributeType.INT})])
        assert ds.as_mapping() == {"t": ("a",)}


class TestDatabase:
    def make(self):
        db = Database("test")
        db.create_table(
            RelationSchema.of("t", {"a": AttributeType.INT, "b": AttributeType.STRING}),
            [(1, "x"), (2, "y")],
        )
        return db

    def test_create_and_lookup(self):
        db = self.make()
        assert "t" in db
        assert len(db.table("t")) == 2
        with pytest.raises(SchemaError):
            db.table("missing")

    def test_validation_catches_bad_types(self):
        db = Database()
        with pytest.raises(SchemaError):
            db.create_table(
                RelationSchema.of("t", {"a": AttributeType.INT}),
                [("not an int",)],
                validate=True,
            )

    def test_validation_off_by_default(self):
        db = Database()
        db.create_table(
            RelationSchema.of("t", {"a": AttributeType.INT}), [("oops",)]
        )
        assert len(db.table("t")) == 1

    def test_drop_table(self):
        db = self.make()
        db.drop_table("t")
        assert "t" not in db
        assert "t" not in db.schema
        with pytest.raises(SchemaError):
            db.drop_table("t")

    def test_analyze_all(self):
        db = self.make()
        assert not db.has_statistics()
        db.analyze()
        assert db.has_statistics()
        assert db.stats_for("t").row_count == 2

    def test_analyze_one(self):
        db = self.make()
        db.create_table(RelationSchema.of("s", {"c": AttributeType.INT}), [(1,)])
        db.analyze("t")
        assert db.stats_for("t") is not None
        assert db.stats_for("s") is None
        assert not db.has_statistics()

    def test_analyze_charges_meter(self):
        db = self.make()
        meter = WorkMeter()
        db.analyze(meter=meter)
        assert meter.total == 4  # 2 rows × 2 attributes

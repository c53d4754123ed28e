"""Database catalog: stored relations, their schemas, and statistics.

A :class:`Database` couples the three pieces every engine needs:

* a :class:`repro.relational.schema.DatabaseSchema` for name resolution;
* the stored :class:`repro.relational.relation.Relation` instances;
* a :class:`repro.relational.statistics.StatisticsCatalog`, populated by
  :meth:`Database.analyze` (the tight coupling) or by hand (stand-alone
  mode, §5 of the paper).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.errors import SchemaError
from repro.metering import NULL_METER, WorkMeter
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.statistics import (
    StatisticsCatalog,
    TableStatistics,
    analyze_relation,
)


class Database:
    """A named collection of stored relations plus statistics."""

    def __init__(self, name: str = "db"):
        self.name = name
        self.schema = DatabaseSchema()
        self.statistics = StatisticsCatalog()
        self._tables: Dict[str, Relation] = {}

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------

    def create_table(
        self,
        schema: RelationSchema,
        tuples: Iterable[Tuple[object, ...]] = (),
        validate: bool = False,
    ) -> Relation:
        """Create and store a relation under ``schema``.

        Args:
            validate: type-check every value against the schema (slow;
                meant for tests and small loads).
        """
        relation = Relation(schema.attribute_names, tuples, name=schema.name)
        if validate:
            for row in relation.tuples:
                for (attr, attr_type), value in zip(schema.attributes, row):
                    if not attr_type.validate(value):
                        raise SchemaError(
                            f"value {value!r} invalid for "
                            f"{schema.name}.{attr} ({attr_type.value})"
                        )
        self.schema.add(schema)
        self._tables[schema.name] = relation
        return relation

    def drop_table(self, name: str) -> None:
        lowered = name.lower()
        if lowered not in self._tables:
            raise SchemaError(f"unknown relation {name!r}")
        del self._tables[lowered]
        # Rebuild the schema without the dropped relation.
        remaining = [s for s in self.schema if s.name != lowered]
        self.schema = DatabaseSchema(remaining)

    def table(self, name: str) -> Relation:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._tables

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def analyze(
        self, relation: "str | None" = None, meter: WorkMeter = NULL_METER
    ) -> None:
        """Gather statistics for one relation, or for all when None.

        Charges the full scan cost to ``meter`` (the overhead experiment of
        §6.1 measures exactly this).
        """
        names = [relation.lower()] if relation else list(self._tables)
        for name in names:
            self.statistics.put(analyze_relation(self.table(name), meter=meter))

    def stats_for(self, relation: str) -> Optional[TableStatistics]:
        return self.statistics.get(relation)

    @property
    def stats_version(self) -> int:
        """The statistics catalog's mutation counter.

        Plan and cost-model caches key on this: re-running ANALYZE bumps it,
        so entries built under stale statistics are lazily evicted.
        """
        return self.statistics.version

    def has_statistics(self) -> bool:
        """True when every stored relation has statistics."""
        return all(name in self.statistics for name in self._tables)

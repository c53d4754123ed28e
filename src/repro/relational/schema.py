"""Relation and database schemas.

Schemas are deliberately light: ordered attribute names with coarse types
(enough to type-check loads and generate data), an optional primary key, and
lookup helpers.  The SQL translator only needs ``attribute_names``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError


class AttributeType(enum.Enum):
    """Coarse attribute types used for validation and data generation."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"  # ISO "YYYY-MM-DD" strings; lexicographic order is correct

    def validate(self, value: object) -> bool:
        """True when ``value`` inhabits this type (None is never valid)."""
        if self is AttributeType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttributeType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeType.STRING:
            return isinstance(value, str)
        if self is AttributeType.DATE:
            return isinstance(value, str) and len(value) == 10 and value[4] == "-"
        raise AssertionError(f"unknown type {self}")  # pragma: no cover


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one relation: name, typed attributes, optional key.

    Args:
        name: relation name (lower-cased on construction by convention).
        attributes: ordered ``(attribute_name, type)`` pairs.
        key: names of the primary-key attributes, or empty.  A
            declaration that nothing checks against the rows, so no
            operator trusts it (a base scan learns its keys from the rows).
    """

    name: str
    attributes: Tuple[Tuple[str, AttributeType], ...]
    key: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        names = [a for a, _ in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute in relation {self.name!r}")
        for attr in self.key:
            if attr not in names:
                raise SchemaError(
                    f"key attribute {attr!r} not in relation {self.name!r}"
                )

    @classmethod
    def of(
        cls,
        name: str,
        attributes: Mapping[str, AttributeType] | Sequence[Tuple[str, AttributeType]],
        key: Sequence[str] = (),
    ) -> "RelationSchema":
        """Convenience constructor accepting a mapping or pair sequence."""
        if isinstance(attributes, Mapping):
            pairs = tuple(attributes.items())
        else:
            pairs = tuple(attributes)
        return cls(name.lower(), pairs, tuple(key))

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a for a, _ in self.attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def index_of(self, attribute: str) -> int:
        for index, (attr, _) in enumerate(self.attributes):
            if attr == attribute:
                return index
        raise SchemaError(
            f"relation {self.name!r} has no attribute {attribute!r}"
        )

    def has_attribute(self, attribute: str) -> bool:
        return any(attr == attribute for attr, _ in self.attributes)


class DatabaseSchema:
    """A collection of relation schemas with name-based lookup."""

    def __init__(self, relations: Iterable[RelationSchema] = ()):
        self._relations: Dict[str, RelationSchema] = {}
        self._digest: Optional[str] = None
        for schema in relations:
            self.add(schema)

    def add(self, schema: RelationSchema) -> None:
        if schema.name in self._relations:
            raise SchemaError(f"duplicate relation {schema.name!r}")
        self._relations[schema.name] = schema
        self._digest = None

    def digest(self) -> str:
        """A short digest of the relation names and columns.

        Computed once per schema state: :meth:`add` drops it, and
        ``Database.drop_table`` builds a new schema.
        """
        if self._digest is None:
            parts = [
                f"{name}({','.join(columns)})"
                for name, columns in sorted(self.as_mapping().items())
            ]
            self._digest = hashlib.sha256(";".join(parts).encode()).hexdigest()[:12]
        return self._digest

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def as_mapping(self) -> Dict[str, Tuple[str, ...]]:
        """``{relation: attribute_names}`` — the shape the SQL translator wants."""
        return {
            name: schema.attribute_names
            for name, schema in self._relations.items()
        }

"""Hash indexes over stored relations.

A light physical-design layer: the engine's hash joins build their tables
on the fly, but persistent :class:`HashIndex` structures let repeated
lookups (index nested-loop joins, indexed semijoins) skip the build cost —
the trade-off a disk-based DBMS makes with B-trees.  Indexes are registered
on the :class:`repro.relational.database.Database` catalog and exercised by
dedicated operators; they are deliberately *not* wired into the default
planner, keeping the paper's experiments index-neutral (as its synthetic
setup was).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.metering import NULL_METER, WorkMeter
from repro.relational.relation import _CHECK_EVERY, Relation, _project_rows
from repro.resilience.context import current_context

Key = Tuple[object, ...]


class HashIndex:
    """A hash index over one or more attributes of a relation.

    Args:
        relation: the indexed relation (a snapshot — the index does not
            track later mutation, like a real index without maintenance).
        attributes: indexed attribute names, in key order.
    """

    def __init__(self, relation: Relation, attributes: Sequence[str]):
        if not attributes:
            raise SchemaError("an index needs at least one attribute")
        self.relation = relation
        self.attributes: Tuple[str, ...] = tuple(attributes)
        keys = _project_rows(
            relation.tuples, [relation.index_of(a) for a in self.attributes]
        )
        self._buckets: Dict[Key, List[Tuple[object, ...]]] = {}
        buckets = self._buckets
        for key, row in zip(keys, relation.tuples):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)

    def __len__(self) -> int:
        return len(self._buckets)

    def lookup(self, key: Key, meter: WorkMeter = NULL_METER) -> List[Tuple[object, ...]]:
        """All rows matching ``key`` (charged one probe unit)."""
        meter.charge(1, "index-probe")
        return self._buckets.get(tuple(key), [])

    def contains(self, key: Key, meter: WorkMeter = NULL_METER) -> bool:
        meter.charge(1, "index-probe")
        return tuple(key) in self._buckets

    @property
    def build_cost(self) -> int:
        """Work units spent building (≈ one per indexed tuple)."""
        return len(self.relation)


def index_nested_loop_join(
    probe: Relation,
    index: HashIndex,
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """⋈ probe against an index on the shared attributes.

    The index's attributes must all be present in ``probe``; remaining
    shared attributes (if any) are checked residually.
    """
    build = index.relation
    for attribute in index.attributes:
        if not probe.has_attribute(attribute):
            raise SchemaError(
                f"probe side lacks indexed attribute {attribute!r}"
            )
    probe_key_idx = [probe.index_of(a) for a in index.attributes]
    shared = tuple(a for a in probe.attributes if build.has_attribute(a))
    residual = [a for a in shared if a not in index.attributes]
    probe_res_idx = [probe.index_of(a) for a in residual]
    build_res_idx = [build.index_of(a) for a in residual]

    out_attrs = list(probe.attributes) + [
        a for a in build.attributes if not probe.has_attribute(a)
    ]
    build_rest_idx = [
        i for i, a in enumerate(build.attributes) if not probe.has_attribute(a)
    ]

    context = current_context()
    residual_pairs = list(zip(probe_res_idx, build_res_idx))
    buckets = index._buckets
    probe_rows = probe.tuples
    out: List[Tuple[object, ...]] = []
    # Charge in chunk batches (probe + index-probe per row up front, output
    # rows after each chunk): same categories and totals as the per-row
    # loop, two meter acquisitions per chunk instead of per row.
    for start in range(0, len(probe_rows), _CHECK_EVERY):
        context.checkpoint("exec.inl-join")
        chunk = probe_rows[start : start + _CHECK_EVERY]
        meter.charge(len(chunk), "inl-probe")
        meter.charge(len(chunk), "index-probe")
        emitted = len(out)
        for row, key in zip(chunk, _project_rows(chunk, probe_key_idx)):
            matches = buckets.get(key)
            if not matches:
                continue
            for match, rest in zip(matches, _project_rows(matches, build_rest_idx)):
                if any(row[pi] != match[bi] for pi, bi in residual_pairs):
                    continue
                out.append(row + rest)
        if len(out) > emitted:
            meter.charge(len(out) - emitted, "inl-out")
    return Relation(out_attrs, out, name=f"({probe.name}⋈idx)")


def indexed_semijoin(
    left: Relation,
    index: HashIndex,
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """⋉ keep rows of ``left`` whose indexed key exists in the index."""
    for attribute in index.attributes:
        if not left.has_attribute(attribute):
            raise SchemaError(f"left side lacks indexed attribute {attribute!r}")
    keys = _project_rows(left.tuples, [left.index_of(a) for a in index.attributes])
    meter.charge(len(left), "semijoin-probe")
    meter.charge(len(left), "index-probe")
    kept = list(compress(left.tuples, map(index._buckets.__contains__, keys)))
    return Relation(left.attributes, kept, name=left.name)


class IndexCatalog:
    """Registered indexes: (relation, attributes) → HashIndex."""

    def __init__(self) -> None:
        self._indexes: Dict[Tuple[str, Tuple[str, ...]], HashIndex] = {}

    def create(self, relation: Relation, attributes: Sequence[str]) -> HashIndex:
        key = (relation.name, tuple(attributes))
        if key in self._indexes:
            raise SchemaError(f"index already exists on {key}")
        index = HashIndex(relation, attributes)
        self._indexes[key] = index
        return index

    def find(
        self, relation_name: str, attributes: Sequence[str]
    ) -> Optional[HashIndex]:
        return self._indexes.get((relation_name, tuple(attributes)))

    def drop(self, relation_name: str, attributes: Sequence[str]) -> None:
        key = (relation_name, tuple(attributes))
        if key not in self._indexes:
            raise SchemaError(f"no index on {key}")
        del self._indexes[key]

    def __len__(self) -> int:
        return len(self._indexes)

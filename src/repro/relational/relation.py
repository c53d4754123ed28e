"""In-memory relations and the tuple-at-a-time relational algebra.

A :class:`Relation` is an ordered attribute list plus a list of value
tuples.  Every operator charges *work units* (≈ tuples touched) to a
:class:`repro.metering.WorkMeter`, which is how both the simulated DBMS and
the decomposition evaluator are compared fairly — and how runaway plans are
aborted (the meter's budget raises mid-join, before a cartesian product
materializes).

Natural joins are hash joins on the shared attribute names; a join with no
shared attributes degenerates to a cartesian product, exactly the failure
mode of bad quantitative plans the paper's Fig. 7/8 expose.

A base scan over a column set no two stored rows share is a
:class:`_ScanRelation`: the stored rows and a column map, which the join
and projection kernels read in place; its rows are built only for a
reader outside them (:meth:`Relation.scan`).
"""

from __future__ import annotations

import math
import operator
from itertools import compress
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SchemaError
from repro.metering import NULL_METER, WorkMeter
from repro.resilience.context import current_context

#: Join kernels poll the resilience context (deadline/cancel/faults) every
#: this many rows — frequent enough that a cartesian blow-up aborts within
#: milliseconds, rare enough to stay off the per-tuple hot path.
_CHECK_EVERY = 4096

Rows = List[Tuple[object, ...]]


def _key_getter(indices: Sequence[int]) -> Callable[[Tuple[object, ...]], object]:
    """Hash/sort key extractor built once per relation, not once per row.

    A single-column key stays a bare value (cheaper to hash and compare
    than a 1-tuple, with identical equality/ordering semantics); zero
    columns — the cartesian case — collapse to one constant key.
    """
    if not indices:
        return operator.itemgetter(slice(0, 0))
    if len(indices) == 1:
        return operator.itemgetter(indices[0])
    return operator.itemgetter(*indices)


def _project_rows(
    rows: Iterable[Tuple[object, ...]], indices: Sequence[int]
) -> Iterator[Tuple[object, ...]]:
    """``rows`` projected onto ``indices``, as tuples, in order, with no
    Python call per row: ``itemgetter(*indices)`` for several columns,
    ``zip`` over one column's values, an empty slice for none."""
    if not indices:
        return map(operator.itemgetter(slice(0, 0)), rows)
    if len(indices) == 1:
        return zip(map(operator.itemgetter(indices[0]), rows))
    return map(operator.itemgetter(*indices), rows)


def _through(
    columns: Optional[Sequence[int]], indices: Sequence[int]
) -> Sequence[int]:
    """``indices``, positions in a relation's rows, as positions in the row
    list it stores (:meth:`Relation._stored`)."""
    return indices if columns is None else [columns[i] for i in indices]


def _unique_attributes(attributes: Sequence[str]) -> Tuple[str, ...]:
    """``attributes`` as a tuple; duplicate names are a :class:`SchemaError`."""
    names = tuple(attributes)
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate attribute names: {names}")
    return names


class Relation:
    """A named, attribute-addressed bag of tuples.

    Args:
        attributes: ordered attribute names (unique).
        tuples: row values, each of length ``len(attributes)``; any
            sequence, stored as a tuple.
        name: display name for plans and EXPLAIN output.
    """

    __slots__ = ("name", "attributes", "tuples", "_index", "_keys")

    def __init__(
        self,
        attributes: Sequence[str],
        tuples: Iterable[Tuple[object, ...]] = (),
        name: str = "",
    ):
        self.attributes: Tuple[str, ...] = _unique_attributes(attributes)
        self.tuples: List[Tuple[object, ...]] = list(tuples)
        self.name = name
        self._index: Dict[str, int] = {
            attr: i for i, attr in enumerate(self.attributes)
        }
        self._keys: Optional[Dict[Tuple[int, ...], bool]] = None
        # Rows are stored as tuples: operators concatenate, hash and hand
        # out the row objects themselves.  Both checks run at C level.
        rows = self.tuples
        if list(map(type, rows)).count(tuple) != len(rows):
            rows = self.tuples = list(map(tuple, rows))
        arity = len(self.attributes)
        if list(map(len, rows)).count(arity) != len(rows):
            row = next(row for row in rows if len(row) != arity)
            raise SchemaError(
                f"tuple arity {len(row)} != schema arity "
                f"{arity} in relation {self.name!r}"
            )

    @classmethod
    def _trusted(
        cls,
        attributes: Sequence[str],
        tuples: List[Tuple[object, ...]],
        name: str = "",
    ) -> "Relation":
        """Construct without the per-row arity scan.

        For operator outputs, whose rows are arity-correct by construction
        and whose attribute names the operator has already checked;
        ``tuples`` is adopted, not copied.
        """
        rel = cls.__new__(cls)
        rel.attributes = tuple(attributes)
        rel.tuples = tuples
        rel.name = name
        rel._index = {attr: i for i, attr in enumerate(rel.attributes)}
        rel._keys = None
        return rel

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        return iter(self.tuples)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Relation({label}{list(self.attributes)}, {len(self)} tuples)"

    def _stored(self) -> "Tuple[Rows, Optional[Tuple[int, ...]]]":
        """The row list the kernels read, and each attribute's position in
        those rows — ``None`` when they are this relation's own rows."""
        return self.tuples, None

    def index_of(self, attribute: str) -> int:
        try:
            return self._index[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"has {list(self.attributes)}"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        return attribute in self._index

    def column(self, attribute: str) -> List[object]:
        """All values of one attribute, in row order."""
        idx = self.index_of(attribute)
        return [row[idx] for row in self.tuples]

    def to_multiset(self) -> Dict[Tuple[object, ...], int]:
        """Attribute-order-normalized multiset view (for equality in tests)."""
        order = sorted(range(len(self.attributes)), key=lambda i: self.attributes[i])
        counts: Dict[Tuple[object, ...], int] = {}
        for row in self.tuples:
            key = tuple(row[i] for i in order)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def same_content(self, other: "Relation") -> bool:
        """Bag equality modulo attribute order."""
        if set(self.attributes) != set(other.attributes):
            return False
        return self.to_multiset() == other.to_multiset()

    def copy(self, name: "str | None" = None) -> "Relation":
        return Relation._trusted(self.attributes, list(self.tuples), name or self.name)

    # ------------------------------------------------------------------
    # Unary operators
    # ------------------------------------------------------------------

    def project(
        self,
        attributes: Sequence[str],
        dedup: bool = True,
        meter: WorkMeter = NULL_METER,
    ) -> "Relation":
        """π over ``attributes``; set semantics when ``dedup`` (the default)."""
        indices = [self.index_of(a) for a in _unique_attributes(attributes)]
        meter.charge(len(self), "project")
        stored, columns = self._stored()
        rows = _project_rows(stored, _through(columns, indices))
        # dict.fromkeys keeps first occurrences in row order, at C speed.
        out = list(dict.fromkeys(rows)) if dedup else list(rows)
        return Relation._trusted(attributes, out, name=self.name)

    def scan(
        self,
        rows: Rows,
        columns: Sequence[str],
        attributes: Sequence[str],
        name: str = "",
        dedup: bool = True,
    ) -> "Relation":
        """``rows`` — this relation's row list, or the sub-list of it a
        selection kept, in order — projected onto ``columns`` and named
        ``attributes``; with ``dedup``, first occurrences only, as
        :meth:`project` keeps them.  Charges nothing.

        When no two rows of this relation agree on those columns, no two
        rows of any sub-list do either: the dedup is the identity, and the
        result reads ``rows`` themselves through a column map, copying none
        (:class:`_ScanRelation`).  Whether that holds is learned from the
        rows once per column set and remembered on the relation — one
        boolean, no rows: for free from the dedup of the whole row list, or
        by one pass over it when ``rows`` is a sub-list.  The rows of a
        relation never change after it is built, so neither the fact nor a
        result that reads them can go stale; a race only computes the same
        boolean twice.
        """
        attributes = _unique_attributes(attributes)
        indices = [self.index_of(a) for a in _unique_attributes(columns)]
        projected = _project_rows(rows, indices)
        if not dedup:
            return Relation._trusted(attributes, list(projected), name)
        keys = self._keys
        if keys is None:
            keys = self._keys = {}
        # Keyed by the sorted column positions: a column set, in one order.
        key = tuple(sorted(indices))
        keyed = keys.get(key)
        if keyed is None and rows is not self.tuples:
            distinct = len(set(_project_rows(self.tuples, key)))
            keyed = keys[key] = distinct == len(self.tuples)
        if keyed:
            return _ScanRelation(attributes, rows, tuple(indices), name)
        # dict.fromkeys keeps first occurrences in row order, at C speed.
        out = list(dict.fromkeys(projected))
        if keyed is None:
            keys[key] = len(out) == len(rows)
        return Relation._trusted(attributes, out, name)

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """ρ: rename attributes; unmentioned attributes keep their names."""
        new_attrs = _unique_attributes(mapping.get(a, a) for a in self.attributes)
        return Relation._trusted(new_attrs, list(self.tuples), name=self.name)

    def distinct(self, meter: WorkMeter = NULL_METER) -> "Relation":
        meter.charge(len(self.tuples), "distinct")
        # First occurrences in row order, as project(dedup=True) keeps them.
        out = list(dict.fromkeys(self.tuples))
        return Relation._trusted(self.attributes, out, name=self.name)

    def sort_by(
        self,
        keys: Sequence[Tuple[str, bool]],
        meter: WorkMeter = NULL_METER,
    ) -> "Relation":
        """Sort by ``(attribute, descending)`` keys, stably, right-to-left."""
        meter.charge(len(self.tuples), "sort")
        rows = list(self.tuples)
        for attribute, descending in reversed(list(keys)):
            idx = self.index_of(attribute)
            rows.sort(key=lambda row: row[idx], reverse=descending)
        return Relation._trusted(self.attributes, rows, name=self.name)

    def limit(self, count: int) -> "Relation":
        return Relation._trusted(self.attributes, self.tuples[:count], name=self.name)

    # ------------------------------------------------------------------
    # Binary operators
    # ------------------------------------------------------------------

    def shared_attributes(self, other: "Relation") -> Tuple[str, ...]:
        """Join attributes: shared names, in this relation's order."""
        other_set = set(other.attributes)
        return tuple(a for a in self.attributes if a in other_set)

    def _build_probe(self, other: "Relation") -> "Tuple[Relation, Relation]":
        """Hash-join sides: build on the smaller relation, probe the larger."""
        return (self, other) if len(self) <= len(other) else (other, self)

    def joined_attributes(self, other: "Relation") -> Tuple[str, ...]:
        """The attribute order ``self.natural_join(other)`` produces: the
        probe side's attributes, then the build side's non-shared ones."""
        build, probe = self._build_probe(other)
        return probe.attributes + tuple(
            a for a in build.attributes if a not in probe._index
        )

    def _hash_join_rows(
        self,
        other: "Relation",
        meter: WorkMeter,
        keep: Optional[Sequence[str]] = None,
    ) -> "Tuple[List[Tuple[object, ...]], List[str], int]":
        """The build/probe loop behind ⋈: one row per (probe row, build
        match) pair, in probe-row then build-row order, the rows'
        attributes, and the pair count ``join-out`` was charged.

        With ``keep=None`` rows carry every joined attribute
        (:meth:`joined_attributes` order).  Otherwise each row carries only
        the kept probe columns followed by the kept build columns, each
        group in ``keep`` order — the dropped columns are never copied.
        The pairs enumerated, and so the charges and checkpoints, do not
        depend on ``keep``.
        """
        shared = self.shared_attributes(other)
        build, probe = self._build_probe(other)
        # Both sides are read as stored: positions go through their maps.
        build_rows, build_columns = build._stored()
        probe_rows, probe_columns = probe._stored()
        build_key = _key_getter(
            _through(build_columns, [build.index_of(a) for a in shared])
        )
        probe_key = _key_getter(
            _through(probe_columns, [probe.index_of(a) for a in shared])
        )
        head_idx: Optional[Sequence[int]]
        if keep is None:
            # The whole probe row is the head: no copy, unless it is stored
            # wider than its attributes.
            emitted = list(self.joined_attributes(other))
            head_idx, rest_attrs = probe_columns, emitted[len(probe.attributes) :]
        else:
            head_attrs = [a for a in keep if a in probe._index]
            rest_attrs = [a for a in keep if a not in probe._index]
            emitted = head_attrs + rest_attrs
            head_idx = _through(probe_columns, [probe._index[a] for a in head_attrs])
        rest_idx = _through(build_columns, [build.index_of(a) for a in rest_attrs])
        context = current_context()

        # Build phase, charged in ≤ _CHECK_EVERY blocks: every build row's
        # key and output suffix (re-emitted for every probe match) at C
        # level.  When the keys are distinct — every PK–FK build — the
        # table is one dict(zip(keys, suffixes)), key → suffix, with no
        # lists.  Otherwise one loop over the precomputed pairs groups them,
        # key → [suffixes] in build order.  Distinctness is tested on a set
        # of the keys, not on that dict: a dict built and then discarded
        # slows a nearly-unique build past the per-row loop's cost.
        keys: List[object] = []
        suffixes: Rows = []
        for start in range(0, len(build_rows), _CHECK_EVERY):
            context.checkpoint("exec.join")
            chunk = build_rows[start : start + _CHECK_EVERY]
            meter.charge(len(chunk), "join-build")
            keys.extend(map(build_key, chunk))
            suffixes.extend(_project_rows(chunk, rest_idx))
        unique = len(set(keys)) == len(keys)
        if unique:
            table: Dict[object, object] = dict(zip(keys, suffixes))
        else:
            table = {}
            for key, suffix in zip(keys, suffixes):
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [suffix]
                else:
                    bucket.append(suffix)
        table_get = table.get
        del keys, suffixes

        # Probe phase, one ≤ _CHECK_EVERY-row block at a time.  The
        # checkpoint is driven by *probe-row* count, not output count: a long
        # probe with few or no matches must still be interruptible by
        # deadlines and cancellation.  A block's pairs are counted from its
        # hits and charged as one lump *before* any of its rows exist, so
        # a budgeted meter aborts a blow-up while it is still hypothetical;
        # the rows are then emitted at C level.  Probe keys are looked up
        # as they are made, never listed: most probe rows of a PK–FK join
        # miss.  Against a unique table a hit is one pair, and a build side
        # that adds no column emits the matched probe rows (or their heads)
        # as they are.  Only a block holding a bucket larger than
        # _CHECK_EVERY takes the per-row loop, which checkpoints and charges
        # inside that bucket; no bucket exceeds len(build) - len(table) + 1
        # rows, so the tables are searched for one only when that allows it.
        big_buckets = (
            len(build_rows) - len(table) >= _CHECK_EVERY
            and max(map(len, table.values())) > _CHECK_EVERY
        )
        out: Rows = []
        out_extend = out.extend
        pairs = 0
        for start in range(0, len(probe_rows), _CHECK_EVERY):
            context.checkpoint("exec.join")
            chunk = probe_rows[start : start + _CHECK_EVERY]
            meter.charge(len(chunk), "join-probe")
            if unique and not rest_idx:
                matched = list(
                    compress(chunk, map(table.__contains__, map(probe_key, chunk)))
                )
                if matched:
                    meter.charge(len(matched), "join-out")
                    pairs += len(matched)
                    if head_idx is not None:
                        matched = _project_rows(matched, head_idx)
                    out_extend(matched)
                continue
            hits = list(map(table_get, map(probe_key, chunk)))
            # The matched probe rows' suffixes or buckets, in probe order.
            found = list(filter(None, hits))
            if not found:
                continue
            if big_buckets and max(map(len, found)) > _CHECK_EVERY:
                heads = chunk if head_idx is None else _project_rows(chunk, head_idx)
                for head, matches in zip(heads, hits):
                    if not matches:
                        continue
                    pairs += len(matches)
                    if len(matches) <= _CHECK_EVERY:
                        meter.charge(len(matches), "join-out")
                        out_extend([head + rest for rest in matches])
                        continue
                    for mstart in range(0, len(matches), _CHECK_EVERY):
                        context.checkpoint("exec.join")
                        run = matches[mstart : mstart + _CHECK_EVERY]
                        meter.charge(len(run), "join-out")
                        out_extend([head + rest for rest in run])
                continue
            block_pairs = len(found) if unique else sum(map(len, found))
            meter.charge(block_pairs, "join-out")
            pairs += block_pairs
            heads = compress(chunk, hits)
            if head_idx is not None:
                heads = _project_rows(heads, head_idx)
            if unique:
                out_extend(map(operator.add, heads, found))
            else:
                out_extend([h + r for h, b in zip(heads, found) for r in b])
        return out, emitted, pairs

    def _join_name(self, other: "Relation") -> str:
        return f"({self.name}⋈{other.name})" if self.name and other.name else ""

    def natural_join(
        self, other: "Relation", meter: WorkMeter = NULL_METER
    ) -> "Relation":
        """⋈ hash join on shared attribute names.

        With no shared attributes this is the cartesian product.  Work is
        charged per input tuple and per output tuple, each probe block's
        output *before* its rows are built, so a budgeted meter aborts a
        blow-up before it is materialized.
        """
        rows, attributes, _pairs = self._hash_join_rows(other, meter)
        return Relation._trusted(attributes, rows, name=self._join_name(other))

    def join_project(
        self,
        other: "Relation",
        keep: Sequence[str],
        meter: WorkMeter = NULL_METER,
        on_joined: Optional[Callable[[int], None]] = None,
    ) -> "Relation":
        """⋈ then π onto ``keep`` with set semantics, without materializing
        the dropped columns.

        Equal — attributes, rows, row order and every charge — to
        ``self.natural_join(other, meter).project(keep, dedup=True, meter)``.
        ``keep`` is any duplicate-free selection of
        :meth:`joined_attributes`, in any order.

        Args:
            on_joined: called with the row count of the join result the
                two-step form would have materialized, after the join's
                charges and before the ``project`` charge — where a caller
                accounts that intermediate against memory and spill
                budgets.
        """
        keep = _unique_attributes(keep)
        rows, emitted, pairs = self._hash_join_rows(other, meter, keep)
        if on_joined is not None:
            on_joined(pairs)
        meter.charge(pairs, "project")
        out = list(dict.fromkeys(rows))
        # Rows were emitted probe columns first; restore ``keep`` order.
        if emitted != list(keep):
            out = list(_project_rows(out, [emitted.index(a) for a in keep]))
        return Relation._trusted(keep, out, name=self._join_name(other))

    def nested_loop_join(
        self, other: "Relation", meter: WorkMeter = NULL_METER
    ) -> "Relation":
        """⋈ by nested loops — O(|R|·|S|); the right choice only when one
        side is tiny (no hash-table build cost)."""
        shared = self.shared_attributes(other)
        self_idx = [self.index_of(a) for a in shared]
        other_idx = [other.index_of(a) for a in shared]
        out_attrs = list(self.attributes) + [
            a for a in other.attributes if a not in self._index
        ]
        other_rest_idx = [
            i for i, a in enumerate(other.attributes) if a not in self._index
        ]
        context = current_context()
        self_key = _key_getter(self_idx)
        # Inner-side keys and output suffixes are extracted once, not once
        # per outer row.
        other_keys = list(map(_key_getter(other_idx), other.tuples))
        other_rests = list(_project_rows(other.tuples, other_rest_idx))
        pairs = 0
        out: List[Tuple[object, ...]] = []
        for row in self.tuples:
            key = self_key(row)
            for j, other_key in enumerate(other_keys):
                if pairs % _CHECK_EVERY == 0:
                    context.checkpoint("exec.join")
                pairs += 1
                meter.charge(1, "nlj-pair")
                if other_key == key:
                    if len(out) % _CHECK_EVERY == 0:
                        context.checkpoint("exec.join")
                    meter.charge(1, "nlj-out")
                    out.append(row + other_rests[j])
        return Relation._trusted(out_attrs, out, name=self._join_name(other))

    def semijoin(
        self, other: "Relation", meter: WorkMeter = NULL_METER
    ) -> "Relation":
        """⋉ keep tuples of self that match ``other`` on shared attributes.

        With no shared attributes, returns self unchanged when ``other`` is
        non-empty and the empty relation otherwise (standard semantics).
        """
        shared = self.shared_attributes(other)
        if not shared:
            if len(other) == 0:
                return Relation._trusted(self.attributes, [], name=self.name)
            return self.copy()
        context = current_context()
        context.checkpoint("exec.join")
        other_idx = [other.index_of(a) for a in shared]
        meter.charge(len(other.tuples), "semijoin-build")
        keys = set(map(_key_getter(other_idx), other.tuples))
        self_key = _key_getter([self.index_of(a) for a in shared])
        meter.charge(len(self.tuples), "semijoin-probe")
        kept: List[Tuple[object, ...]] = []
        rows = self.tuples
        for start in range(0, len(rows), _CHECK_EVERY):
            if start:
                context.checkpoint("exec.join")
            chunk = rows[start : start + _CHECK_EVERY]
            kept.extend(compress(chunk, map(keys.__contains__, map(self_key, chunk))))
        return Relation._trusted(self.attributes, kept, name=self.name)

    def union(self, other: "Relation", meter: WorkMeter = NULL_METER) -> "Relation":
        """Bag union; requires identical attribute sets (order-normalized)."""
        if set(self.attributes) != set(other.attributes):
            raise SchemaError(
                "union requires identical attribute sets: "
                f"{self.attributes} vs {other.attributes}"
            )
        reorder = [other.index_of(a) for a in self.attributes]
        context = current_context()
        aligned = reorder == list(range(len(self.attributes)))
        merged = list(self.tuples)
        rows = other.tuples
        for start in range(0, len(rows), _CHECK_EVERY):
            context.checkpoint("exec.union")
            chunk = rows[start : start + _CHECK_EVERY]
            meter.charge(len(chunk), "union")
            merged.extend(chunk if aligned else _project_rows(chunk, reorder))
        return Relation._trusted(self.attributes, merged, name=self.name)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def group_aggregate(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[Tuple[str, Optional[str], str]],
        meter: WorkMeter = NULL_METER,
    ) -> "Relation":
        """γ group-by + aggregates.

        Args:
            group_by: grouping attributes (may be empty: single global group).
            aggregates: ``(function, attribute, output_name)`` triples where
                function ∈ {sum, count, min, max, avg} and attribute is
                ``None`` for ``count(*)``.

        Returns:
            One row per group: group attributes then aggregate outputs.
        """
        group_idx = [self.index_of(a) for a in group_by]
        agg_idx: List[Optional[int]] = []
        for func, attribute, _out in aggregates:
            if func not in ("sum", "count", "min", "max", "avg"):
                raise SchemaError(f"unsupported aggregate function {func!r}")
            agg_idx.append(None if attribute is None else self.index_of(attribute))

        meter.charge(len(self.tuples), "aggregate")
        groups: Dict[Tuple[object, ...], List[Tuple[object, ...]]] = {}
        for key, row in zip(_project_rows(self.tuples, group_idx), self.tuples):
            groups.setdefault(key, []).append(row)
        if not group_by and not groups:
            groups[()] = []  # global aggregate over the empty relation

        # A group-by column may collide with an aggregate alias.
        out_attrs = _unique_attributes(
            list(group_by) + [out for _f, _a, out in aggregates]
        )
        out_rows: List[Tuple[object, ...]] = []
        for key in groups:
            rows = groups[key]
            values: List[object] = list(key)
            for (func, _attribute, _out), idx in zip(aggregates, agg_idx):
                column = [row[idx] for row in rows] if idx is not None else rows
                values.append(_apply_aggregate(func, column, idx is not None))
            out_rows.append(tuple(values))
        return Relation._trusted(out_attrs, out_rows, name=self.name)


class _ScanRelation(Relation):
    """A keyed base scan's output, made without copying a row.

    ``rows`` is a stored relation's row list, or the sub-list of it a
    scan's filters kept, and ``columns`` each attribute's position in those
    rows; no two of them agree on ``columns`` (:meth:`Relation.scan`), so
    the projection has one row per stored row.  The kernels read ``rows``
    through ``columns`` (:meth:`_stored`), so a scan the fold joins or
    projects is never copied.  Any other reader of ``tuples`` gets the
    projection, built on first read — exactly the rows an eager scan makes.
    ``copy()`` and ``rename()`` return plain relations, and so does a
    pickle.
    """

    __slots__ = ("_rows", "_columns")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        rows: Rows,
        columns: Tuple[int, ...],
        name: str = "",
    ):
        self.attributes = attributes
        self.name = name
        self._index = {attr: i for i, attr in enumerate(attributes)}
        self._keys = None
        self._rows = rows
        self._columns = columns

    def __getattr__(self, attribute: str) -> Rows:
        # Reached only while the ``tuples`` slot is unset.  Two threads that
        # race here build equal lists.
        if attribute != "tuples":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {attribute!r}"
            )
        rows = self.tuples = list(_project_rows(self._rows, self._columns))
        return rows

    def __len__(self) -> int:
        return len(self._rows)

    def __reduce__(self) -> "Tuple[object, ...]":
        return Relation._trusted, (self.attributes, self.tuples, self.name)

    def _stored(self) -> "Tuple[Rows, Optional[Tuple[int, ...]]]":
        return self._rows, self._columns


def _numeric_sum(column: List[object]) -> object:
    """Order-independent summation.

    Different query plans enumerate a group's rows in different orders;
    naive float addition is not associative, so two correct plans could
    disagree in the last ulp.  ``math.fsum`` computes the correctly-rounded
    sum regardless of order whenever any float is involved; pure-integer
    columns keep exact integer arithmetic.
    """
    if any(isinstance(value, float) for value in column):
        return math.fsum(column)  # type: ignore[arg-type]
    return sum(column)  # type: ignore[arg-type]


def _apply_aggregate(func: str, column: List[object], has_attr: bool) -> object:
    """Evaluate one aggregate over a materialized group column."""
    if func == "count":
        return len(column)
    if not has_attr:
        raise SchemaError(f"aggregate {func!r} requires an attribute")
    if not column:
        return None  # SQL: aggregates over empty groups are NULL
    if func == "sum":
        return _numeric_sum(column)
    if func == "min":
        return min(column)  # type: ignore[type-var]
    if func == "max":
        return max(column)  # type: ignore[type-var]
    if func == "avg":
        return _numeric_sum(column) / len(column)  # type: ignore[operator]
    raise SchemaError(f"unsupported aggregate function {func!r}")  # pragma: no cover

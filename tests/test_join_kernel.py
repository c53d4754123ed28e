"""The hash-join kernel against a per-pair reference.

``Relation._hash_join_rows`` builds a flat key → suffix table when the build
side's keys are distinct and a key → [suffixes] table otherwise, charges a
probe block's output as one lump and emits the block at C level; the
reference below is the straightforward form — one dictionary lookup, one
``join-out`` charge and one emitted row per (probe row, build match) at a
time.  Rows, row order and every ``by_category`` total must agree for both
table shapes, a work budget must trip inside the probe block that crosses
it, and the join must poll the execution context once per block.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkBudgetExceeded
from repro.metering import WorkMeter
from repro.relational.relation import Relation
from repro.resilience.context import ExecutionContext, resilient

BLOCK = 4096


def reference_join(left, right, keep, meter):
    """``natural_join`` (``keep is None``) or ``join_project``, per pair."""
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    shared = [a for a in left.attributes if a in right.attributes]
    rest = [a for a in build.attributes if a not in probe.attributes]
    attributes = list(probe.attributes) + rest

    def key(rel, row):
        return tuple(row[rel.attributes.index(a)] for a in shared)

    table = {}
    for start in range(0, len(build), BLOCK):
        chunk = build.tuples[start : start + BLOCK]
        meter.charge(len(chunk), "join-build")
        for row in chunk:
            suffix = tuple(row[build.attributes.index(a)] for a in rest)
            table.setdefault(key(build, row), []).append(suffix)
    rows = []
    for start in range(0, len(probe), BLOCK):
        chunk = probe.tuples[start : start + BLOCK]
        meter.charge(len(chunk), "join-probe")
        for row in chunk:
            matches = table.get(key(probe, row), [])
            if matches:
                meter.charge(len(matches), "join-out")
            for suffix in matches:
                rows.append(row + suffix)
    if keep is None:
        return tuple(attributes), rows
    meter.charge(len(rows), "project")
    positions = [attributes.index(a) for a in keep]
    projected = [tuple(row[i] for i in positions) for row in rows]
    return tuple(keep), list(dict.fromkeys(projected))


@st.composite
def join_case(draw):
    """Two bag relations that share several attributes, one or none (a
    cartesian product), either possibly empty, and ``keep``: ``None`` for a
    plain natural join or any sub-permutation of the joined attributes."""
    pool = ["a", "b", "c", "d"]
    left_attrs = draw(st.permutations(pool))[: draw(st.integers(1, 3))]
    right_attrs = draw(st.permutations(pool))[: draw(st.integers(1, 3))]

    def rows(width):
        row = st.tuples(*[st.integers(min_value=0, max_value=2)] * width)
        return draw(st.lists(row, min_size=0, max_size=12))

    left = Relation(left_attrs, rows(len(left_attrs)), name="l")
    right = Relation(right_attrs, rows(len(right_attrs)), name="r")
    return left, right, draw(_keep(left, right))


def _keep(left, right):
    """``None`` or any sub-permutation of the joined attributes."""
    joined = list(left.joined_attributes(right))
    return st.none() | st.permutations(joined).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda n: order[:n])
    )


@st.composite
def unique_build_case(draw):
    """A build side whose join keys are distinct (the flat table), adding
    suffix columns to the probe's or none, on either side of the call."""
    pool = ["a", "b", "c", "d"]
    probe_attrs = draw(st.permutations(pool))[: draw(st.integers(1, 4))]
    shared = draw(st.permutations(probe_attrs))
    shared = shared[: draw(st.integers(0, len(shared)))]
    extra = [a for a in pool if a not in probe_attrs][: draw(st.integers(0, 2))]
    build_attrs = draw(st.permutations(shared + extra))
    key_positions = [build_attrs.index(a) for a in shared]
    build_rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * len(build_attrs)),
            max_size=8,
            unique_by=lambda row: tuple(row[i] for i in key_positions),
        )
    )
    probe_rows = draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * len(probe_attrs)),
            min_size=len(build_rows),
            max_size=12,
        )
    )
    build = Relation(build_attrs, build_rows, name="b")
    probe = Relation(probe_attrs, probe_rows, name="p")
    left, right = (build, probe) if draw(st.booleans()) else (probe, build)
    return left, right, draw(_keep(left, right))


def _big_bucket_case():
    """A build bucket of 4,100 rows (> one block) beside a small one, probed
    by two blocks: the first holds the big bucket (per-row path), the second
    only the small one (lump path)."""
    left = Relation(
        ["j", "a"], [(0, i) for i in range(4100)] + [(2, i) for i in range(5)], name="l"
    )
    right_rows = [(1, i) for i in range(4200)]
    for position in (0, 1, 2):
        right_rows[position] = (0, position)
    for position in (7, 4097, 4150):
        right_rows[position] = (2, position)
    right = Relation(["j", "b"], right_rows, name="r")
    return left, right


def _big_unique_case(suffix):
    """A 5,000-row build with distinct keys (two build blocks) probed by
    9,000 rows (three probe blocks), every other probe row a hit."""
    if suffix:
        build = Relation(["j", "a"], [(i, i % 7) for i in range(5000)], name="l")
    else:
        build = Relation(["j"], [(i,) for i in range(5000)], name="l")
    probe_rows = [(i % 3, -i if i % 2 else i // 2) for i in range(9000)]
    return build, Relation(["b", "j"], probe_rows, name="r")


def _mostly_miss_case():
    """50 distinct build keys probed by 10,000 rows, 50 of them hits."""
    build = Relation(["j", "a"], [(100 * i, i) for i in range(50)], name="l")
    probe = Relation(["j", "b"], [(i, i % 5) for i in range(10000)], name="r")
    return build, probe


@settings(max_examples=300, deadline=None)
@given(case=join_case() | unique_build_case())
@example(case=(*_big_bucket_case(), None))
@example(case=(*_big_bucket_case(), ["b", "a"]))
@example(case=(*_big_unique_case(True), None))
@example(case=(*_big_unique_case(True), ["a", "b"]))
@example(case=(*_big_unique_case(False), None))
@example(case=(*_big_unique_case(False), ["b"]))
@example(case=(*_mostly_miss_case(), None))
@example(case=(*_mostly_miss_case(), ["b"]))
@example(case=(Relation(["a"], [(1,), (2,)]), Relation(["b"], [(3,), (4,)]), None))
@example(case=(Relation(["a"], [(1,)]), Relation(["b"], [(3,), (4,)]), None))
@example(
    case=(Relation(["a"], [(1,)]), Relation(["b", "c"], [(3, 5), (4, 6)]), ["c", "a"])
)
@example(case=(Relation(["a"], []), Relation(["a", "b"], [(1, 2)]), ["b"]))
def test_kernel_equals_per_pair_reference(case):
    left, right, keep = case
    meter, reference_meter = WorkMeter(), WorkMeter()
    attributes, rows = reference_join(left, right, keep, reference_meter)
    if keep is None:
        actual = left.natural_join(right, meter=meter)
    else:
        sizes = []
        actual = left.join_project(right, keep, meter=meter, on_joined=sizes.append)
        assert sizes == [reference_meter.by_category.get("join-out", 0)]
    assert actual.attributes == attributes
    assert actual.tuples == rows
    assert meter.snapshot() == reference_meter.snapshot()


class TestBudget:
    """A budget crossed mid-probe raises on that block's ``join-out`` lump:
    after the block's probe charge, before any of its rows exist."""

    @staticmethod
    def _join(copies=2):
        """``copies`` build rows per key; one copy is a unique build."""
        build = Relation(["j", "a"], [(i % 5, i) for i in range(5 * copies)], name="b")
        probe = Relation(["j", "c"], [(i % 10, i) for i in range(3 * BLOCK)], name="p")
        block_pairs = []
        for start in range(0, len(probe), BLOCK):
            chunk = probe.tuples[start : start + BLOCK]
            block_pairs.append(copies * sum(1 for row in chunk if row[0] < 5))
        return build, probe, block_pairs

    @staticmethod
    def _check_trips(build, probe, block_pairs, keep):
        spent_before = len(build)
        for pairs in block_pairs:
            spent_before += BLOCK  # the block's join-probe charge
            for overshoot in (1, pairs // 2, pairs - 1):
                budget = spent_before + pairs - overshoot
                try:
                    build.join_project(probe, keep, meter=WorkMeter(budget=budget))
                except WorkBudgetExceeded as error:
                    assert error.phase == "join-out"
                    assert error.spent == spent_before + pairs
                    assert 0 < error.spent - error.budget <= pairs
                else:
                    raise AssertionError(f"budget {budget} did not trip")
            spent_before += pairs

    def test_trips_inside_the_crossing_block(self):
        self._check_trips(*self._join(), ["a", "c"])

    def test_unique_build_trips_inside_the_crossing_block(self):
        build, probe, block_pairs = self._join(copies=1)
        self._check_trips(build, probe, block_pairs, ["a", "c"])
        # A build side that adds no column: the matched probe rows themselves.
        self._check_trips(build.project(["j"]), probe, block_pairs, ["c"])

    def test_any_budget_overshoots_by_at_most_one_block(self):
        build, probe, block_pairs = self._join()
        total = WorkMeter()
        build.natural_join(probe, meter=total)
        for budget in range(len(build), total.total, 997):
            try:
                build.natural_join(probe, meter=WorkMeter(budget=budget))
            except WorkBudgetExceeded as error:
                if error.phase == "join-out":
                    assert error.spent - error.budget <= max(block_pairs)
                else:
                    assert error.phase == "join-probe"
                    assert error.spent - error.budget <= BLOCK


class _CountingContext(ExecutionContext):
    def __init__(self):
        super().__init__()
        self.sites = []

    def checkpoint(self, site=""):
        self.sites.append(site)


@pytest.mark.parametrize(
    "left, right",
    [
        _big_unique_case(True),
        _big_unique_case(False),
        _big_bucket_case(),
        _mostly_miss_case(),
        TestBudget._join()[:2],
        (Relation(["a"], [(1,)]), Relation(["b"], [(3,), (4,)])),
        (Relation(["a"], []), Relation(["a", "b"], [(1, 2)])),
    ],
)
def test_one_checkpoint_per_block(left, right):
    """``exec.join`` is polled once per build block, once per probe block
    and once per ≤ 4096-row run of a bucket larger than a block."""
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    shared = [a for a in left.attributes if a in right.attributes]
    table = {}
    for row in build.tuples:
        key = tuple(row[build.attributes.index(a)] for a in shared)
        table[key] = table.get(key, 0) + 1
    runs = 0
    for row in probe.tuples:
        matches = table.get(tuple(row[probe.attributes.index(a)] for a in shared), 0)
        if matches > BLOCK:
            runs += math.ceil(matches / BLOCK)
    expected = math.ceil(len(build) / BLOCK) + math.ceil(len(probe) / BLOCK) + runs
    for join in (
        lambda: left.natural_join(right),
        lambda: left.join_project(right, list(left.joined_attributes(right))[:1]),
    ):
        with resilient(_CountingContext()) as context:
            join()
        assert context.sites == ["exec.join"] * expected

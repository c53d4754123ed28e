"""The hash-join kernel against a per-pair reference.

``Relation._hash_join_rows`` charges a probe block's output as one lump and
emits the block at C level; the reference below is the straightforward
form — one dictionary lookup, one ``join-out`` charge and one emitted row
per (probe row, build match) at a time.  Rows, row order and every
``by_category`` total must agree, and a work budget must trip inside the
probe block that crosses it.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkBudgetExceeded
from repro.metering import WorkMeter
from repro.relational.relation import Relation

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
    joined = list(left.joined_attributes(right))
    keep = draw(
        st.none() | st.permutations(joined).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: order[:n])
        )
    )
    return left, right, keep


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


@settings(max_examples=300, deadline=None)
@given(case=join_case())
@example(case=(*_big_bucket_case(), None))
@example(case=(*_big_bucket_case(), ["b", "a"]))
@example(case=(Relation(["a"], [(1,), (2,)]), Relation(["b"], [(3,), (4,)]), None))
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
    def _join():
        build = Relation(["j", "a"], [(i % 5, i) for i in range(10)], name="b")
        probe = Relation(["j", "c"], [(i % 10, i) for i in range(3 * BLOCK)], name="p")
        block_pairs = []
        for start in range(0, len(probe), BLOCK):
            chunk = probe.tuples[start : start + BLOCK]
            block_pairs.append(2 * sum(1 for row in chunk if row[0] < 5))
        return build, probe, block_pairs

    def test_trips_inside_the_crossing_block(self):
        build, probe, block_pairs = self._join()
        spent_before = len(build)
        for pairs in block_pairs:
            spent_before += BLOCK  # the block's join-probe charge
            for overshoot in (1, pairs // 2, pairs - 1):
                budget = spent_before + pairs - overshoot
                try:
                    build.join_project(
                        probe, ["a", "c"], meter=WorkMeter(budget=budget)
                    )
                except WorkBudgetExceeded as error:
                    assert error.phase == "join-out"
                    assert error.spent == spent_before + pairs
                    assert 0 < error.spent - error.budget <= pairs
                else:
                    raise AssertionError(f"budget {budget} did not trip")
            spent_before += pairs

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

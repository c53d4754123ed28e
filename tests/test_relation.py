"""Tests for the relational algebra."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError, WorkBudgetExceeded
from repro.metering import WorkMeter
from repro.relational import Relation
from repro.relational.relation import _ScanRelation


@pytest.fixture()
def r():
    return Relation(["a", "b"], [(1, "x"), (2, "y"), (2, "z"), (1, "x")], name="r")


@pytest.fixture()
def s():
    return Relation(["b", "c"], [("x", 10), ("y", 20), ("y", 21)], name="s")


class TestBasics:
    def test_schema_validation(self):
        with pytest.raises(SchemaError):
            Relation(["a", "a"], [])
        with pytest.raises(SchemaError):
            Relation(["a"], [(1, 2)])

    def test_index_and_column(self, r):
        assert r.index_of("b") == 1
        assert r.column("a") == [1, 2, 2, 1]
        with pytest.raises(SchemaError):
            r.index_of("zzz")

    def test_same_content_ignores_attribute_order(self):
        r1 = Relation(["a", "b"], [(1, "x")])
        r2 = Relation(["b", "a"], [("x", 1)])
        assert r1.same_content(r2)

    def test_same_content_respects_multiplicity(self):
        r1 = Relation(["a"], [(1,), (1,)])
        r2 = Relation(["a"], [(1,)])
        assert not r1.same_content(r2)

    def test_list_rows_are_stored_as_tuples(self):
        rows = [[1, 2], [5, 2], [7, 9]]
        listed = Relation(["a", "b"], rows)
        assert listed.tuples == [(1, 2), (5, 2), (7, 9)]
        assert all(type(row) is tuple for row in listed.tuples)
        rows[0][0] = 99  # the caller's rows are not aliased
        assert listed.tuples[0] == (1, 2)
        assert listed.distinct().tuples == listed.tuples
        # The list side is the probe side here, and the build side below.
        joined = listed.natural_join(Relation(["b", "c"], [(2, 3), (2, 4)]))
        assert joined.tuples == [(1, 2, 3), (1, 2, 4), (5, 2, 3), (5, 2, 4)]
        joined = listed.natural_join(Relation(["b", "c"], [(2, 3)] * 4))
        assert joined.to_multiset() == {(1, 2, 3): 4, (5, 2, 3): 4}

    def test_copy_is_independent(self, r):
        c = r.copy()
        c.tuples.append((9, "q"))
        assert len(r) == 4


class TestUnary:
    def test_project_dedup(self, r):
        p = r.project(["a"])
        assert sorted(p.tuples) == [(1,), (2,)]

    def test_project_no_dedup(self, r):
        p = r.project(["a"], dedup=False)
        assert len(p) == 4

    def test_project_reorders(self, r):
        p = r.project(["b", "a"], dedup=False)
        assert p.tuples[0] == ("x", 1)

    def test_project_rejects_duplicate_names(self, r):
        """Operator outputs skip ``Relation.__init__``; the check must not."""
        with pytest.raises(SchemaError):
            r.project(["a", "a"])
        with pytest.raises(SchemaError):
            r.join_project(r, ["a", "a"])

    def test_project_keeps_first_occurrence_order(self):
        rel = Relation(["a", "b"], [(2, 0), (1, 0), (2, 1), (1, 1), (3, 0)])
        assert rel.project(["a"]).tuples == [(2,), (1,), (3,)]

    def test_rename(self, r):
        renamed = r.rename({"a": "x"})
        assert renamed.attributes == ("x", "b")
        assert renamed.tuples == r.tuples

    def test_rename_rejects_a_name_collision(self, r):
        with pytest.raises(SchemaError, match="duplicate"):
            r.rename({"a": "b"})

    def test_rename_does_not_share_the_row_list(self, r):
        renamed = r.rename({"a": "x"})
        renamed.tuples.append((9, "q"))
        assert len(r) == 4

    def test_derived_relations_keep_schema_and_name(self, r):
        """Unary operators adopt their rows unchecked: what they hand on
        must still be a well-formed relation."""
        for derived in (
            r.distinct(),
            r.sort_by([("b", True)]),
            r.limit(2),
            r.copy(),
        ):
            assert derived.attributes == r.attributes
            assert derived.name == "r"
            assert derived.index_of("b") == 1
            assert all(len(row) == 2 for row in derived.tuples)
            assert derived.tuples is not r.tuples

    def test_distinct(self, r):
        assert len(r.distinct()) == 3

    def test_sort_multi_key(self):
        rel = Relation(["a", "b"], [(1, 2), (2, 1), (1, 1)])
        out = rel.sort_by([("a", False), ("b", True)])
        assert out.tuples == [(1, 2), (1, 1), (2, 1)]

    def test_limit(self, r):
        assert len(r.limit(2)) == 2


class TestJoin:
    def test_natural_join(self, r, s):
        j = r.natural_join(s)
        assert set(j.attributes) == {"a", "b", "c"}
        # (1,x) appears twice, matching (x,10) → 2 rows;
        # (2,y) matches (y,20) and (y,21) → 2 rows; (2,z) matches nothing.
        assert len(j) == 4

    def test_join_no_shared_is_cross(self):
        r1 = Relation(["a"], [(1,), (2,)])
        r2 = Relation(["b"], [(3,), (4,), (5,)])
        assert len(r1.natural_join(r2)) == 6

    def test_join_empty_side(self, r):
        empty = Relation(["b", "c"], [])
        assert len(r.natural_join(empty)) == 0

    def test_join_work_charged(self, r, s):
        meter = WorkMeter()
        r.natural_join(s, meter=meter)
        assert meter.total > 0
        assert "join-out" in meter.by_category

    def test_join_budget_aborts(self):
        big1 = Relation(["a"], [(i,) for i in range(100)])
        big2 = Relation(["b"], [(i,) for i in range(100)])
        meter = WorkMeter(budget=500)
        with pytest.raises(WorkBudgetExceeded):
            big1.natural_join(big2, meter=meter)  # 10 000-row cross product

    def test_semijoin(self, r, s):
        out = r.semijoin(s)
        assert sorted(set(out.tuples)) == [(1, "x"), (2, "y")]

    def test_semijoin_no_shared_nonempty_other(self, r):
        other = Relation(["zz"], [(1,)])
        assert len(r.semijoin(other)) == len(r)

    def test_semijoin_no_shared_empty_other(self, r):
        other = Relation(["zz"], [])
        assert len(r.semijoin(other)) == 0

    def test_union(self):
        r1 = Relation(["a", "b"], [(1, 2)])
        r2 = Relation(["b", "a"], [(4, 3)])
        u = r1.union(r2)
        assert (3, 4) in u.tuples
        assert len(u) == 2

    def test_union_schema_mismatch(self, r, s):
        with pytest.raises(SchemaError):
            r.union(s)


class TestAggregate:
    def test_group_by_count_sum(self):
        rel = Relation(["g", "v"], [("a", 1), ("a", 2), ("b", 5)])
        out = rel.group_aggregate(
            ["g"], [("count", None, "n"), ("sum", "v", "total")]
        )
        assert sorted(out.tuples) == [("a", 2, 3), ("b", 1, 5)]

    def test_min_max_avg(self):
        rel = Relation(["v"], [(1,), (2,), (3,)])
        out = rel.group_aggregate(
            [], [("min", "v", "lo"), ("max", "v", "hi"), ("avg", "v", "mean")]
        )
        assert out.tuples == [(1, 3, 2.0)]

    def test_global_aggregate_on_empty(self):
        rel = Relation(["v"], [])
        out = rel.group_aggregate([], [("count", None, "n"), ("sum", "v", "s")])
        assert out.tuples == [(0, None)]

    def test_unknown_function_rejected(self):
        rel = Relation(["v"], [(1,)])
        with pytest.raises(SchemaError):
            rel.group_aggregate([], [("median", "v", "m")])

    def test_sum_requires_attribute(self):
        rel = Relation(["v"], [(1,)])
        with pytest.raises(SchemaError):
            rel.group_aggregate([], [("sum", None, "s")])

    def test_float_sum_is_order_independent(self):
        # Different plans feed groups in different row orders; SUM must not
        # depend on it (math.fsum under the hood).
        values = [0.1, 1e16, -1e16, 0.2, 0.3, 7.7, -3.3]
        rel1 = Relation(["v"], [(v,) for v in values])
        rel2 = Relation(["v"], [(v,) for v in reversed(values)])
        s1 = rel1.group_aggregate([], [("sum", "v", "s")]).tuples[0][0]
        s2 = rel2.group_aggregate([], [("sum", "v", "s")]).tuples[0][0]
        assert s1 == s2

    def test_integer_sum_stays_exact_int(self):
        rel = Relation(["v"], [(10**18,), (1,)])
        total = rel.group_aggregate([], [("sum", "v", "s")]).tuples[0][0]
        assert total == 10**18 + 1 and isinstance(total, int)


def _built(relation):
    """Whether ``relation.tuples`` holds rows, read without building them."""
    try:
        Relation.tuples.__get__(relation, type(relation))
    except AttributeError:
        return False
    return True


@st.composite
def _scans(draw, stored_prefix):
    """A stored table whose first column no two rows share, and a scan of it
    over a random filter subset, onto a random column order that holds that
    column, under random names: ``(late, eager)``.  ``late()`` makes a fresh
    scan relation over the stored rows; ``eager`` is its projection, built
    by hand."""
    width = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(draw(st.integers(0, 12)))))
    rows = [
        (key,) + tuple(draw(st.integers(0, 3)) for _ in range(width - 1))
        for key in ids
    ]
    stored = Relation([f"{stored_prefix}{i}" for i in range(width)], rows)
    others = draw(st.permutations(stored.attributes[1:]))
    chosen = others[: draw(st.integers(0, len(others)))]
    columns = draw(st.permutations([stored.attributes[0]] + chosen))
    names = draw(st.permutations("abcde"))[: len(columns)]
    mask = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    kept = stored.tuples if all(mask) else [r for r, m in zip(rows, mask) if m]
    # The first scan of the whole row list learns that ``columns`` are a key.
    assert type(stored.scan(stored.tuples, columns, names, "t")) is Relation
    positions = [stored.index_of(c) for c in columns]
    eager = Relation(
        names, [tuple(row[i] for i in positions) for row in kept], name="t"
    )

    def late():
        relation = stored.scan(kept, columns, names, "t")
        assert type(relation) is _ScanRelation
        return relation

    return late, eager


def _outcome(operation, relation):
    meter = WorkMeter()
    out = operation(relation, meter)
    return out.attributes, out.tuples, out.name, meter.snapshot()


class TestLateScanRelation:
    """A keyed scan's relation over stored rows and a column map equals its
    eager copy under every operator, on either side of a join, as the build
    or the probe side; the kernels the fold calls never build its rows."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_its_eager_copy(self, data):
        late, eager = data.draw(_scans("s"))
        other_late, other_eager = data.draw(_scans("o"))
        other = other_late if data.draw(st.booleans()) else (lambda: other_eager)

        def pick(attributes):
            chosen = data.draw(st.permutations(list(attributes)))
            return chosen[: data.draw(st.integers(0, len(chosen)))]

        projected, dedup = pick(eager.attributes), data.draw(st.booleans())
        keep = pick(eager.joined_attributes(other_eager))
        keep_back = pick(other_eager.joined_attributes(eager))
        kernels = {
            "project": lambda rel, m: rel.project(projected, dedup, m),
            "join_project": lambda rel, m: rel.join_project(other(), keep, m),
            "join_project_back": lambda rel, m: other().join_project(rel, keep_back, m),
            "natural_join": lambda rel, m: rel.natural_join(other(), m),
            "natural_join_back": lambda rel, m: other().natural_join(rel, m),
        }
        readers = {
            "semijoin": lambda rel, m: rel.semijoin(other(), m),
            "semijoin_back": lambda rel, m: other().semijoin(rel, m),
            "union": lambda rel, m: rel.union(eager, m),
            "union_back": lambda rel, m: eager.union(rel, m),
            "copy": lambda rel, m: rel.copy(),
            "rename": lambda rel, m: rel.rename({eager.attributes[0]: "z"}),
        }
        for name, operation in {**kernels, **readers}.items():
            relation = late()
            assert _outcome(operation, relation) == _outcome(operation, eager), name
            if name in kernels:
                assert not _built(relation), name

        relation = late()
        assert len(relation) == len(eager) and not _built(relation)
        assert list(relation) == eager.tuples
        assert relation.tuples is relation.tuples
        pickled = pickle.loads(pickle.dumps(late()))
        for derived in (late().copy(), late().rename({}), pickled):
            assert type(derived) is Relation
            assert derived.attributes == eager.attributes
            assert derived.tuples == eager.tuples

"""Tests for base-scan construction (atom_relations)."""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, QueryError
from repro.engine.scans import (
    apply_residual_filters,
    atom_relations,
    atom_relations_positional,
    atom_relations_sql,
)
from repro.metering import WorkMeter
from repro.query import ast
from repro.query.builder import ConjunctiveQueryBuilder
from repro.query.conjunctive import Constant
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.relational import AttributeType, Database, Relation, RelationSchema
from repro.relational.relation import _ScanRelation
from tests.expression_oracle import compile_filter, conjunction


@pytest.fixture()
def db():
    database = Database("scans")
    database.create_table(
        RelationSchema.of(
            "t", {"a": AttributeType.INT, "b": AttributeType.INT, "c": AttributeType.INT}
        ),
        [(1, 1, 5), (1, 2, 6), (2, 2, 7), (3, 3, 8)],
    )
    database.create_table(
        RelationSchema.of("s", {"b": AttributeType.INT, "d": AttributeType.INT}),
        [(1, 10), (2, 20)],
    )
    return database


class TestSqlMode:
    def test_variables_renamed(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t, s WHERE t.b = s.b"),
            db.schema.as_mapping(),
        )
        rels = atom_relations(tr.query, db, tr)
        t_rel = rels["t"]
        assert set(t_rel.attributes) == set(tr.query.atom("t").terms)

    def test_filters_pushed(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t WHERE t.a = 1"),
            db.schema.as_mapping(),
        )
        rels = atom_relations(tr.query, db, tr)
        assert len(rels["t"]) == 2

    def test_intra_atom_equality_applied(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t WHERE t.a = t.b"),
            db.schema.as_mapping(),
        )
        rels = atom_relations(tr.query, db, tr)
        # rows with a = b: (1,1,5), (2,2,7), (3,3,8) → 3 distinct c values
        assert len(rels["t"]) == 3

    def test_scan_work_charged(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t"), db.schema.as_mapping()
        )
        meter = WorkMeter()
        atom_relations(tr.query, db, tr, meter)
        assert meter.by_category["scan"] == 4

    def test_unpushed_filters_returned_as_residual(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t WHERE t.a = 1"),
            db.schema.as_mapping(),
        )
        rels, residual = atom_relations_sql(
            tr.query, db, tr, push_filters=False
        )
        assert len(rels["t"]) == 4  # unfiltered
        assert len(residual) == 1

    def test_residual_filters_applied_on_result(self, db):
        tr = sql_to_conjunctive(
            parse_sql("SELECT t.c FROM t WHERE t.a = 1"),
            db.schema.as_mapping(),
        )
        rels, residual = atom_relations_sql(
            tr.query, db, tr, push_filters=False
        )
        filtered = apply_residual_filters(rels["t"], tr, residual)
        a_var = tr.variable_for("t", "a")
        idx = filtered.index_of(a_var)
        assert all(row[idx] == 1 for row in filtered.tuples)


class TestPositionalMode:
    def test_basic_binding(self, db):
        q = ConjunctiveQueryBuilder().atom("x", "s", "B", "D").output("D").build()
        rels = atom_relations_positional(q, db)
        assert set(rels["x"].attributes) == {"B", "D"}
        assert len(rels["x"]) == 2

    def test_constant_term_filters(self, db):
        q = (
            ConjunctiveQueryBuilder()
            .atom("x", "s", Constant(1), "D")
            .output("D")
            .build()
        )
        rels = atom_relations_positional(q, db)
        assert rels["x"].tuples == [(10,)]
        assert rels["x"].attributes == ("D",)

    def test_repeated_variable_enforces_equality(self, db):
        q = ConjunctiveQueryBuilder().atom("x", "t", "V", "V", "C").output("C").build()
        rels = atom_relations_positional(q, db)
        # rows with a = b → c ∈ {5, 7, 8}
        assert len(rels["x"]) == 3

    def test_arity_mismatch_rejected(self, db):
        q = ConjunctiveQueryBuilder().atom("x", "s", "A").output("A").build()
        with pytest.raises(QueryError, match="arity"):
            atom_relations_positional(q, db)

    def test_dispatch_without_translation(self, db):
        q = ConjunctiveQueryBuilder().atom("x", "s", "B", "D").output("D").build()
        rels = atom_relations(q, db)  # no translation → positional
        assert "x" in rels


# ---------------------------------------------------------------------------
# The per-row scan the compiled pipeline replaced, kept as the oracle
# ---------------------------------------------------------------------------


def reference_scan(query, database, translation=None, meter=None, push_filters=True):
    """Base scans the way they were built before the one pipeline.

    Every row goes through all of its atom's tests at once, row at a time:
    the oracle's closures for the pushed-down filters, then the constant
    terms and equalities inline, ANDed by the oracle's ``conjunction``;
    then ``project`` and the arity-checking ``Relation`` constructor.  The
    production scan must agree with it in attributes, rows, row order, name
    and charges.  Returns ``(relations, residual filter count)``.
    """
    meter = meter if meter is not None else WorkMeter()
    relations, unpushed = {}, 0
    for atom in query.atoms:
        base = database.table(atom.relation)
        meter.charge(len(base), "scan")
        tests, equalities = [], []
        if translation is None:
            first_position = {}
            for index, (attribute, term) in enumerate(zip(base.attributes, atom.terms)):
                if isinstance(term, Constant):
                    tests.append(lambda row, i=index, c=term.value: row[i] == c)
                elif term in first_position:
                    equalities.append((first_position[term], attribute))
                else:
                    first_position[term] = attribute
            variables = sorted(first_position)
            columns = [first_position[v] for v in variables]
        else:
            alias = atom.name

            def resolve(ref, _base=base, _alias=alias):
                if ref.table is not None and ref.table != _alias:
                    raise ExecutionError(
                        f"filter for alias {_alias!r} references {ref.table!r}"
                    )
                return _base.index_of(ref.column)

            comparisons = translation.atom_filters.get(alias, ())
            if push_filters:
                tests += [compile_filter(c, resolve) for c in comparisons]
            else:
                unpushed += len(comparisons)
            equalities += translation.intra_atom_equalities.get(alias, ())
            variables = list(atom.terms)
            columns = [translation.variable_bindings[v][alias] for v in variables]
        for left, right in equalities:
            li, ri = base.index_of(left), base.index_of(right)
            tests.append(lambda row, i=li, j=ri: row[i] == row[j])
        keep = conjunction(tests)
        filtered = Relation(base.attributes, [row for row in base.tuples if keep(row)])
        dedup = push_filters or translation is None
        projected = filtered.project(columns, dedup=dedup)
        relations[atom.name] = Relation(variables, projected.tuples, name=atom.name)
    return relations, unpushed


def _outcome(run):
    """What a scan did, comparably: its relations and charges, or its error."""
    meter = WorkMeter()
    try:
        relations, residual = run(meter)
    except ExecutionError as exc:
        return "error", type(exc), meter.snapshot()
    described = {
        alias: (rel.attributes, rel.tuples, rel.name)
        for alias, rel in relations.items()
    }
    return "ok", described, residual, meter.snapshot()


INTS = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
STRINGS = st.one_of(
    st.none(), st.sampled_from(["", "ab", "abc", "a\nb", "abc\n", "a%", "a_b", "a.b", "x"])
)
PATTERNS = st.sampled_from(["%", "a_b", "abc", "a%", "%b", "a.b", "a\\%", "_", "", 3])
COLUMNS = {"a": INTS, "b": INTS, "s": STRINGS, "c": st.integers(0, 2)}
OPS = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _ref(draw, column):
    return ast.ColumnRef(draw(st.sampled_from([None, "t"])), column)


@st.composite
def scan_filter(draw):
    """One pushed-down filter: a comparison of columns and literals in
    either order, IN, LIKE with a literal pattern, or arithmetic."""
    shape = draw(
        st.sampled_from(
            ["col-lit", "lit-col", "in", "like", "col-col", "arith", "lit-lit"]
        )
    )
    column = draw(st.sampled_from(["a", "b", "s", "c"]))
    literal = ast.Literal(draw(COLUMNS[column].filter(lambda v: v is not None)))
    if shape == "col-lit":
        return ast.Comparison(draw(OPS), _ref(draw, column), literal)
    if shape == "lit-col":
        return ast.Comparison(draw(OPS), literal, _ref(draw, column))
    if shape == "in":
        values = draw(st.lists(COLUMNS[column], max_size=3))
        return ast.InList(_ref(draw, column), tuple(values))
    if shape == "like":
        return ast.Comparison("like", _ref(draw, column), ast.Literal(draw(PATTERNS)))
    if shape == "col-col":
        other = draw(st.sampled_from(["a", "b", "c"]))
        return ast.Comparison(draw(OPS), _ref(draw, column), _ref(draw, other))
    if shape == "lit-lit":
        return ast.Comparison(draw(OPS), ast.Literal(1), ast.Literal(draw(st.integers(0, 2))))
    number = draw(st.sampled_from(["a", "b", "c"]))
    total = ast.BinaryOp("+", _ref(draw, number), ast.Literal(1))
    return ast.Comparison(draw(OPS), total, ast.Literal(3))


@st.composite
def scan_table(draw):
    rows = draw(
        st.lists(st.tuples(*(COLUMNS[c] for c in ("a", "b", "s", "c"))), max_size=12)
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    database = Database("scans")
    database.create_table(
        RelationSchema.of(
            "t",
            {
                "a": AttributeType.INT,
                "b": AttributeType.INT,
                "s": AttributeType.STRING,
                "c": AttributeType.INT,
            },
        ),
        rows,
    )
    return database


class TestAgainstReferenceScan:
    """Each example scans one ``Database`` twice, filtered then unfiltered
    or the reverse: the first scan of a column set learns whether the
    table's rows rule duplicates out (by a pass over the table, or from
    the unfiltered dedup), the second reads what it learned."""

    @settings(max_examples=300, deadline=None)
    @given(
        database=scan_table(),
        selected=st.lists(
            st.sampled_from(["a", "b", "s", "c"]), min_size=1, max_size=4, unique=True
        ),
        filters=st.lists(scan_filter(), max_size=4),
        equalities=st.lists(st.sampled_from([("a", "b"), ("b", "c"), ("a", "c")]), max_size=2),
        push_filters=st.booleans(),
        filtered_first=st.booleans(),
    )
    def test_sql_mode(
        self, database, selected, filters, equalities, push_filters, filtered_first
    ):
        filtered = dataclasses.replace(
            sql_to_conjunctive(
                parse_sql(f"SELECT {', '.join('t.' + c for c in selected)} FROM t"),
                database.schema.as_mapping(),
            ),
            atom_filters={"t": tuple(filters)},
            intra_atom_equalities={"t": tuple(equalities)},
        )
        unfiltered = dataclasses.replace(
            filtered, atom_filters={}, intra_atom_equalities={}
        )
        for translation in (
            [filtered, unfiltered] if filtered_first else [unfiltered, filtered]
        ):
            query = translation.query

            def production(meter):
                relations, residual = atom_relations_sql(
                    query, database, translation, meter, push_filters
                )
                return relations, len(residual)

            def reference(meter):
                return reference_scan(query, database, translation, meter, push_filters)

            assert _outcome(production) == _outcome(reference)

    @settings(max_examples=200, deadline=None)
    @given(
        database=scan_table(),
        terms=st.tuples(
            *(
                st.one_of(st.sampled_from(["X", "Y", "Z"]), COLUMNS[c].map(Constant))
                for c in ("a", "b", "s", "c")
            )
        ),
        filtered_first=st.booleans(),
    )
    def test_positional_mode(self, database, terms, filtered_first):
        unfiltered = ("A", "B", "S", "C")
        for atom_terms in [terms, unfiltered] if filtered_first else [unfiltered, terms]:
            variables = sorted({t for t in atom_terms if isinstance(t, str)})
            query = (
                ConjunctiveQueryBuilder()
                .atom("x", "t", *atom_terms)
                .output(*variables[:1])
                .build()
            )
            production = _outcome(
                lambda meter: (atom_relations_positional(query, database, meter), 0)
            )
            reference = _outcome(lambda meter: reference_scan(query, database, None, meter))
            assert production == reference


class TestScanErrors:
    def _translation(self, database, comparison):
        translation = sql_to_conjunctive(
            parse_sql("SELECT t.a FROM t"), database.schema.as_mapping()
        )
        return dataclasses.replace(translation, atom_filters={"t": (comparison,)})

    @pytest.mark.parametrize(
        "comparison",
        [
            ast.Comparison("<", ast.ColumnRef("t", "a"), ast.Literal(2)),
            ast.Comparison("<", ast.Literal(2), ast.ColumnRef("t", "a")),
            ast.Comparison("<", ast.ColumnRef("t", "a"), ast.ColumnRef("t", "b")),
        ],
        ids=str,
    )
    def test_type_error_is_the_reference_execution_error(self, comparison):
        database = Database("scans")
        database.create_table(
            RelationSchema.of("t", {"a": AttributeType.INT, "b": AttributeType.INT}),
            [(1, 2), (None, 3), (3, 1)],
        )
        translation = self._translation(database, comparison)
        with pytest.raises(ExecutionError) as expected:
            reference_scan(translation.query, database, translation)
        with pytest.raises(ExecutionError) as raised:
            atom_relations(translation.query, database, translation)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value).startswith(f"type error evaluating {comparison}: '<' not")

    def test_filter_on_another_alias_rejected(self, db):
        comparison = ast.Comparison("=", ast.ColumnRef("s", "b"), ast.Literal(1))
        translation = self._translation(db, comparison)
        with pytest.raises(ExecutionError, match="filter for alias 't' references 's'"):
            atom_relations(translation.query, db, translation)

    def test_like_through_the_scan(self):
        database = Database("scans")
        database.create_table(
            RelationSchema.of("t", {"a": AttributeType.STRING}),
            [("abc\n",), ("a\nb",), ("abc",), ("a.c",), (None,), (7,)],
        )
        for pattern, kept in [
            ("abc", ["abc"]),
            ("%", ["abc\n", "a\nb", "abc", "a.c"]),
            ("a_b", ["a\nb"]),
            ("a.c", ["a.c"]),
            (7, []),
        ]:
            comparison = ast.Comparison("like", ast.ColumnRef(None, "a"), ast.Literal(pattern))
            translation = self._translation(database, comparison)
            rels = atom_relations(translation.query, database, translation)
            assert [row[0] for row in rels["t"].tuples] == kept, pattern


class TestScanWorkGuard:
    """No clock: Python-level calls made by a scan must not grow with the
    table.  The per-row closure path made ≈ 9 calls per row here."""

    @staticmethod
    def _calls(rows):
        database = Database("scans")
        database.create_table(
            RelationSchema.of("t", {"k": AttributeType.INT, "d": AttributeType.DATE}),
            [(i, f"1995-{i % 12 + 1:02d}-{i % 28 + 1:02d}") for i in range(rows)],
        )
        translation = sql_to_conjunctive(
            parse_sql(
                "SELECT t.k FROM t WHERE t.d >= '1995-03-01' AND t.d < '1995-09-15' "
                "AND t.k >= 10 AND t.k < 4000"
            ),
            database.schema.as_mapping(),
        )
        calls = []

        def profiler(_frame, event, _arg):
            if event == "call":
                calls.append(1)

        sys.setprofile(profiler)
        try:
            relations, _ = atom_relations_sql(translation.query, database, translation)
        finally:
            sys.setprofile(None)
        assert 0 < len(relations["t"]) < rows
        return len(calls)

    def test_calls_do_not_scale_with_rows(self):
        small, large = self._calls(500), self._calls(5000)
        assert abs(large - small) < 20, (small, large)


class TestKeyFacts:
    """What a stored relation remembers about its column sets: whether any
    two of its rows agree on them, never rows.  No clock: the dedup's
    ``dict.fromkeys`` calls are counted with ``sys.setprofile``."""

    @staticmethod
    def _database(rows):
        database = Database("scans")
        database.create_table(
            RelationSchema.of("t", {"k": AttributeType.INT, "v": AttributeType.INT}),
            rows,
        )
        return database

    @staticmethod
    def _scan(database, sql):
        """The scanned rows and the number of dedups the scan ran.  ``sql``
        is a query text, or a tuple of terms for a positional atom on t."""
        if isinstance(sql, tuple):
            translation = None
            query = ConjunctiveQueryBuilder().atom("t", "t", *sql).output(sql[0]).build()
        else:
            translation = sql_to_conjunctive(parse_sql(sql), database.schema.as_mapping())
            query = translation.query
        dedups = []

        def profiler(_frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", None) == "fromkeys":
                dedups.append(1)

        sys.setprofile(profiler)
        try:
            relations = atom_relations(query, database, translation)
        finally:
            sys.setprofile(None)
        return relations["t"].tuples, len(dedups)

    KEYED = [(1, 5), (2, 5), (3, 6)]
    BAG = [(1, 5), (2, 5), (1, 5)]

    def test_keyed_table_learns_from_its_unfiltered_dedup(self):
        database = self._database(self.KEYED)
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 1)
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 0)
        assert self._scan(database, "SELECT t.k FROM t WHERE t.k < 3") == ([(1,), (2,)], 0)

    def test_filtered_scan_checks_the_whole_table_once(self):
        database = self._database(self.KEYED)
        assert self._scan(database, "SELECT t.k FROM t WHERE t.k < 3") == ([(1,), (2,)], 0)
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 0)

    def test_bag_table_keeps_deduplicating(self):
        database = self._database(self.BAG)
        for _ in range(2):
            assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,)], 1)
            assert self._scan(database, "SELECT t.k FROM t WHERE t.k < 3") == (
                [(1,), (2,)],
                1,
            )

    def test_column_sets_are_learned_apart(self):
        database = self._database(self.KEYED)
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 1)
        assert self._scan(database, "SELECT t.v FROM t") == ([(5,), (6,)], 1)
        assert self._scan(database, "SELECT t.v FROM t") == ([(5,), (6,)], 1)
        # {k, v} is one column set, whichever order a scan projects it in:
        # t(B, A) projects (v, k), t(A, B) projects (k, v).
        assert self._scan(database, ("B", "A")) == ([(5, 1), (5, 2), (6, 3)], 1)
        assert self._scan(database, ("A", "B")) == (self.KEYED, 0)
        assert self._scan(database, "SELECT t.k, t.v FROM t WHERE t.v > 0") == (
            self.KEYED,
            0,
        )

    def test_replaced_table_deduplicates_again(self):
        database = self._database(self.KEYED)
        self._scan(database, "SELECT t.k FROM t")
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 0)
        database.drop_table("t")
        database.create_table(
            RelationSchema.of("t", {"k": AttributeType.INT, "v": AttributeType.INT}),
            self.KEYED + [(1, 7)],
        )
        assert self._scan(database, "SELECT t.k FROM t") == ([(1,), (2,), (3,)], 1)

    @pytest.mark.parametrize(
        "derive",
        [lambda rel: rel.copy(), lambda rel: rel.rename({"v": "w"})],
        ids=["copy", "rename"],
    )
    def test_derived_relations_do_not_carry_the_fact(self, derive):
        database = self._database(self.KEYED)
        self._scan(database, "SELECT t.k FROM t")
        derived = derive(database.table("t"))
        derived.tuples.append((1, 9))
        assert derived.scan(derived.tuples, ["k"], ["k"]).tuples == [(1,), (2,), (3,)]
        stored = database.table("t")
        assert stored.scan(stored.tuples, ["k"], ["k"]).tuples == [(1,), (2,), (3,)]

    def test_threads_racing_on_unknown_column_sets(self):
        """Eight threads, short switch interval, one fresh database: a race
        on a column set nobody has learned yet only computes its boolean
        twice, so every scan still equals the reference."""
        database = Database("scans")
        tables = {
            "keyed": [(i, i % 3) for i in range(300)],
            "bag": [(i % 50, i % 3) for i in range(300)],
        }
        for name, rows in tables.items():
            database.create_table(
                RelationSchema.of(name, {"k": AttributeType.INT, "v": AttributeType.INT}),
                rows,
            )
        texts = [
            f"SELECT {name}.{columns} FROM {name}{where}"
            for name in ("keyed", "bag")
            for columns in ("k", "v", "k, v")
            for where in ("", f" WHERE {name}.k < 40")
        ]
        translations = [
            sql_to_conjunctive(parse_sql(text), database.schema.as_mapping())
            for text in texts
        ]
        expected = [
            _outcome(lambda meter, t=t: (reference_scan(t.query, database, t, meter)[0], 0))
            for t in translations
        ]
        failures = []

        def worker(offset):
            for step in range(len(translations)):
                index = (offset + step) % len(translations)
                t = translations[index]
                got = _outcome(lambda meter: (atom_relations(t.query, database, t, meter), 0))
                if got != expected[index]:
                    failures.append(texts[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestLateProjection:
    """A scan over a column set no two stored rows share reads the stored
    rows through a column map; its rows are built only for a reader outside
    the kernels.  Bag tables and column sets not yet learned take the eager
    path."""

    @staticmethod
    def _spy(monkeypatch):
        """Count scan relations made, and rows built for one of them."""
        counts = {"late": 0, "built": 0}
        init, lookup = _ScanRelation.__init__, _ScanRelation.__getattr__

        def counting_init(self, *args):
            counts["late"] += 1
            init(self, *args)

        def counting_getattr(self, attribute):
            counts["built"] += attribute == "tuples"
            return lookup(self, attribute)

        monkeypatch.setattr(_ScanRelation, "__init__", counting_init)
        monkeypatch.setattr(_ScanRelation, "__getattr__", counting_getattr)
        return counts

    @pytest.mark.parametrize("name", ["q3", "q5", "q10"])
    def test_qhd_evaluation_over_keyed_tables_copies_no_scan(
        self, tiny_tpch, monkeypatch, name
    ):
        from repro.core.optimizer import HybridOptimizer
        from repro.workloads.tpch_queries import TPCH_QUERIES

        plan = HybridOptimizer(tiny_tpch, max_width=3).optimize(TPCH_QUERIES[name]())
        first = plan.execute()  # the unfiltered scans learn their keys here
        counts = self._spy(monkeypatch)
        again = plan.execute()
        assert counts == {"late": len(plan.translation.query.atoms), "built": 0}
        assert again.relation.attributes == first.relation.attributes
        assert again.relation.tuples == first.relation.tuples
        assert again.work_breakdown == first.work_breakdown

    def test_bag_table_scans_stay_eager(self):
        database = TestKeyFacts._database(TestKeyFacts.BAG)
        for sql in ["SELECT t.k FROM t", "SELECT t.k FROM t WHERE t.k < 3"] * 2:
            translation = sql_to_conjunctive(parse_sql(sql), database.schema.as_mapping())
            scanned = atom_relations(translation.query, database, translation)["t"]
            assert type(scanned) is Relation
            assert scanned.tuples == [(1,), (2,)]

    def test_replaced_table_with_a_duplicate_scans_eagerly_again(self):
        database = TestKeyFacts._database(TestKeyFacts.KEYED)
        translation = sql_to_conjunctive(
            parse_sql("SELECT t.k FROM t"), database.schema.as_mapping()
        )

        def scan():
            return atom_relations(translation.query, database, translation)["t"]

        assert type(scan()) is Relation  # learns that k is a key
        late = scan()
        assert type(late) is _ScanRelation
        database.drop_table("t")
        database.create_table(
            RelationSchema.of("t", {"k": AttributeType.INT, "v": AttributeType.INT}),
            TestKeyFacts.KEYED + [(1, 7)],
        )
        for _ in range(2):
            scanned = scan()
            assert type(scanned) is Relation
            assert scanned.tuples == [(1,), (2,), (3,)]
        # The scan made before the replacement still reads the old rows.
        assert late.tuples == [(1,), (2,), (3,)] and len(late) == 3

    def test_threads_racing_on_the_first_read_of_a_late_scan(self):
        """Eight threads, short switch interval: readers of one late scan's
        ``tuples`` and kernels reading its stored rows all see the eager
        rows, whoever builds them first."""
        database = Database("scans")
        database.create_table(
            RelationSchema.of("t", {"k": AttributeType.INT, "v": AttributeType.INT}),
            [(i, i % 7) for i in range(5000)],
        )
        stored = database.table("t")
        stored.scan(stored.tuples, ["v", "k"], ["b", "a"])  # learns the key
        expected = [(i % 7, i) for i in range(5000)]
        failures = []

        def worker(late, index):
            for _ in range(3):
                got = late.tuples if index % 2 else late.project(["b", "a"]).tuples
                if got != expected:
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                late = stored.scan(stored.tuples, ["v", "k"], ["b", "a"])
                assert type(late) is _ScanRelation
                threads = [
                    threading.Thread(target=worker, args=(late, i)) for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

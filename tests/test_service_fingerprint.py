"""Tests for canonical query-template fingerprints (the plan-cache key)."""

import pytest

from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.service.fingerprint import (
    fingerprint_translation,
    rename_hypertree,
    schema_digest,
)


def fp(db, sql, context=""):
    translation = SimulatedDBMS(db, COMMDB_PROFILE).translate(sql)
    return fingerprint_translation(translation, context=context)


class TestTemplateCollisions:
    """Queries that must share a fingerprint (one plan serves them all)."""

    def test_identical_text(self, chain_db, chain_sql):
        assert fp(chain_db, chain_sql).key == fp(chain_db, chain_sql).key

    def test_alias_renaming(self, chain_db, chain_sql):
        renamed = """
        SELECT w.a0, y.a2 FROM r0 w, r1 x, r2 y, r3 z
        WHERE w.b0 = x.a1 AND x.b1 = y.a2 AND y.b2 = z.a3 AND z.b3 = w.a0
        """
        a, b = fp(chain_db, chain_sql), fp(chain_db, renamed)
        assert a.key == b.key
        assert a.text == b.text

    def test_atom_order_permutation(self, chain_db, chain_sql):
        permuted = """
        SELECT r0.a0, r2.a2 FROM r3, r2, r1, r0
        WHERE r1.b1 = r2.a2 AND r3.b3 = r0.a0 AND r0.b0 = r1.a1 AND r2.b2 = r3.a3
        """
        assert fp(chain_db, chain_sql).key == fp(chain_db, permuted).key

    def test_different_constants_same_shape(self, chain_db):
        base = "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < {}"
        assert fp(chain_db, base.format(3)).key == fp(chain_db, base.format(7)).key


class TestTemplateSeparation:
    """Structurally distinct queries must not share a fingerprint."""

    def test_different_join_structure(self, chain_db, chain_sql):
        acyclic = """
        SELECT r0.a0, r2.a2 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3
        """
        assert fp(chain_db, chain_sql).key != fp(chain_db, acyclic).key

    def test_different_output_variables(self, chain_db, chain_sql):
        other = """
        SELECT r1.a1, r2.a2 FROM r0, r1, r2, r3
        WHERE r0.b0 = r1.a1 AND r1.b1 = r2.a2 AND r2.b2 = r3.a3 AND r3.b3 = r0.a0
        """
        assert fp(chain_db, chain_sql).key != fp(chain_db, other).key

    def test_different_filter_operator(self, chain_db):
        eq = "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 < 3"
        lt = "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1 AND r0.a0 > 3"
        assert fp(chain_db, eq).key != fp(chain_db, lt).key

    def test_different_relation(self, chain_db):
        a = "SELECT r0.a0 FROM r0, r1 WHERE r0.b0 = r1.a1"
        b = "SELECT r0.a0 FROM r0, r2 WHERE r0.b0 = r2.a2"
        assert fp(chain_db, a).key != fp(chain_db, b).key

    def test_context_separates(self, chain_db, chain_sql):
        assert (
            fp(chain_db, chain_sql, context="k=2").key
            != fp(chain_db, chain_sql, context="k=4").key
        )


class TestMaps:
    def test_var_map_round_trip(self, chain_db, chain_sql):
        fingerprint = fp(chain_db, chain_sql)
        inverse = fingerprint.inverse_var_map()
        for original, canonical in fingerprint.var_map.items():
            assert inverse[canonical] == original
        assert len(fingerprint.inverse_atom_map()) == len(fingerprint.atom_map)

    def test_canonical_names_shared_across_renamings(self, chain_db, chain_sql):
        renamed = """
        SELECT w.a0, y.a2 FROM r0 w, r1 x, r2 y, r3 z
        WHERE w.b0 = x.a1 AND x.b1 = y.a2 AND y.b2 = z.a3 AND z.b3 = w.a0
        """
        a, b = fp(chain_db, chain_sql), fp(chain_db, renamed)
        assert set(a.var_map.values()) == set(b.var_map.values())
        assert set(a.atom_map.values()) == set(b.atom_map.values())


class TestRenameHypertree:
    def test_round_trip_preserves_structure(self, chain_db, chain_sql):
        from repro.core.optimizer import HybridOptimizer

        plan = HybridOptimizer(chain_db, max_width=2).optimize(chain_sql)
        fingerprint = fp(chain_db, chain_sql)
        tree = plan.decomposition

        canonical = rename_hypertree(
            tree, fingerprint.var_map, fingerprint.atom_map
        )
        back = rename_hypertree(
            canonical,
            fingerprint.inverse_var_map(),
            fingerprint.inverse_atom_map(),
            hypergraph=plan.translation.query.hypergraph(),
        )
        out = plan.translation.query.output_variables
        assert back.is_q_hypertree_decomposition(out)
        assert back.width == tree.width
        assert back.root.chi == tree.root.chi

    def test_rename_does_not_mutate_source(self, chain_db, chain_sql):
        from repro.core.optimizer import HybridOptimizer

        plan = HybridOptimizer(chain_db, max_width=2).optimize(chain_sql)
        fingerprint = fp(chain_db, chain_sql)
        before = plan.decomposition.render()
        rename_hypertree(
            plan.decomposition, fingerprint.var_map, fingerprint.atom_map
        )
        assert plan.decomposition.render() == before


class TestSchemaDigest:
    def test_stable(self, chain_db):
        # Computed once per schema state: the very same string comes back.
        assert schema_digest(chain_db) is schema_digest(chain_db)

    def test_changes_with_schema(self, chain_db):
        from repro.relational import AttributeType, RelationSchema

        before = schema_digest(chain_db)
        chain_db.create_table(
            RelationSchema.of("extra", {"z": AttributeType.INT}), [(1,)]
        )
        with_extra = schema_digest(chain_db)
        assert with_extra != before
        chain_db.drop_table("r0")
        assert schema_digest(chain_db) not in (before, with_extra)
        chain_db.drop_table("extra")
        chain_db.create_table(
            RelationSchema.of("r0", {"a0": AttributeType.INT, "b0": AttributeType.INT})
        )
        assert schema_digest(chain_db) == before

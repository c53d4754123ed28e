"""One template identity per operation, one degradation ladder.

* the context-free canonicalisation and ``with_context`` compose to the
  fingerprint ``fingerprint_translation(t, context=c)`` always produced;
* through ``QueryService``, a new SQL text costs one parse and one
  canonicalisation and a repeated text costs neither, on every path —
  and the Fig. 6 handler never canonicalises for a bare install;
* the ladder's three rungs (and rung 1 skipped by an open breaker) each
  leave the same label / span tag / counter / insights event wherever
  they are taken — and ``hdqo report``'s replay of the spans rebuilds
  exactly the live insights record; an error while *executing* a plan is
  not a rung, and reaches the caller as itself.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.fingerprint as fingerprint_module
from repro.core.integration import install_structural_optimizer
from repro.engine.dbms import COMMDB_PROFILE, SimulatedDBMS
from repro.errors import InjectedFault, QueryError
from repro.obs.insights.registry import InsightsRegistry
from repro.obs.insights.report import analyze_spans, replay_mismatches
from repro.obs.tracing import tracing
from repro.query.parser import _Parser
from repro.query.translate import sql_to_conjunctive
from repro.relational.schema import DatabaseSchema
from repro.resilience import CircuitBreaker, FaultInjector
from repro.service.fingerprint import fingerprint_translation
from repro.service.server import QueryService

from tests.test_parser_properties import random_query
from tests.test_translate_properties import schema_for

ACYCLIC_SQL = "SELECT r0.a0, r0.b0 FROM r0, r1 WHERE r0.b0 = r1.a1"


# ---------------------------------------------------------------------------
# (a) canonicalise once, key many
# ---------------------------------------------------------------------------

_context = st.builds(
    "schema={};k={};opt={};stats={}".format,
    st.text("0123456789abcdef", min_size=12, max_size=12),
    st.integers(1, 6),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(query=random_query(), context=st.one_of(st.just(""), _context))
def test_with_context_equals_fingerprinting_in_context(query, context):
    try:
        translation = sql_to_conjunctive(query, schema_for(query))
    except QueryError:
        return
    direct = fingerprint_translation(translation, context=context)
    derived = fingerprint_translation(translation).with_context(context)
    assert derived == direct  # key, text, var_map, atom_map
    assert list(derived.var_map.items()) == list(direct.var_map.items())
    assert list(derived.atom_map.items()) == list(direct.atom_map.items())


@settings(max_examples=40, deadline=None)
@given(query=random_query(), k=st.integers(1, 5))
def test_contexts_differing_in_k_share_the_labelling(query, k):
    try:
        translation = sql_to_conjunctive(query, schema_for(query))
    except QueryError:
        return
    canonical = fingerprint_translation(translation)
    at_k = canonical.with_context(f"schema=0;k={k};opt=True;stats=True")
    below = canonical.with_context(f"schema=0;k={k + 1};opt=True;stats=True")
    assert at_k.key != below.key and at_k.text != below.text
    assert at_k.var_map is below.var_map is canonical.var_map
    assert at_k.atom_map is below.atom_map is canonical.atom_map
    assert at_k.text.startswith(canonical.text + "\nctx=")


# ---------------------------------------------------------------------------
# (b) a new text: one parse, one canonicalisation; a repeated text: none
# ---------------------------------------------------------------------------


@pytest.fixture()
def front_end(monkeypatch):
    """Count real parses and colour-refinement runs.

    Counted where the work happens, not on a wrapper that may return a
    cached value, so a memo hit counts zero of each.
    """
    counts = {"parse": 0, "refine": 0}
    parse = _Parser.parse_query
    refine = fingerprint_module._refine

    def counting_parse(self):
        counts["parse"] += 1
        return parse(self)

    def counting_refine(*args):
        counts["refine"] += 1
        return refine(*args)

    monkeypatch.setattr(_Parser, "parse_query", counting_parse)
    monkeypatch.setattr(fingerprint_module, "_refine", counting_refine)
    return counts


def _operations(counts, db, sql, *runs):
    """Run each operation of ``sql`` in turn: the first (a new text) must
    cost one parse and one canonicalisation, every later one neither."""
    translation = SimulatedDBMS(db, COMMDB_PROFILE).translate(sql)
    counts["refine"] = 0
    fingerprint_translation(translation)
    # One canonicalisation: a refinement, plus one per individualization.
    one = counts["refine"]
    assert one >= 1
    results = []
    for i, run in enumerate(runs):
        counts.update(parse=0, refine=0)
        results.append(run())
        expected = (1, one) if i == 0 else (0, 0)
        assert (counts["parse"], counts["refine"]) == expected, (i, counts)
    return results


def _first_call_only(site):
    """An injector whose only firing at ``site`` is the very first call."""
    period = 1000
    return FaultInjector(
        f"{site}:error:{1 / period}",
        seed=(-zlib.crc32(site.encode())) % period,
    )


class TestOneIdentityPerOperation:
    def test_miss_then_hit(self, front_end, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=2, workers=1
        ) as svc:
            run = lambda: svc.execute(chain_sql)  # noqa: E731
            miss, hit = _operations(front_end, chain_db, chain_sql, run, run)
            assert svc.snapshot()["texts"] == {"hits": 1, "misses": 1}
        assert (miss.optimizer, hit.optimizer) == ("q-hd", "q-hd(cached)")

    def test_cached_failure(self, front_end, chain_db, chain_sql):
        # The 4-cycle has no width-1 decomposition; the failure is cached.
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE), max_width=1, workers=1
        ) as svc:
            run = lambda: svc.execute(chain_sql)  # noqa: E731
            results = _operations(front_end, chain_db, chain_sql, run, run)
            assert svc.snapshot()["cache"]["hits"] == 1
        assert [r.optimizer for r in results] == ["builtin-fallback"] * 2

    def test_breaker_open(self, front_end, chain_db, chain_sql):
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            fault_injector=FaultInjector("decompose.search:error:1.0"),
            breaker=CircuitBreaker(failure_threshold=1),
        ) as svc:
            run = lambda: svc.execute(chain_sql)  # noqa: E731
            _operations(front_end, chain_db, chain_sql, run, run)
            assert svc.snapshot()["resilience"]["breaker_skips"] == 1

    def test_insights_on(self, front_end, chain_db, chain_sql):
        insights = InsightsRegistry()
        with QueryService(
            SimulatedDBMS(chain_db, COMMDB_PROFILE),
            max_width=2,
            workers=1,
            insights=insights,
        ) as svc:
            run = lambda: svc.execute(chain_sql)  # noqa: E731
            _operations(front_end, chain_db, chain_sql, run, run)
        (template,) = insights.snapshot()["templates"].values()
        assert template["queries"] == 2

    def test_bare_install_never_canonicalises(
        self, front_end, chain_db, chain_sql, monkeypatch
    ):
        """What Fig. 9's coupling experiment, the TPC-H suite and
        ``hdqo run`` install: nothing keyed on the template."""
        from repro.service.metrics import ServiceMetrics

        digests = []
        digest = DatabaseSchema.digest
        monkeypatch.setattr(
            DatabaseSchema, "digest", lambda self: digests.append(self) or digest(self)
        )
        dbms = SimulatedDBMS(chain_db, COMMDB_PROFILE)
        metrics = ServiceMetrics()
        install_structural_optimizer(dbms, max_width=2, metrics=metrics)
        with tracing() as tracer:
            assert dbms.run_sql(chain_sql).optimizer == "q-hd"
            assert dbms.run_sql(chain_sql).optimizer == "q-hd"
        assert front_end == {"parse": 2, "refine": 0}
        assert digests == []
        assert metrics.plans_built == 2
        for span in tracer.spans("serve.plan") + tracer.spans("serve.execute"):
            assert "template" not in span.tags


# ---------------------------------------------------------------------------
# (c) the ladder, rung by rung
# ---------------------------------------------------------------------------


class _OpenBreaker(CircuitBreaker):
    """A breaker already open for every template, as after repeated
    planning failures."""

    def allow(self, key):
        return False


# service kwargs, faults armed before the query, label (or the typed error),
# serve.plan tags, serve.execute present?, counter deltas, events
RUNGS = [
    pytest.param(
        {},
        None,
        "q-hd",
        {"cache_hit": False},
        True,
        {"planning.built": 1, "planning.fallbacks": 0},
        {},
        id="rung1-search",
    ),
    pytest.param(
        {},
        "plancache.get:error:1.0",
        "builtin-fallback",
        {"cache_hit": False, "plan_error": "InjectedFault",
         "degraded_to": "builtin", "fallback": True},
        True,
        {"planning.built": 1, "planning.fallbacks": 1},
        {"plan_error:InjectedFault": 1, "degraded:builtin": 1},
        id="rung3-builtin",
    ),
    pytest.param(
        {"fallback_to_builtin": False},
        "plancache.get:error:1.0",
        InjectedFault,
        {"cache_hit": False, "plan_error": "InjectedFault"},
        False,
        {"planning.built": 1, "planning.fallbacks": 1},
        {"plan_error:InjectedFault": 1, "error:InjectedFault": 1},
        id="rung4-typed-error",
    ),
    pytest.param(
        {"breaker": _OpenBreaker()},
        None,
        "builtin-fallback",
        {"breaker_open": True, "degraded_to": "builtin", "fallback": True},
        True,
        {"planning.built": 1, "planning.fallbacks": 1,
         "resilience.breaker_skips": 1},
        {"breaker_open": 1, "degraded:builtin": 1},
        id="breaker-open",
    ),
]


@pytest.mark.parametrize(
    "kwargs, faults, label, plan_tags, executes, counters, events",
    RUNGS,
)
def test_ladder_rung_by_rung(
    chain_db, kwargs, faults, label, plan_tags, executes, counters, events
):
    insights = InsightsRegistry()
    with QueryService(
        SimulatedDBMS(chain_db, COMMDB_PROFILE),
        max_width=2,
        workers=1,
        insights=insights,
        **kwargs,
    ) as svc:
        if faults:
            svc.fault_injector = FaultInjector(faults)
        before = svc.snapshot()
        with tracing() as tracer:
            if isinstance(label, str):
                assert svc.execute(ACYCLIC_SQL).optimizer == label
            else:
                with pytest.raises(label):
                    svc.execute(ACYCLIC_SQL)
        after = svc.snapshot()

    (query_span,) = tracer.spans("serve.query")
    (plan_span,) = tracer.spans("serve.plan")
    template = query_span.tags["template"]
    assert plan_span.tags["template"] == template
    assert plan_span.parent_id == query_span.span_id
    assert {
        tag: value for tag, value in plan_span.tags.items()
        if tag in ("cache_hit", "error", "plan_error", "degraded_to",
                   "fallback", "breaker_open")
    } == plan_tags
    # `error` marks the span that raised: only the query span, on rung 3.
    assert query_span.tags.get("error") == (
        None if isinstance(label, str) else label.__name__
    )
    execute_spans = tracer.spans("serve.execute")
    assert len(execute_spans) == (1 if executes else 0)
    for span in execute_spans:
        assert span.parent_id == query_span.span_id
        assert span.tags["template"] == template
        assert "degraded_to" not in span.tags  # taken while planning

    for path, delta in counters.items():
        section, name = path.split(".")
        assert after[section][name] - before[section][name] == delta, path
    seen = insights.snapshot()["templates"][template]
    assert seen["events"] == events
    assert seen["queries"] == 1
    assert seen["errors"] == (0 if isinstance(label, str) else 1)

    assert set(seen["phases"]) == (
        {"decompose", "execute"} if executes else {"decompose"}
    )
    # One rule, two feeders: the span replay rebuilds the live record —
    # queries, errors, cache hits, events, phase set, per-phase latency
    # counts and work histograms.
    replayed = analyze_spans(tracer.to_records())
    assert replay_mismatches(insights.snapshot(), replayed) == []


@pytest.mark.parametrize("workers", [1, 4])
def test_execution_error_is_not_retried(chain_db, workers):
    """The ladder is a planning ladder: a ladder error raised while
    *evaluating* the plan reaches the caller as its typed error."""
    insights = InsightsRegistry()
    with QueryService(
        SimulatedDBMS(chain_db, COMMDB_PROFILE),
        max_width=2,
        workers=workers,
        insights=insights,
    ) as svc:
        svc.fault_injector = injector = _first_call_only("exec.qhd")
        with pytest.raises(InjectedFault):
            svc.submit(ACYCLIC_SQL).result(timeout=60)
        snapshot = svc.snapshot()
    assert injector.snapshot()["fired"] == {"exec.qhd:error": 1}
    assert snapshot["planning"]["fallbacks"] == 0  # not handed to the built-in
    (record,) = insights.snapshot()["templates"].values()
    assert (record["queries"], record["errors"]) == (1, 1)
    assert record["events"] == {"error:InjectedFault": 1}

"""``ServiceConfig``: one description of a serving world, one constructor.

Table-driven: every field of the config must reach the service
``build()`` returns, observably — the factory is the only place the CLI,
the shard workers and the benchmarks get a ``QueryService`` from.
"""

import dataclasses
import pickle

import pytest

from repro.obs.tracing import NULL_TRACER, current_tracer
from repro.service.config import ServiceConfig
from repro.shard import ShardRouter

from tests.conftest import CHAIN_SQL  # a cyclic chain: hypertree width 2


def optimizer_of(service):
    return service.execute(CHAIN_SQL).optimizer


#: (field, value, what to observe on the built service, expected observation)
FIELD_CASES = [
    ("max_width", 1, optimizer_of, "builtin-fallback"),
    ("max_width", 2, optimizer_of, "q-hd"),
    ("workers", 3, lambda s: s.pool.snapshot()["workers"], 3),
    ("queue_capacity", 7, lambda s: s.pool.snapshot()["queue_capacity"], 7),
    ("cache_capacity", 5, lambda s: s.snapshot()["cache"]["capacity"], 5),
    ("work_budget", 9, lambda s: s.execute(CHAIN_SQL).finished, False),
    ("deadline_seconds", 12.5, lambda s: s.deadline_seconds, 12.5),
    ("fault_spec", None, lambda s: s.fault_injector, None),
    (
        "fault_spec",
        "decompose.search:error:1.0",
        optimizer_of,
        "builtin-fallback",
    ),
    ("insights", False, lambda s: s.insights.enabled, False),
    ("insights", True, lambda s: "insights" in s.snapshot(), True),
    # ``trace`` is for the host (CLI scope, shard worker): build() must
    # not install a process-wide tracer behind the caller's back.
    ("trace", True, lambda s: current_tracer() is NULL_TRACER, True),
]


class TestBuild:
    def test_the_config_has_exactly_its_eleven_fields(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "database", "max_width", "workers", "queue_capacity",
            "cache_capacity", "work_budget", "deadline_seconds",
            "fault_spec", "seed", "trace", "insights",
        ]
        covered = {case[0] for case in FIELD_CASES} | {"database", "seed"}
        assert covered == {f.name for f in dataclasses.fields(ServiceConfig)}

    @pytest.mark.parametrize(
        "field, value, observe, expected",
        FIELD_CASES,
        ids=[f"{case[0]}={case[1]}" for case in FIELD_CASES],
    )
    def test_field_reaches_the_service(
        self, chain_db, field, value, observe, expected
    ):
        config = ServiceConfig(database=chain_db, max_width=2, workers=2)
        with dataclasses.replace(config, **{field: value}).build() as service:
            assert observe(service) == expected

    def test_database_is_served_as_given(self, chain_db):
        with ServiceConfig(database=chain_db).build() as service:
            assert service.dbms.database is chain_db

    @pytest.mark.parametrize("shard_id", [0, 3])
    def test_injector_seed_is_seed_plus_shard_id(self, chain_db, shard_id):
        config = ServiceConfig(
            database=chain_db, fault_spec="exec.join:latency:0.5:1", seed=40
        )
        with config.build(shard_id) as service:
            assert service.fault_injector.seed == 40 + shard_id

    def test_builds_are_independent_worlds(self, chain_db):
        config = ServiceConfig(database=chain_db, max_width=2, insights=True)
        with config.build() as first, config.build() as second:
            first.execute(CHAIN_SQL)
            assert first.snapshot()["queries"]["submitted"] == 1
            assert second.snapshot()["queries"]["submitted"] == 0
            assert first.insights is not second.insights


def test_config_round_trips_through_pickle(chain_db):
    config = ServiceConfig(
        database=chain_db, max_width=2, workers=3, queue_capacity=9,
        cache_capacity=11, work_budget=10_000, deadline_seconds=1.5,
        fault_spec="exec.join:latency:0.1:1", seed=5,
        trace=True, insights=True,
    )
    clone = pickle.loads(pickle.dumps(config))
    for field in dataclasses.fields(ServiceConfig):
        if field.name != "database":
            assert getattr(clone, field.name) == getattr(config, field.name)
    assert {
        name: clone.database.table(name).tuples
        for name in clone.database.table_names
    } == {
        name: chain_db.table(name).tuples for name in chain_db.table_names
    }
    with config.build() as ours, clone.build() as theirs:
        assert (
            theirs.execute(CHAIN_SQL).relation.tuples
            == ours.execute(CHAIN_SQL).relation.tuples
        )


def key_tree(value):
    """The nested key set of a snapshot (values dropped; a histogram's
    bucket indices are data, not structure)."""
    if isinstance(value, dict):
        return {
            key: key_tree(inner) if key != "buckets" else None
            for key, inner in value.items()
        }
    return None


def test_one_shard_router_and_build_report_the_same_snapshot_keys(chain_db):
    config = ServiceConfig(
        database=chain_db, max_width=2, workers=2, insights=True
    )
    with config.build() as service:
        service.run_all([CHAIN_SQL, CHAIN_SQL])
        single = service.snapshot()
    router = ShardRouter(config, shards=1)
    try:
        router.run_all([CHAIN_SQL, CHAIN_SQL])
        cluster = router.snapshot()
    finally:
        assert router.drain(grace_seconds=30.0)
    assert key_tree(cluster["shards"][0]) == key_tree(single)
    assert key_tree(cluster["merged"]) == key_tree(single)

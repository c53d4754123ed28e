"""Tests for the thread-safe LRU structural plan cache."""

import threading

import pytest

from repro.analysis.lockwitness import make_lock
from repro.service.fingerprint import QueryFingerprint
from repro.service.plancache import PlanCache


def make_fp(name: str, text: str = "") -> QueryFingerprint:
    return QueryFingerprint(
        key=name, text=text or f"text-{name}", var_map={}, atom_map={}
    )


class FakeTree:
    """Stands in for a Hypertree; the cache never inspects entries."""


class TestBasics:
    def test_miss_then_hit(self):
        cache = PlanCache(capacity=4)
        fp = make_fp("a")
        assert cache.lookup(fp, 0) is None
        tree = FakeTree()
        cache.store(fp, tree, 0)
        entry = cache.lookup(fp, 0)
        assert entry is not None and entry.tree is tree
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_failure_entry(self):
        cache = PlanCache(capacity=4)
        fp = make_fp("a")
        cache.store(fp, None, 0)
        entry = cache.lookup(fp, 0)
        assert entry is not None and entry.failure

    def test_capacity_zero_disables(self):
        cache = PlanCache(capacity=0)
        fp = make_fp("a")
        cache.store(fp, FakeTree(), 0)
        assert cache.lookup(fp, 0) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)


class TestLRU:
    def test_least_recent_evicted(self):
        cache = PlanCache(capacity=2)
        a, b, c = make_fp("a"), make_fp("b"), make_fp("c")
        cache.store(a, FakeTree(), 0)
        cache.store(b, FakeTree(), 0)
        cache.lookup(a, 0)  # refresh a; b is now least recent
        cache.store(c, FakeTree(), 0)
        assert cache.lookup(a, 0) is not None
        assert cache.lookup(b, 0) is None
        assert cache.lookup(c, 0) is not None
        assert cache.stats.evictions_lru == 1


class TestStatsVersion:
    def test_stale_version_invalidated(self):
        cache = PlanCache(capacity=4)
        fp = make_fp("a")
        cache.store(fp, FakeTree(), stats_version=1)
        assert cache.lookup(fp, stats_version=1) is not None
        assert cache.lookup(fp, stats_version=2) is None
        assert cache.stats.invalidations == 1
        # the stale entry is gone, not resurrected by the old version
        assert cache.lookup(fp, stats_version=1) is None


class TestCollisions:
    def test_digest_collision_is_miss_not_eviction(self):
        cache = PlanCache(capacity=4)
        stored = make_fp("samekey", text="template-one")
        other = make_fp("samekey", text="template-two")
        cache.store(stored, FakeTree(), 0)
        assert cache.lookup(other, 0) is None  # never serve the wrong plan
        assert cache.lookup(stored, 0) is not None  # original still live


class TestSnapshotAndConcurrency:
    def test_snapshot_shape(self):
        cache = PlanCache(capacity=4)
        fp = make_fp("a")
        cache.store(fp, FakeTree(), 0)
        cache.lookup(fp, 0)
        snap = cache.snapshot()
        assert snap["size"] == 1 and snap["capacity"] == 4
        assert snap["hits"] == 1 and snap["hit_rate"] == 1.0

    def test_build_lock_single_instance_per_key(self):
        cache = PlanCache(capacity=4)
        first = cache.build_lock("k")
        assert cache.build_lock("k") is first
        assert cache.build_lock("other") is not first
        # a plain Lock, or a WitnessLock under HDQO_LOCKCHECK=1
        assert isinstance(first, type(make_lock("probe")))

    def test_build_lock_dropped_when_last_user_releases(self):
        cache = PlanCache(capacity=4)
        first = cache.build_lock("k")
        cache.build_lock("k")  # a second, coalescing miss
        cache.release_build_lock("k")
        assert cache.build_lock("k") is first  # still in flight
        cache.release_build_lock("k")
        cache.release_build_lock("k")
        assert cache._build_locks == {}
        # a fresh build cycle gets a fresh lock object
        assert cache.build_lock("k") is not first

    def test_concurrent_store_lookup(self):
        cache = PlanCache(capacity=16)
        errors = []

        def worker(tag: int) -> None:
            try:
                for i in range(200):
                    fp = make_fp(f"{tag}-{i % 8}")
                    cache.store(fp, FakeTree(), 0)
                    assert cache.lookup(fp, 0) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16

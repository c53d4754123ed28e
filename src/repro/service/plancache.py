"""A thread-safe structural plan cache: LRU + statistics versioning.

Maps :class:`~repro.service.fingerprint.QueryFingerprint` keys to completed
q-hypertree decompositions stored in *canonical* names (so one entry serves
every isomorphic renaming of a template).  Following the succinct-structure
caching argument (Jiang et al., PAPERS.md), the cache amortizes the
cost-k-decomp search across repeated templates; what remains per query is a
fingerprint (microseconds) plus a rename.

Invalidation is layered:

* **LRU** — bounded capacity, least-recently-used entry evicted on insert;
* **statistics version** — every entry records the
  :attr:`~repro.relational.database.Database.stats_version` it was built
  under; an ANALYZE refresh bumps the version and the next lookup lazily
  evicts the stale entry (counted as an *invalidation*, not a plain miss).

Negative results are cached too: a template for which no width-≤k
decomposition exists would otherwise re-run the full failing search on
every repetition before falling back to the built-in planner.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.lockwitness import make_lock
from repro.core.hypertree import Hypertree
from repro.service.fingerprint import QueryFingerprint


@dataclass
class CachedPlan:
    """One cache entry: a canonical decomposition (or a cached failure).

    Attributes:
        text: the canonical template text; compared on lookup so two
            templates sharing a digest can never serve each other's plans.
        tree: the decomposition in canonical names; ``None`` caches the
            *absence* of a width-≤k decomposition (the fallback path).
        stats_version: statistics version the plan was costed under.
        hits: number of times this entry was served.
    """

    text: str
    tree: Optional[Hypertree]
    stats_version: int
    hits: int = 0

    @property
    def failure(self) -> bool:
        """True when this entry caches ``DecompositionNotFound``."""
        return self.tree is None


@dataclass
class CacheStats:
    """Monotonic cache counters; snapshot for the metrics layer."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions_lru: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "evictions_lru": self.evictions_lru,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class PlanCache:
    """Thread-safe LRU cache of canonical structural plans.

    Args:
        capacity: maximum entries; 0 disables caching entirely (every
            lookup misses, every store is dropped) — the serving layer's
            "cold" baseline.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        self._lock = make_lock("PlanCache._lock")
        self._build_locks: Dict[str, threading.Lock] = {}
        self._build_users: Dict[str, int] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------

    def build_lock(self, key: str) -> threading.Lock:
        """The single-flight lock for one fingerprint key.

        Concurrent misses on the same template grab the same lock, so only
        the first runs cost-k-decomp; the rest re-check the cache after it
        stores (a thundering cold-start herd builds each plan once, not
        once per worker).  Every caller registers as a user of the key's
        lock and must call :meth:`release_build_lock` on every exit — a
        stored plan, a cached failure, a deadline, a budget, a fault or a
        cancellation alike.  The last user out drops the lock, keeping the
        registry bounded by the number of *in-flight* builds.
        """
        with self._lock:
            lock = self._build_locks.get(key)
            if lock is None:
                lock = make_lock("PlanCache.build")
                self._build_locks[key] = lock
            self._build_users[key] = self._build_users.get(key, 0) + 1
            return lock

    def release_build_lock(self, key: str) -> None:
        """One :meth:`build_lock` user is done with ``key``."""
        with self._lock:
            users = self._build_users.pop(key) - 1
            if users:
                self._build_users[key] = users
            else:
                del self._build_locks[key]

    # ------------------------------------------------------------------

    def lookup(
        self, fingerprint: QueryFingerprint, stats_version: int
    ) -> Optional[CachedPlan]:
        """The live entry for a fingerprint, or None (counting a miss).

        An entry costed under an outdated statistics version is evicted
        here, lazily, and counted as an invalidation; a digest collision
        with different canonical text is a plain miss.
        """
        with self._lock:
            entry = self._entries.get(fingerprint.key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.stats_version != stats_version:
                del self._entries[fingerprint.key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            if entry.text != fingerprint.text:
                # sha256-prefix collision between distinct templates: do not
                # serve, do not evict — the stored template is still valid.
                self.stats.misses += 1
                return None
            self._entries.move_to_end(fingerprint.key)
            entry.hits += 1
            self.stats.hits += 1
            return entry

    def store(
        self,
        fingerprint: QueryFingerprint,
        tree: Optional[Hypertree],
        stats_version: int,
    ) -> None:
        """Insert a canonical plan (or ``None`` = cached failure)."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[fingerprint.key] = CachedPlan(
                text=fingerprint.text,
                tree=tree,
                stats_version=stats_version,
            )
            self._entries.move_to_end(fingerprint.key)
            self.stats.inserts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions_lru += 1

    # ------------------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> Dict[str, float]:
        """Counters plus current occupancy (for the metrics layer)."""
        with self._lock:
            data = self.stats.snapshot()
            data["size"] = len(self._entries)
            data["capacity"] = self.capacity
        return data

"""The serving layer: concurrent query execution with a structural plan cache.

Turns the library into a serving stack (the ROADMAP's production north
star):

* :mod:`repro.service.fingerprint` — canonical, parameter-insensitive
  query-template fingerprints (the cache key);
* :mod:`repro.service.plancache` — thread-safe LRU plan cache with
  statistics-version invalidation;
* :mod:`repro.service.executor_pool` — bounded worker pool with
  reject-on-saturation admission control;
* :mod:`repro.service.server` — :class:`QueryService`, the façade;
* :mod:`repro.service.config` — :class:`ServiceConfig`, the one description
  of a serving world and the only constructor of its service;
* :mod:`repro.service.metrics` — latency / work-unit / cache counters.
"""

from repro.service.fingerprint import (
    QueryFingerprint,
    fingerprint_translation,
    rename_hypertree,
    schema_digest,
)
from repro.service.plancache import CachedPlan, CacheStats, PlanCache
from repro.service.executor_pool import ExecutorPool
from repro.service.metrics import (
    ServiceMetrics,
    SupervisorMetrics,
    render_snapshot,
)
from repro.service.server import QueryService
from repro.service.config import ServiceConfig

__all__ = [
    "QueryFingerprint",
    "fingerprint_translation",
    "rename_hypertree",
    "schema_digest",
    "CachedPlan",
    "CacheStats",
    "PlanCache",
    "ExecutorPool",
    "ServiceMetrics",
    "SupervisorMetrics",
    "render_snapshot",
    "QueryService",
    "ServiceConfig",
]

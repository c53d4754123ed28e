"""``repro.obs`` — the observability layer: tracing, metrics, EXPLAIN ANALYZE.

Four dependency-free pieces, usable together or alone:

* :mod:`repro.obs.tracing` — hierarchical spans with wall time, work-unit
  deltas (via :class:`~repro.metering.WorkMeter`), and tags, exported as
  JSONL.  Disabled by default and zero-cost when disabled.
* :mod:`repro.obs.metrics` — the Prometheus rendering of the one metrics
  record, the nested snapshot
  :class:`~repro.service.metrics.ServiceMetrics` and
  :meth:`QueryService.snapshot` produce.
* :mod:`repro.obs.histogram` — the one distribution summary: a
  log-bucketed, exactly mergeable :class:`~repro.obs.histogram.Histogram`.
* :mod:`repro.obs.explain` — EXPLAIN ANALYZE renderers: operator trees
  annotated with actual rows, work units, time, and estimation error.
"""

from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    tracing,
)
from repro.obs.histogram import Histogram
from repro.obs.metrics import render_prometheus
from repro.obs.explain import (
    NodeStats,
    estimation_error,
    render_analyzed_decomposition,
    render_analyzed_plan,
    stats_by_node,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "current_tracer",
    "set_tracer",
    "tracing",
    "Histogram",
    "render_prometheus",
    "NodeStats",
    "stats_by_node",
    "estimation_error",
    "render_analyzed_plan",
    "render_analyzed_decomposition",
]

"""Per-template query insights: one record, two feeders, three views.

The observability layer the drift/adaptation work needs: PR 2's metrics
say *the cluster* got slower; this package says **which query template**
got slower, **in which phase**, and keeps the evidence (slow captures,
mergeable distributions) to prove it.

* :mod:`~repro.obs.insights.registry` — the per-template record and the
  one rule that fills it (:meth:`InsightsRegistry.record_query`), with
  exact cross-shard snapshot merging;
* :mod:`~repro.obs.insights.slowlog` — bounded top-K latency outliers
  per template plus every typed-error/degradation event;
* :mod:`~repro.obs.insights.top` — the live ``hdqo top`` terminal view;
* :mod:`~repro.obs.insights.report` — ``hdqo report``: replays exported
  ``serve.query`` spans into a fresh registry, with bench-baseline
  regression flags.

Everything is **zero work-unit cost when disabled**: pass
:data:`NULL_INSIGHTS` (the default everywhere) and every recording call
is a constant-time no-op.
"""

from repro.obs.insights.registry import (
    NULL_INSIGHTS,
    InsightsRegistry,
    NullInsights,
    merge_insights_snapshots,
    render_insights_prometheus,
)
from repro.obs.insights.report import (
    analyze_spans,
    check_baseline,
    load_span_records,
    render_report,
    replay_mismatches,
)
from repro.obs.insights.slowlog import SlowQueryLog, merge_slow_entries
from repro.obs.insights.top import (
    load_snapshot_file,
    publish_snapshot_file,
    render_top,
    run_top,
)

__all__ = [
    "InsightsRegistry",
    "NullInsights",
    "NULL_INSIGHTS",
    "merge_insights_snapshots",
    "render_insights_prometheus",
    "SlowQueryLog",
    "merge_slow_entries",
    "analyze_spans",
    "check_baseline",
    "load_span_records",
    "render_report",
    "replay_mismatches",
    "render_top",
    "run_top",
    "load_snapshot_file",
    "publish_snapshot_file",
]

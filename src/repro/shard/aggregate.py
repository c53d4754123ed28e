"""Cross-shard aggregation: one merged view of N per-process sinks.

Each shard worker owns its own metrics, plan cache, and tracer — there
is no shared memory, so "cluster observability" is a *merge* problem.
Both sink formats were designed mergeable: the metrics snapshot (the one
metrics record) is a nested dict of counters (pointwise addition) and
summarised histograms (merged through
:func:`repro.obs.histogram.merge_snapshots` and re-summarised, so means,
extrema and quantiles are recomputed, never summed), merged here once and
rendered as text, JSON or Prometheus
(:func:`repro.obs.metrics.render_prometheus`) like a single process's;
span exports are plain records whose ids only need to be made
process-unique.

Span merging namespaces every shard's ids into a disjoint block of
:data:`SPAN_ID_STRIDE` (shard *s* owns ``(s+1)*stride .. (s+2)*stride``),
remaps ``parent_id`` with the same offset — parent/child edges never
cross a process, so the remap keeps every edge intact and can never
*create* a dangling parent — and stamps a ``shard`` tag on every record.
The result passes
:func:`repro.obs.tracing.validate_span_records` with
``require_shard_tag=True``, the merged-trace contract the CLI enforces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.histogram import is_snapshot, merge_snapshots, summarised
from repro.obs.insights.registry import merge_insights_snapshots
from repro.service.metrics import plan_hit_rate

#: Span-id block size per shard; far above any tracer retention cap.
SPAN_ID_STRIDE = 10_000_000


# ---------------------------------------------------------------------------
# Metric snapshots
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _merge_level(dicts: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    seen: List[str] = []
    for source in dicts:
        for key in source:
            if key not in seen:
                seen.append(key)
    for key in seen:
        values = [d[key] for d in dicts if key in d]
        if key == "insights" and all(isinstance(v, Mapping) for v in values):
            # Per-template insight snapshots have their own exact merge
            # (histogram bucket addition, slow-log re-ranking) — the
            # generic pointwise sum would corrupt them.
            merged[key] = merge_insights_snapshots(values)
        elif all(
            isinstance(v, Mapping) and is_snapshot(v.get("hdr"))
            for v in values
        ):
            # A summarised histogram: geometry fields must match, not
            # sum, and every derived field (total, mean, extrema,
            # quantiles) comes from the merged buckets.
            merged[key] = summarised(
                merge_snapshots([v["hdr"] for v in values])
            )
        elif all(isinstance(v, Mapping) for v in values):
            merged[key] = _merge_level(values)
        elif all(_is_number(v) for v in values):
            merged[key] = sum(values)
        else:
            merged[key] = values[0]  # non-numeric metadata: first wins

    # Derived fields must be recomputed, not summed.
    hits, misses = merged.get("hits"), merged.get("misses")
    if _is_number(hits) and _is_number(misses) and "hit_rate" in merged:
        lookups = hits + misses
        merged["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
    for key in list(merged):
        if isinstance(merged[key], float):
            merged[key] = round(merged[key], 6)
    return merged


def merge_metric_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """One cluster-wide snapshot from per-shard service snapshots.

    Counters add; a summarised histogram (``latency_seconds``) is the
    summary of the merged ``hdr`` — byte-identical to the one a single
    process fed the same observations would report; cache ``hit_rate`` is
    recomputed from the merged hit/miss counts.  Capacities (pool workers,
    queue and cache capacity) add too — the merged view describes the
    cluster, not an average shard.
    """
    present = [s for s in snapshots if s]
    if not present:
        return {}
    return _merge_level(present)


# ---------------------------------------------------------------------------
# Span records
# ---------------------------------------------------------------------------


def merge_span_records(
    per_shard: Mapping[int, Sequence[Mapping[str, Any]]],
    stride: int = SPAN_ID_STRIDE,
) -> List[Dict[str, Any]]:
    """Merge per-shard span records into one process-unique timeline.

    Args:
        per_shard: shard id → that worker's exported span records
            (:meth:`repro.obs.tracing.Tracer.to_records` shape).
        stride: id block size per shard; every shard's ids must fit in it.

    Returns:
        New records (inputs are not mutated) with namespaced
        ``span_id``/``parent_id`` and a ``shard`` tag on every span,
        ordered by shard then original completion order.  Span ``start``
        offsets remain relative to each shard's own tracer epoch —
        monotonic clocks do not compare across processes, so no fake
        global timeline is invented.
    """
    merged: List[Dict[str, Any]] = []
    for shard_id in sorted(per_shard):
        offset = (shard_id + 1) * stride
        for record in per_shard[shard_id]:
            span_id = record["span_id"]
            if not 0 <= span_id < stride:
                raise ValueError(
                    f"shard {shard_id} span id {span_id} does not fit the "
                    f"merge stride {stride}"
                )
            remapped = dict(record)
            remapped["span_id"] = offset + span_id
            parent_id = record.get("parent_id")
            remapped["parent_id"] = (
                offset + parent_id if parent_id is not None else None
            )
            tags = dict(record.get("tags") or {})
            tags["shard"] = shard_id
            remapped["tags"] = tags
            merged.append(remapped)
    return merged


def shard_cache_hit_rates(
    shard_snapshots: Mapping[int, Mapping[str, Any]],
) -> Dict[int, Optional[float]]:
    """Per-shard :func:`~repro.service.metrics.plan_hit_rate`, rounded
    to four places (None for idle shards)."""
    rates: Dict[int, Optional[float]] = {}
    for shard_id, snapshot in shard_snapshots.items():
        rate = plan_hit_rate(snapshot.get("planning") or {})
        rates[shard_id] = round(rate, 4) if rate is not None else None
    return rates

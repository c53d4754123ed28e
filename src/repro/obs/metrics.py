"""The Prometheus rendering of a metrics snapshot.

There is one metrics record: the nested snapshot dict
:meth:`~repro.service.server.QueryService.snapshot` returns (and
:meth:`~repro.service.metrics.SupervisorMetrics.snapshot` for a supervised
cluster).  Shard workers ship it, the router merges it once
(:func:`~repro.shard.aggregate.merge_metric_snapshots`), and text, JSON
and Prometheus are three renderings of it — :func:`render_prometheus` is
the last, by one naming rule:

* a numeric leaf is one ``untyped`` sample named by ``hdqo`` and its key
  path joined with ``_`` (``planning.cache_hits`` →
  ``hdqo_planning_cache_hits``; a supervisor's metrics, rendered under a
  ``shard`` key, scrape as ``hdqo_shard_*``);
* a summarised histogram — a mapping whose ``hdr`` is a wire snapshot —
  is one ``histogram`` series through
  :func:`~repro.obs.histogram.prometheus_lines`;
* strings, ``None``, bools, lists, keys that are not identifiers (the
  shard ids of per-shard tables) and the ``insights`` sub-tree (rendered
  with template labels by
  :func:`~repro.obs.insights.registry.render_insights_prometheus`) are
  skipped.

The rendering is a pure function of the snapshot, so a merged cluster
view renders exactly as a single process fed the same observations.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.obs.histogram import is_snapshot, prometheus_lines

__all__ = ["render_prometheus"]


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Prometheus-flavoured exposition of a metrics snapshot."""
    lines: List[str] = []
    _walk(snapshot, "hdqo", lines)
    return "\n".join(lines)


def _walk(node: Mapping[str, Any], name: str, lines: List[str]) -> None:
    keys = [k for k in node if isinstance(k, str) and k.isidentifier()]
    for key in sorted(keys):
        if key == "insights":
            continue
        value, path = node[key], f"{name}_{key}"
        if isinstance(value, Mapping):
            if is_snapshot(value.get("hdr")):
                lines.append(f"# TYPE {path} histogram")
                lines.extend(prometheus_lines(path, value["hdr"]))
            else:
                _walk(value, path, lines)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            lines.append(f"# TYPE {path} untyped")
            lines.append(f"{path} {value}")

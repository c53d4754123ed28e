"""``hdqo top`` — a live terminal view over a merged insights snapshot.

The serving process (``hdqo serve --insights``) periodically publishes
its merged insights snapshot as one JSON file (written atomically:
temp file + rename, so a reader never sees a torn write).  ``hdqo top``
polls that file and renders the classic top-style table — top templates
by p99 latency, work units and error rate, with cache hit rate and
shard saturation in the header — refreshing in place on a TTY
and **degrading to a single text snapshot** when stdout is not a TTY
(CI logs, pipes), exactly once, no escape codes.

Everything here is read-only and wall-clock-free: the poll cadence uses
the injected monotonic clock/sleep pair, and the data is whatever the
serving side last published.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Mapping, Optional, TextIO, Tuple

from repro.obs.histogram import quantile_from_snapshot

__all__ = ["render_top", "run_top", "load_snapshot_file", "publish_snapshot_file"]

_CLEAR = "\x1b[2J\x1b[H"


def publish_snapshot_file(path: str, data: Mapping[str, object]) -> None:
    """Atomically write a snapshot JSON file (temp + rename).

    The writer side of the ``hdqo top`` contract: a poller either sees
    the previous complete snapshot or the new one, never a torn file.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_snapshot_file(path: str) -> Optional[Dict[str, object]]:
    """The published snapshot, or None when absent/torn (poller retries)."""
    try:
        with open(path) as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None


def _template_rows(
    insights: Mapping[str, object],
) -> List[Tuple[str, Dict[str, float]]]:
    templates = insights.get("templates")
    if not isinstance(templates, Mapping):
        return []
    rows: List[Tuple[str, Dict[str, float]]] = []
    for key in sorted(str(k) for k in templates):
        entry = templates[key]
        if not isinstance(entry, Mapping):
            continue
        queries = entry.get("queries")
        errors = entry.get("errors")
        queries = queries if isinstance(queries, int) else 0
        errors = errors if isinstance(errors, int) else 0
        p50 = p99 = 0.0
        work_total = 0.0
        phases = entry.get("phases")
        if isinstance(phases, Mapping):
            for phase_name in ("execute", "decompose"):
                data = phases.get(phase_name)
                if not isinstance(data, Mapping):
                    continue
                latency = data.get("latency")
                if (
                    p99 == 0.0
                    and isinstance(latency, Mapping)
                    and latency.get("count")
                ):
                    p50 = quantile_from_snapshot(latency, 0.50)
                    p99 = quantile_from_snapshot(latency, 0.99)
            for data in phases.values():
                if not isinstance(data, Mapping):
                    continue
                work = data.get("work")
                if isinstance(work, Mapping):
                    total = work.get("total")
                    if isinstance(total, (int, float)):
                        work_total += float(total)
        rows.append(
            (
                key,
                {
                    "queries": float(queries),
                    "errors": float(errors),
                    "error_rate": errors / queries if queries else 0.0,
                    "p50": p50,
                    "p99": p99,
                    "work": work_total,
                },
            )
        )
    rows.sort(key=lambda row: (-row[1]["p99"], -row[1]["work"], row[0]))
    return rows


def _short(template: str, width: int = 24) -> str:
    return template if len(template) <= width else template[: width - 1] + "…"


def render_top(data: Mapping[str, object], limit: int = 12) -> str:
    """One text frame of the top view from a published snapshot dict."""
    service = data.get("service")
    service = service if isinstance(service, Mapping) else {}
    insights = data.get("insights")
    insights = insights if isinstance(insights, Mapping) else {}

    def _fmt(value: object, pattern: str, missing: str = "-") -> str:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return missing
        return pattern.format(value)

    lines = [
        "hdqo top — per-template query insights",
        (
            f"queries={_fmt(service.get('queries'), '{:.0f}')}  "
            f"cache-hit={_fmt(service.get('cache_hit_rate'), '{:.1%}')}  "
            f"saturation={_fmt(service.get('saturation'), '{:.1%}')}  "
            f"shards={_fmt(service.get('shards'), '{:.0f}')}"
        ),
        "",
        f"{'TEMPLATE':<25} {'QUERIES':>8} {'ERR%':>6} "
        f"{'P50(ms)':>9} {'P99(ms)':>9} {'WORK':>12}",
    ]
    rows = _template_rows(insights)
    for key, row in rows[:limit]:
        lines.append(
            f"{_short(key):<25} {row['queries']:>8.0f} "
            f"{row['error_rate']:>6.1%} {row['p50'] * 1000:>9.2f} "
            f"{row['p99'] * 1000:>9.2f} {row['work']:>12.0f}"
        )
    if not rows:
        lines.append("(no template traffic observed yet)")
    elif len(rows) > limit:
        lines.append(f"… and {len(rows) - limit} more template(s)")
    events = _recent_events(insights)
    if events:
        lines.append("")
        lines.append("recent events:")
        lines.extend(f"  {event}" for event in events)
    return "\n".join(lines)


def _recent_events(insights: Mapping[str, object], limit: int = 5) -> List[str]:
    slow_log = insights.get("slow_log")
    if not isinstance(slow_log, Mapping):
        return []
    events = slow_log.get("events")
    if not isinstance(events, list):
        return []
    rendered: List[str] = []
    for event in events[-limit:]:
        if not isinstance(event, Mapping):
            continue
        template = _short(str(event.get("template", "?")), 20)
        rendered.append(f"{event.get('kind', '?')} template={template}")
    return rendered


def run_top(
    path: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
    is_tty: Optional[bool] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> int:
    """Poll a published snapshot file and render the top view.

    On a TTY this refreshes in place every ``interval`` seconds until
    interrupted (or for ``iterations`` frames when given); otherwise it
    renders **one** plain-text frame and returns — the graceful
    degradation the ISSUE requires for piped/CI output.

    Returns 0 when at least one snapshot was rendered, 1 when the file
    never became readable.
    """
    import sys
    import time as _time

    out: TextIO = stream if stream is not None else sys.stdout
    tty = is_tty if is_tty is not None else out.isatty()
    pause = sleep if sleep is not None else _time.sleep
    frames = iterations if iterations is not None else (None if tty else 1)

    rendered_any = False
    frame = 0
    try:
        while True:
            data = load_snapshot_file(path)
            if data is not None:
                rendered_any = True
                prefix = _CLEAR if tty else ""
                out.write(prefix + render_top(data) + "\n")
                out.flush()
            elif not tty:
                out.write(f"hdqo top: no snapshot at {path}\n")
                out.flush()
                return 1
            frame += 1
            if frames is not None and frame >= frames:
                break
            pause(interval)
    except KeyboardInterrupt:
        pass
    return 0 if rendered_any else 1

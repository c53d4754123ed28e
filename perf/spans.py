"""Benchmark-owned spans: recorded around each public call, kept in memory.

A span is ``{"id", "op", "parent", "name", "start", "end", "counts"}``;
spans of one operation share ``op``.  A layer's time is the *self time* of
its spans: the duration minus what child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

Span = Dict[str, object]


class _Open:
    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "Recorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        self._recorder._stack.append(self._span)
        self._span["start"] = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._span["end"] = time.perf_counter()
        self._recorder._stack.pop()
        self._recorder.spans.append(self._span)


class Recorder:
    """Single-threaded span recorder; ``op`` names the current operation."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = ""
        self._stack: List[Span] = []
        self._next_id = 0

    def span(self, name: str) -> _Open:
        self._next_id += 1
        parent = self._stack[-1]["id"] if self._stack else None
        return _Open(
            self,
            {"id": self._next_id, "op": self.op, "parent": parent, "name": name,
             "start": 0.0, "end": 0.0, "counts": {}},
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read(path: Path) -> List[Span]:
    with path.open() as lines:
        return [json.loads(line) for line in lines]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def validate(spans: List[Span]) -> List[str]:
    """Structural problems of a span list (empty when it is sound).

    Every span's parent exists in the same operation; children lie inside
    their parent; per operation tree the self times add up to the root
    span within 1 %, and no self time is negative (siblings overlapping).
    """
    problems: List[str] = []
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        parent_id: Optional[int] = s["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None or parent["op"] != s["op"]:
            problems.append(f"span {s['id']}: parent {parent_id} not in op {s['op']!r}")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} lies outside its parent {parent_id}")
    own = self_times(spans)
    root_of: Dict[int, int] = {}
    for s in spans:  # a child is recorded before its parent, so walk upwards
        node = s
        while node["parent"] is not None and node["parent"] in by_id:
            node = by_id[node["parent"]]
        root_of[s["id"]] = node["id"]
    totals: Dict[int, float] = defaultdict(float)
    for span_id, root in root_of.items():
        totals[root] += own[span_id]
        if own[span_id] < -1e-9:
            problems.append(f"span {span_id}: children overlap (negative self time)")
    for root, total in totals.items():
        duration = by_id[root]["end"] - by_id[root]["start"]
        if abs(total - duration) > 0.01 * max(duration, 1e-9):
            problems.append(f"op tree {root}: self times sum to {total}, span is {duration}")
    return problems

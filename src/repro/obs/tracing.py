"""Hierarchical tracing: spans over the decomposition/execution pipeline.

A :class:`Tracer` produces :class:`Span` records — named, tagged intervals
with wall-clock duration and *work-unit deltas* read from the
:class:`repro.metering.WorkMeter` a span is attached to.  Spans nest: each
thread keeps its own stack of open spans, so the executor pool's workers
trace concurrently without interleaving each other's hierarchies.

Tracing is **zero-cost when disabled**: the process-wide default tracer is
:data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
no-op span — no allocation, no locking, no timestamps, and (crucially) no
work-unit charges, so a run with tracing disabled is bit-identical to one
on a build without tracing at all.

Usage::

    from repro.obs import tracing

    with tracing.tracing() as tracer:           # enable for a block
        run_query(...)                          # instrumented code traces
    tracer.export_jsonl("spans.jsonl")

Instrumented code does::

    tracer = tracing.current_tracer()
    with tracer.span("exec.join", meter=meter) as span:
        ...
        span.tag(rows_out=len(result))
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, TextIO, Union

from repro.analysis.lockwitness import make_lock
from repro.metering import WorkMeter

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "set_tracer",
    "tracing",
    "validate_span_records",
]


def validate_span_records(
    records: List[Dict[str, Any]],
    *,
    dropped: int = 0,
    open_count: int = 0,
    require_shard_tag: bool = False,
) -> List[str]:
    """Consistency problems in exported span records.

    The record-level twin of :meth:`Tracer.validate`, usable where no
    live tracer exists — most importantly on a **merged cross-process
    trace**, where the spans of N shard workers have been re-identified
    into one timeline and every record must carry a ``shard`` tag
    (``require_shard_tag=True``) so a span can be attributed to the
    process that produced it.

    Args:
        records: span records in :meth:`Span.to_record` shape.
        dropped: spans lost to retention caps; when positive, unknown
            parents are not reported (the parent may be a dropped span).
        open_count: spans still open when the export was taken.
        require_shard_tag: demand an integer ``shard`` tag on every span
            (the merged-trace contract of
            :func:`repro.shard.aggregate.merge_span_records`).

    Returns:
        Human-readable problem descriptions; empty when consistent.
    """
    problems: List[str] = []
    if open_count != 0:
        problems.append(
            f"{open_count} span(s) still open (unmatched open/close)"
        )
    known = {record["span_id"] for record in records}
    if len(known) != len(records):
        problems.append(
            f"{len(records) - len(known)} duplicate span id(s) "
            f"(cross-process merge without re-identification?)"
        )
    for record in records:
        span_id, name = record["span_id"], record.get("name")
        if record.get("duration", 0) < 0:
            problems.append(
                f"span {span_id} ({name}) has negative "
                f"duration {record['duration']}"
            )
        if record.get("work_units", 0) < 0:
            problems.append(
                f"span {span_id} ({name}) has negative "
                f"work delta {record['work_units']}"
            )
        parent_id = record.get("parent_id")
        if parent_id is not None and parent_id not in known and dropped == 0:
            problems.append(
                f"span {span_id} ({name}) references "
                f"unknown parent {parent_id}"
            )
        if require_shard_tag:
            shard = (record.get("tags") or {}).get("shard")
            if not isinstance(shard, int) or isinstance(shard, bool):
                problems.append(
                    f"span {span_id} ({name}) lacks an integer "
                    f"'shard' tag"
                )
    return problems


class Span:
    """One traced interval: name, tags, duration, and a work-unit delta.

    Spans are context managers: entering records the start, exiting records
    the end and hands the finished span to its tracer.  ``start`` is the
    offset (seconds) from the tracer's epoch, so spans from different
    threads order on one timeline.

    Attributes:
        span_id: unique id within the tracer.
        parent_id: enclosing span's id in the same thread (None at a root).
        name: dotted span name (see the taxonomy in docs/ARCHITECTURE.md).
        thread: name of the thread that ran the span.
        tags: free-form key → value annotations.
        work_units: meter delta between enter and exit (0 without a meter).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "thread",
        "tags",
        "start",
        "duration",
        "work_units",
        "_tracer",
        "_meter",
        "_work_start",
        "_t0",
        "_pinned_parent",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        meter: Optional[WorkMeter],
        tags: Dict[str, Any],
        pinned_parent: bool = False,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self._pinned_parent = pinned_parent
        self.name = name
        self.thread = threading.current_thread().name
        self.tags = tags
        self.start = 0.0
        self.duration = 0.0
        self.work_units = 0
        self._tracer = tracer
        self._meter = meter
        self._work_start = 0
        self._t0 = 0.0

    # -- annotation ------------------------------------------------------

    def tag(self, **tags: Any) -> "Span":
        """Attach (or overwrite) tag values; returns self for chaining."""
        self.tags.update(tags)
        return self

    # -- context management ---------------------------------------------

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        self.start = self._t0 - self._tracer.epoch
        if self._meter is not None:
            self._work_start = self._meter.total
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0
        if self._meter is not None:
            self.work_units = self._meter.total - self._work_start
        if exc_type is not None:
            self.tags.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)

    # -- export ----------------------------------------------------------

    def to_record(self) -> Dict[str, Any]:
        """The span as a plain JSON-serializable dict (one JSONL line)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "work_units": self.work_units,
            "tags": {k: _jsonable(v) for k, v in self.tags.items()},
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"work={self.work_units}, {self.duration * 1000:.2f}ms)"
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (set, tuple)):
        return list(value)
    return str(value)


class Tracer:
    """Collects finished spans; thread-safe, per-thread span nesting.

    Args:
        max_spans: retention cap — beyond it, new spans are still timed and
            returned (so instrumented code never branches) but dropped from
            the record, and ``dropped`` counts them.  Bounds memory under
            long serving runs.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000):
        self.epoch = time.perf_counter()
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[Span] = []
        self._counter = itertools.count(1)
        self._open = 0
        self._lock = make_lock("Tracer._lock")
        self._local = threading.local()

    # -- span lifecycle --------------------------------------------------

    def span(
        self,
        name: str,
        meter: Optional[WorkMeter] = None,
        parent_id: Optional[int] = None,
        **tags: Any,
    ) -> Span:
        """Create a span; use as a context manager to time it.

        ``parent_id`` pins the span under an explicit parent — the hook for
        cross-thread parenting: a worker thread has an empty span stack of
        its own, so a span it opens would otherwise become a root even
        though it logically belongs under the span that submitted the work.
        """
        with self._lock:
            span_id = next(self._counter)
        if parent_id is not None:
            return Span(self, span_id, parent_id, name, meter, tags, pinned_parent=True)
        return Span(self, span_id, self._current_parent_id(), name, meter, tags)

    def _current_parent_id(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # Re-resolve the parent at enter time: the span may have been
        # created before sibling spans opened/closed on this thread.  A
        # pinned parent (cross-thread parenting) is never overwritten.
        if not span._pinned_parent:
            span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)
        with self._lock:
            self._open += 1

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # mispaired exit: unwind to the span
            while stack and stack.pop() is not span:
                pass
        with self._lock:
            self._open -= 1
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1

    # -- introspection ---------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans (in completion order), optionally filtered by name."""
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    @property
    def open_spans(self) -> int:
        """Number of spans entered but not yet exited."""
        with self._lock:
            return self._open

    def validate(self) -> List[str]:
        """Consistency problems: negative durations, unmatched open/close,
        or a parent reference to a span that was never recorded.

        Delegates to :func:`validate_span_records`, the record-level
        validator also applied to merged cross-process traces.
        """
        with self._lock:
            spans = list(self._spans)
            open_count = self._open
            dropped = self.dropped
        return validate_span_records(
            [span.to_record() for span in spans],
            dropped=dropped,
            open_count=open_count,
        )

    # -- export ----------------------------------------------------------

    def to_records(self) -> List[Dict[str, Any]]:
        return [span.to_record() for span in self.spans()]

    def export_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write one JSON object per span; returns the number written."""
        records = self.to_records()
        if hasattr(target, "write"):
            for record in records:
                target.write(json.dumps(record) + "\n")  # type: ignore[union-attr]
        else:
            with open(target, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        return len(records)

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans())} spans, {self.open_spans} open)"


class _NullSpan:
    """The shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()

    span_id = 0
    parent_id = None
    name = ""
    tags: Dict[str, Any] = {}
    work_units = 0
    duration = 0.0

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """The disabled tracer: every call is a constant-time no-op."""

    enabled = False
    dropped = 0

    def span(
        self,
        name: str,
        meter: Optional[WorkMeter] = None,
        parent_id: Optional[int] = None,
        **tags: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    @property
    def open_spans(self) -> int:
        return 0

    def validate(self) -> List[str]:
        return []

    def to_records(self) -> List[Dict[str, Any]]:
        return []

    def export_jsonl(self, target: Union[str, TextIO]) -> int:
        return 0


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()
"""Shared disabled tracer — the process-wide default."""

_current: Union[Tracer, NullTracer] = NULL_TRACER
_current_lock = make_lock("tracing._current")


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the disabled :data:`NULL_TRACER` by default)."""
    return _current


def set_tracer(tracer: Optional[Union[Tracer, NullTracer]]) -> None:
    """Install ``tracer`` as the process-wide active tracer (None disables)."""
    global _current
    with _current_lock:
        _current = tracer if tracer is not None else NULL_TRACER


@contextlib.contextmanager
def tracing(
    tracer: Optional[Union[Tracer, NullTracer]] = None,
) -> Iterator[Union[Tracer, NullTracer]]:
    """Enable tracing for a block; yields the (new or given) tracer.

    The previous tracer is restored on exit, so blocks nest safely.
    """
    active = tracer if tracer is not None else Tracer()
    previous = current_tracer()
    set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)

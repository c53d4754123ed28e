"""The one distribution summary: a mergeable log-bucketed histogram.

Every latency and work-unit distribution in the system — the service
snapshot's ``latency_seconds``, the supervisor's ``recovery_seconds``, the
per-template insight phases, ``hdqo report``'s reconstruction — is a
:class:`Histogram`.
A value ``v`` lands in bucket ``floor(scale * log2(v))`` —
*deterministically*, a pure function of the value — so two histograms fed
the same observations, in any order, on any number of processes, hold
byte-identical bucket counts.  That determinism is what makes cross-shard
aggregation exact: merging is pointwise addition of sparse bucket counts
and of an integer total, associative and commutative, with no resampling
and no approximation error beyond the fixed relative bucket width
(``2^(1/scale) - 1``, ~9 % at the one scale in use, 8).

Memory is fixed: bucket indexes clamp to ``[lo, hi]`` (values outside the
range count into the boundary buckets), so a histogram never holds more
than ``hi - lo + 2`` counters regardless of traffic volume.

Snapshots are plain dicts of primitives — pickle- and JSON-safe — and are
the wire format: :func:`merge_snapshots`, :func:`quantile_from_snapshot`,
:func:`summary` and :func:`prometheus_lines` operate on the snapshot shape
directly, so shard workers ship snapshots across the process boundary and
the router merges, summarises and renders them without ever rebuilding
live objects.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.lockwitness import make_lock

__all__ = [
    "Histogram",
    "Snapshot",
    "merge_snapshots",
    "quantile_from_snapshot",
    "summary",
    "summarised",
    "is_snapshot",
    "prometheus_lines",
    "bucket_upper_bound",
    "DEFAULT_SCALE",
    "LATENCY_RANGE",
    "WORK_RANGE",
]

Number = Union[int, float]
Snapshot = Dict[str, object]

#: Buckets per doubling of the value; 8 gives ~9 % relative bucket width.
DEFAULT_SCALE = 8

#: Index clamp for seconds-scale latencies: ~1 µs .. ~4000 s at scale 8.
LATENCY_RANGE: Tuple[int, int] = (-160, 96)

#: Index clamp for work-unit counts: 1 .. ~10^12 units at scale 8.
WORK_RANGE: Tuple[int, int] = (0, 320)

#: Index reserved for non-positive observations (log undefined there).
_ZERO_INDEX_OFFSET = 1


def _bucket_index(value: float, scale: int, lo: int, hi: int) -> int:
    """The clamped bucket index of ``value`` — pure and deterministic."""
    if value <= 0.0:
        return lo - _ZERO_INDEX_OFFSET
    index = math.floor(scale * math.log2(value))
    if index < lo:
        return lo
    if index > hi:
        return hi
    return index


def bucket_upper_bound(index: int, scale: int) -> float:
    """The (exclusive) upper value boundary of bucket ``index``."""
    return round(2.0 ** ((index + 1) / scale), 9)


def _wire(
    scale: object,
    lo: object,
    hi: object,
    count: int,
    total_ns: int,
    minimum: Optional[float],
    maximum: Optional[float],
    buckets: Mapping[int, int],
) -> Snapshot:
    """The snapshot dict — the one place the wire format is spelled."""
    return {
        "scale": scale,
        "lo": lo,
        "hi": hi,
        "count": count,
        "total": round(total_ns / 1e9, 9),
        "total_ns": total_ns,
        "min": round(minimum, 9) if minimum is not None else None,
        "max": round(maximum, 9) if maximum is not None else None,
        "buckets": {str(index): buckets[index] for index in sorted(buckets)},
    }


class Histogram:
    """A thread-safe log-bucketed histogram with exact sparse counts.

    Args:
        index_range: ``(lo, hi)`` bucket-index clamp bounding memory.

    Reading goes through :meth:`snapshot` and the snapshot functions of
    this module (:func:`summary`, :func:`quantile_from_snapshot`).
    """

    def __init__(self, index_range: Tuple[int, int] = LATENCY_RANGE) -> None:
        lo, hi = index_range
        if lo > hi:
            raise ValueError(f"invalid index range: {index_range}")
        self.lo = lo
        self.hi = hi
        self._lock = make_lock("Histogram._lock")
        self._buckets: Dict[int, int] = {}
        self._count = 0
        # The running total is an exact fixed-point integer (nano units):
        # integer addition is associative, so a merged total is
        # byte-identical to a single-process run — float accumulation
        # differs in the last ulp depending on summation order.
        self._total_ns = 0
        self._minimum: Optional[float] = None
        self._maximum: Optional[float] = None

    def observe(self, value: Number) -> None:
        v = float(value)
        index = _bucket_index(v, DEFAULT_SCALE, self.lo, self.hi)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._total_ns += round(v * 1e9)
            if self._minimum is None or v < self._minimum:
                self._minimum = v
            if self._maximum is None or v > self._maximum:
                self._maximum = v

    def snapshot(self) -> Snapshot:
        """A picklable/JSON-safe dict; the wire format of this histogram."""
        with self._lock:
            return _wire(
                DEFAULT_SCALE,
                self.lo,
                self.hi,
                self._count,
                self._total_ns,
                self._minimum,
                self._maximum,
                self._buckets,
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Histogram(count={self._count}, "
                f"buckets={len(self._buckets)})"
            )


def is_snapshot(value: object) -> bool:
    """Does ``value`` have the shape of a :meth:`Histogram.snapshot`?"""
    return (
        isinstance(value, Mapping)
        and "buckets" in value
        and "scale" in value
        and "total_ns" in value
    )


def merge_snapshots(snapshots: Sequence[Mapping[str, object]]) -> Snapshot:
    """One merged snapshot from N snapshot dicts (associative, exact).

    The only histogram merge: bucket counts add pointwise, the integer
    totals add, extrema take min/max over inputs that observed something
    (an empty histogram's ``None`` never wins).  Empty dicts are skipped;
    no populated input gives ``{}``.  Raises on geometry mismatches
    (shards run identical code, so a mismatch is a bug).
    """
    present = [s for s in snapshots if s]
    if not present:
        return {}
    first = present[0]
    geometry = (first["scale"], first["lo"], first["hi"])
    buckets: Dict[int, int] = {}
    count = 0
    total_ns = 0
    minima: List[float] = []
    maxima: List[float] = []
    for snap in present:
        if (snap.get("scale"), snap.get("lo"), snap.get("hi")) != geometry:
            raise ValueError(
                f"cannot merge histograms with different geometry: "
                f"scale/lo/hi {geometry} vs "
                f"({snap.get('scale')}, {snap.get('lo')}, {snap.get('hi')})"
            )
        snap_buckets, n, ns = snap["buckets"], snap["count"], snap["total_ns"]
        assert isinstance(snap_buckets, Mapping)
        assert isinstance(n, int) and isinstance(ns, int)
        for key, bucket_count in snap_buckets.items():
            index = int(key)
            buckets[index] = buckets.get(index, 0) + bucket_count
        count += n
        total_ns += ns
        if isinstance(minimum := snap.get("min"), (int, float)):
            minima.append(float(minimum))
        if isinstance(maximum := snap.get("max"), (int, float)):
            maxima.append(float(maximum))
    return _wire(
        *geometry,
        count,
        total_ns,
        min(minima) if minima else None,
        max(maxima) if maxima else None,
        buckets,
    )


def quantile_from_snapshot(snap: Mapping[str, object], q: float) -> float:
    """The q-th quantile of a snapshot dict, within ``[min, max]``.

    Nearest-rank over the bucket counts: the upper boundary of the bucket
    holding the q-th observation (0.0 for the non-positive bucket),
    capped at the observed ``max`` and floored at the observed ``min`` —
    a bucket boundary may overshoot the largest value actually seen, and
    the clamp buckets at ``lo``/``hi`` hold values outside their nominal
    bounds.  Extrema merge exactly, so the result stays merge-stable: a
    merged histogram reports exactly the quantile a single-process run
    would.  Returns 0.0 on an empty snapshot.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = snap.get("count")
    if not isinstance(count, int) or count <= 0:
        return 0.0
    buckets, scale, lo = snap["buckets"], snap["scale"], snap["lo"]
    assert isinstance(buckets, Mapping)
    assert isinstance(scale, int) and isinstance(lo, int)
    rank = max(1, math.ceil(q * count))
    seen = 0
    index = lo
    for index in sorted(int(key) for key in buckets):
        seen += buckets[str(index)]
        if seen >= rank:
            break
    bound = 0.0 if index < lo else bucket_upper_bound(index, scale)
    minimum, maximum = snap.get("min"), snap.get("max")
    if isinstance(minimum, (int, float)) and bound < minimum:
        bound = float(minimum)
    if isinstance(maximum, (int, float)) and bound > maximum:
        bound = float(maximum)
    return bound


def summary(snap: Mapping[str, object]) -> Dict[str, float]:
    """``count/total/mean/min/max/p50/p90/p99`` of a snapshot dict.

    Everything is derived from the snapshot's exact fields (``total`` and
    ``mean`` from the integer ``total_ns``), so the summary of a merged
    snapshot equals the summary a single process would report.  An empty
    snapshot summarises to zeros — never ``inf``, never ``None``.
    """
    count, total_ns = snap.get("count", 0), snap.get("total_ns", 0)
    assert isinstance(count, int) and isinstance(total_ns, int)
    minimum, maximum = snap.get("min"), snap.get("max")
    return {
        "count": count,
        "total": round(total_ns / 1e9, 9),
        "mean": round(total_ns / count / 1e9, 9) if count else 0.0,
        "min": minimum if isinstance(minimum, (int, float)) else 0.0,
        "max": maximum if isinstance(maximum, (int, float)) else 0.0,
        "p50": quantile_from_snapshot(snap, 0.50),
        "p90": quantile_from_snapshot(snap, 0.90),
        "p99": quantile_from_snapshot(snap, 0.99),
    }


def summarised(snap: Mapping[str, object]) -> Dict[str, object]:
    """:func:`summary` plus the wire snapshot under ``"hdr"``.

    The shape nested service snapshots carry (``latency_seconds``,
    ``recovery_seconds``): readers take the summary fields, and a
    cross-shard merge re-summarises the merged ``hdr`` instead of adding
    means and quantiles.
    """
    return {**summary(snap), "hdr": snap}


def prometheus_lines(name: str, snap: Mapping[str, object]) -> List[str]:
    """``_bucket``/``_sum``/``_count`` sample lines for one histogram.

    The ``le`` ladder depends on the geometry alone — ``"0"`` for the
    non-positive bucket, then every ``scale``-th bucket boundary of
    ``[lo, hi)`` (the powers of two), then ``"+Inf"`` — so a series keeps
    one label set across scrapes and shards however sparse its counts.
    Each line cumulates the one bucket array up to its boundary, which
    the bucketing treats as *exclusive*: an observation exactly on a
    boundary counts under the next ``le``.  The ``hi`` clamp bucket has
    no finite bound and appears only under ``le="+Inf"``, which always
    equals ``_count``.
    """
    buckets, scale = snap["buckets"], snap["scale"]
    lo, hi = snap["lo"], snap["hi"]
    assert isinstance(buckets, Mapping) and isinstance(scale, int)
    assert isinstance(lo, int) and isinstance(hi, int)
    counts = sorted((int(key), n) for key, n in buckets.items())
    lines: List[str] = []
    cumulative = position = 0
    for index in (lo - 1, *range(lo + -(lo + 1) % scale, hi, scale)):
        while position < len(counts) and counts[position][0] <= index:
            cumulative += counts[position][1]
            position += 1
        le = "0" if index < lo else repr(bucket_upper_bound(index, scale))
        lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {snap["count"]}')
    lines.append(f"{name}_sum {snap['total']}")
    lines.append(f"{name}_count {snap['count']}")
    return lines

"""A unified metrics registry: counters, gauges, and histograms.

One process-wide :class:`MetricsRegistry` (see :func:`get_registry`)
replaces the ad-hoc lock-guarded counter classes that used to live in each
subsystem: the serving layer's :class:`~repro.service.metrics.ServiceMetrics`
is now a thin façade over instruments registered here, and anything else —
the bench harness, the CLI, user code — can register its own instruments
and read one consistent snapshot.

Design points:

* **thread-safe** — instruments take one lock per update; registration is
  idempotent (asking for an existing name returns the same instrument,
  asking for it with a different type raises).
* **one histogram** — :meth:`MetricsRegistry.histogram` returns the
  log-bucketed, exactly mergeable :class:`~repro.obs.histogram.Histogram`;
  its snapshot is bounded, JSON-safe (``min``/``max`` are ``None`` until
  the first observation, never ``inf``) and is the wire format.
* **one export, one merge, one renderer** — :meth:`MetricsRegistry.export`
  is a picklable kind-tagged dict; :func:`merge_registry_exports` folds N
  of them (one per shard) into one; :func:`render_prometheus` is the
  Prometheus-flavoured exposition of any export — a live registry's, a
  shipped one, or the merged cluster view — so all three scrape alike.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.lockwitness import make_lock
from repro.obs.histogram import Histogram, merge_snapshots, prometheus_lines

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "get_registry",
    "merge_registry_exports",
    "render_prometheus",
]

Number = Union[int, float]
Export = Dict[str, Dict[str, Any]]


class _Instrument:
    """Common base: name, help text, and the update lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = make_lock("Instrument._lock")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Instrument):
    """A monotonically increasing value (ints or floats)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def snapshot(self) -> Number:
        value = self.value
        return round(value, 6) if isinstance(value, float) else value


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, cache sizes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        with self._lock:
            return self._value

    def snapshot(self) -> Number:
        value = self.value
        return round(value, 6) if isinstance(value, float) else value


class MetricsRegistry:
    """A named collection of instruments with one consistent snapshot.

    Registration is idempotent: ``counter("x")`` twice returns the same
    :class:`Counter`; registering an existing name as a different
    instrument type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- registration ----------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, Gauge, lambda: Gauge(name, help))

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._register(name, Histogram, lambda: Histogram(name, help))

    def _register(self, name: str, kind: type, factory) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind.__name__.lower()}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def unregister(self, name: str) -> None:
        """Drop one instrument (tests and scoped registries)."""
        with self._lock:
            self._instruments.pop(name, None)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """``{name: value-or-histogram-dict}`` for every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(instruments.items())
        }

    def export(self) -> Export:
        """A picklable, kind-tagged export: ``{name: {"kind", "help",
        "value"}}``, a histogram's value being its wire snapshot.

        The shape :func:`merge_registry_exports` and
        :func:`render_prometheus` consume; shard workers ship it across
        the process boundary.
        """
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: {
                "kind": instrument.kind,
                "help": instrument.help,
                "value": instrument.snapshot(),
            }
            for name, instrument in sorted(instruments.items())
        }


def merge_registry_exports(
    exports: Sequence[Mapping[str, Mapping[str, Any]]],
) -> Export:
    """One merged registry export from N per-process exports.

    Counters and gauges sum; histograms merge through
    :func:`~repro.obs.histogram.merge_snapshots`.  Kind mismatches across
    exports raise — shards run identical code, so a mismatch is a
    protocol bug, not data.
    """
    kinds: Dict[str, Tuple[str, str]] = {}
    values: Dict[str, List[Any]] = {}
    for export in exports:
        for name, entry in export.items():
            kind, _ = kinds.setdefault(
                name, (entry["kind"], entry.get("help", ""))
            )
            if kind != entry["kind"]:
                raise ValueError(
                    f"metric {name!r} is a {kind} on one shard "
                    f"and a {entry['kind']} on another"
                )
            values.setdefault(name, []).append(entry["value"])
    return {
        name: {
            "kind": kind,
            "help": help,
            "value": (
                merge_snapshots(values[name])
                if kind == Histogram.kind
                else sum(values[name])
            ),
        }
        for name, (kind, help) in kinds.items()
    }


def render_prometheus(export: Mapping[str, Mapping[str, Any]]) -> str:
    """Prometheus-flavoured exposition of a registry export.

    The only renderer: a live registry (``render_prometheus(
    registry.export())``), an export shipped from a worker and the merged
    cluster view all produce their text here.
    """
    lines: List[str] = []
    for name in sorted(export):
        entry = export[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        if entry["kind"] == Histogram.kind:
            lines.extend(prometheus_lines(name, entry["value"]))
        else:
            lines.append(f"{name} {entry['value']}")
    return "\n".join(lines)


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _GLOBAL_REGISTRY

"""Work metering: machine-independent cost accounting.

The paper reports wall-clock seconds on a 2.66 GHz Pentium 4.  To make the
reproduction deterministic and hardware-independent, every physical operator
charges *work units* (one unit ≈ one tuple touched) to a :class:`WorkMeter`.
Benchmarks report both work units and wall-clock time; the figure shapes are
identical.

A meter may carry a budget.  When the budget is exhausted the current
operation raises :class:`repro.errors.WorkBudgetExceeded`; the benchmark
harness records such runs as *did-not-finish*, mirroring the paper's
"CommDB executions do not terminate after more than 10 minutes".
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.analysis.lockwitness import make_lock
from repro.errors import WorkBudgetExceeded


class WorkMeter:
    """Accumulates work units, optionally enforcing a budget.

    Charging is thread-safe: one meter may be shared by operators running on
    several pool workers (the serving layer's concurrent executions), and the
    total is exact — no increments are lost to interleaving.

    Args:
        budget: maximum number of work units allowed; ``None`` = unlimited.

    Attributes:
        total: work units charged so far.
        by_category: per-category breakdown (e.g. ``"join"``, ``"scan"``).
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is not None and budget <= 0:
            raise ValueError("work budget must be positive")
        self.budget = budget
        self.total = 0
        self.by_category: Dict[str, int] = {}
        self._lock = make_lock("WorkMeter._lock")
        self._started = time.perf_counter()

    def charge(self, units: int, category: str = "other") -> None:
        """Charge ``units`` work units; raises on budget exhaustion.

        The budget is checked on *every* charge — operators charge per
        tuple (or per lump, before materializing), so exhaustion raises
        mid-operator with ``phase`` naming the charging category, not at
        the next operator boundary.
        """
        if units < 0:
            raise ValueError("cannot charge negative work")
        with self._lock:
            self.total += units
            if category in self.by_category:
                self.by_category[category] += units
            else:
                self.by_category[category] = units
            total = self.total
        if self.budget is not None and total > self.budget:
            raise WorkBudgetExceeded(self.budget, total, phase=category)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the meter was created."""
        return time.perf_counter() - self._started

    def snapshot(self) -> Dict[str, int]:
        """A copy of the per-category breakdown, plus the total."""
        with self._lock:
            result = dict(self.by_category)
            result["total"] = self.total
        return result

    def __repr__(self) -> str:
        budget = f"/{self.budget}" if self.budget is not None else ""
        return f"WorkMeter({self.total}{budget})"  # hdqo: ignore[interproc-race] — repr runs inside locked sections and _lock is not reentrant; a racy int read only shows a stale total


#: Meter categories charged during planning; everything else is execution.
PLANNING_CATEGORIES = frozenset({"plan"})


def split_phases(by_category: Dict[str, int]) -> Dict[str, int]:
    """Split a per-category work breakdown into pipeline phases.

    The structural pipeline has three phases: *decompose* (the cost-k-decomp
    search, charged to the ``"plan"`` category), *optimize* (Procedure
    Optimize — pure tree surgery that touches no tuples, so always 0 work
    units), and *execute* (every tuple-touching category: scans, joins,
    projections, spill penalties, post-processing).

    Args:
        by_category: a :meth:`WorkMeter.snapshot`-style mapping (a ``total``
            key, if present, is ignored).

    Returns:
        ``{"decompose": …, "optimize": 0, "execute": …}``.
    """
    decompose = 0
    execute = 0
    for category, units in by_category.items():
        if category == "total":
            continue
        if category in PLANNING_CATEGORIES:
            decompose += units
        else:
            execute += units
    return {"decompose": decompose, "optimize": 0, "execute": execute}


class SpillModel:
    """Memory-pressure model: oversized intermediates cost extra work.

    The paper's testbed was a 512 MB laptop with a 5400 rpm disk: join
    intermediates beyond memory spilled and the wall-clock cost became
    superlinear in their size.  A :class:`SpillModel` reproduces that
    effect deterministically — whenever an operator materializes a relation
    larger than ``memory_tuples``, the excess is charged ``spill_factor``
    extra work units per tuple.

    Args:
        memory_tuples: in-memory capacity, in tuples.
        spill_factor: extra work units charged per overflowing tuple.
    """

    def __init__(self, memory_tuples: int, spill_factor: float = 10.0):
        if memory_tuples <= 0:
            raise ValueError("memory_tuples must be positive")
        if spill_factor < 0:
            raise ValueError("spill_factor must be non-negative")
        self.memory_tuples = memory_tuples
        self.spill_factor = spill_factor

    def charge(self, meter: WorkMeter, materialized_size: int) -> None:
        """Charge the spill penalty for one materialized intermediate."""
        excess = materialized_size - self.memory_tuples
        if excess > 0:
            meter.charge(int(excess * self.spill_factor), "spill")

    def __repr__(self) -> str:
        return f"SpillModel({self.memory_tuples} tuples, ×{self.spill_factor})"


class NullMeter(WorkMeter):
    """A meter that records nothing — used when accounting is not needed."""

    def __init__(self) -> None:
        super().__init__(budget=None)

    def charge(self, units: int, category: str = "other") -> None:  # noqa: D102
        pass


NULL_METER = NullMeter()
"""Shared do-nothing meter; safe because it is stateless under charge()."""

"""Per-query memory budgeting via row-width accounting.

The evaluator materializes every intermediate (hash-join outputs, χ
projections, view bodies).  A cartesian blow-up therefore shows up as an
intermediate whose ``rows × attributes`` cell estimate explodes — and the
right failure mode is a deterministic typed error *before* the process
OOMs, not a dead worker.  :class:`MemoryBudget` implements exactly that:
operators report each materialized intermediate and the budget raises
:class:`~repro.errors.MemoryBudgetExceeded` the moment either guard trips:

* ``max_cells`` — estimated live cells (rows × row width), an allocation
  proxy that scales with tuple size the way a real buffer pool would;
* ``max_intermediate_rows`` — a flat cap on any single intermediate,
  the "no operator may produce more than N rows" guard.

Accounting is estimated, not measured, and nothing is ever returned:
``live_cells`` is the cells of every intermediate accounted so far, an
upper bound on what the query holds — exactly the conservative direction
a guard should err in.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.lockwitness import make_lock
from repro.errors import MemoryBudgetExceeded


class MemoryBudget:
    """Thread-safe estimated-memory guard for one query.

    Args:
        max_cells: budget on estimated live cells (None = unbounded).
        max_intermediate_rows: cap on any single materialized intermediate
            (None = unbounded).

    Attributes:
        live_cells: estimated cells accounted so far.
        intermediates: number of materializations accounted.
    """

    def __init__(
        self,
        max_cells: Optional[int] = None,
        max_intermediate_rows: Optional[int] = None,
    ):
        if max_cells is not None and max_cells <= 0:
            raise ValueError("max_cells must be positive")
        if max_intermediate_rows is not None and max_intermediate_rows <= 0:
            raise ValueError("max_intermediate_rows must be positive")
        self.max_cells = max_cells
        self.max_intermediate_rows = max_intermediate_rows
        self.live_cells = 0
        self.intermediates = 0
        self._lock = make_lock("MemoryBudget._lock")

    def account(self, rows: int, row_width: int, site: str = "") -> None:
        """Charge one materialized intermediate; raises on either guard.

        The charge lands *before* the raise, so the estimate stays an upper
        bound even on the abort path.
        """
        cells = rows * max(row_width, 1)
        with self._lock:
            self.intermediates += 1
            self.live_cells += cells
            live = self.live_cells
        if (
            self.max_intermediate_rows is not None
            and rows > self.max_intermediate_rows
        ):
            raise MemoryBudgetExceeded(
                site, rows, row_width, live, max_rows=self.max_intermediate_rows
            )
        if self.max_cells is not None and live > self.max_cells:
            raise MemoryBudgetExceeded(
                site, rows, row_width, live, budget_cells=self.max_cells
            )

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "live_cells": self.live_cells,
                "intermediates": self.intermediates,
            }

    def __repr__(self) -> str:
        cap = self.max_cells if self.max_cells is not None else "∞"
        return f"MemoryBudget({self.live_cells}/{cap} cells)"  # hdqo: ignore[interproc-race] — repr runs inside locked sections and _lock is not reentrant; a racy read only shows a stale count

"""A per-key circuit breaker for the planning path.

A query template whose cost-k-decomp search keeps failing (deadline, work
budget, no width-≤k decomposition after a statistics change, injected
chaos) should not pay the failing search on every repetition — the
degradation ladder already lands it on the built-in planner, so the
breaker's job is to skip straight there for a while.

Standard three-state breaker, keyed by template fingerprint:

* **closed** — searches run normally; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the key is
  skipped entirely (``allow`` returns False) until ``cooldown_seconds``
  pass.
* **half-open** — after the cooldown one trial search is admitted; success
  closes the breaker, failure re-opens it for another cooldown, and a
  trial that ends with no outcome (``release``) leaves the next caller to
  run the trial instead.

The clock is injectable so tests drive the state machine without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict
from repro.analysis.lockwitness import make_lock

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class _KeyState:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0


class CircuitBreaker:
    """Per-key consecutive-failure breaker with cooldown + half-open trial.

    Args:
        failure_threshold: consecutive failures that open the breaker.
        cooldown_seconds: how long an open key is skipped before a trial.
        clock: injectable monotonic clock.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._keys: Dict[str, _KeyState] = {}
        self._lock = make_lock("CircuitBreaker._lock")
        self.skips = 0
        self.trips = 0

    # ------------------------------------------------------------------

    def allow(self, key: str) -> bool:
        """May a search run for ``key`` now?  (False = skip to fallback.)

        An open key whose cooldown has elapsed transitions to half-open and
        admits exactly one trial; concurrent callers during the trial are
        still skipped.
        """
        with self._lock:
            state = self._keys.get(key)
            if state is None or state.state == CLOSED:
                return True
            if state.state == OPEN:
                if self._clock() - state.opened_at >= self.cooldown_seconds:
                    state.state = HALF_OPEN
                    return True
                self.skips += 1
                return False
            # half-open: one trial is already in flight.
            self.skips += 1
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            state = self._keys.get(key)
            if state is not None:
                state.state = CLOSED
                state.consecutive_failures = 0

    def record_failure(self, key: str) -> None:
        with self._lock:
            state = self._keys.setdefault(key, _KeyState())
            state.consecutive_failures += 1
            if (
                state.state == HALF_OPEN
                or state.consecutive_failures >= self.failure_threshold
            ):
                if state.state != OPEN:
                    self.trips += 1
                state.state = OPEN
                state.opened_at = self._clock()

    def release(self, key: str) -> None:
        """The admitted search ended without an outcome (cancelled, a bug).

        A half-open key goes back to open with its cooldown still elapsed,
        so the next ``allow`` admits a fresh trial; a closed key is left
        as it is.
        """
        with self._lock:
            state = self._keys.get(key)
            if state is not None and state.state == HALF_OPEN:
                state.state = OPEN

    # ------------------------------------------------------------------

    def state_of(self, key: str) -> str:
        with self._lock:
            state = self._keys.get(key)
            return state.state if state is not None else CLOSED

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            open_keys = sum(1 for s in self._keys.values() if s.state == OPEN)
            return {
                "keys": len(self._keys),
                "open": open_keys,
                "trips": self.trips,
                "skips": self.skips,
            }

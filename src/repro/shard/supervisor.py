"""``ShardSupervisor``: the cluster's self-healing layer.

The router reads a worker's death as end-of-file on that worker's
response pipe; the supervisor decides *what happens next*.  Without it (the pre-supervision
default) a dead shard's templates error forever.  With it, the cluster
heals through a small per-shard state machine:

::

    up ──death──▶ backoff ──due──▶ starting ──ready──▶ up
                     │                 │
                     │ budget          │ death (startup crash)
                     ▼ exhausted      ─┘ (back to backoff)
                   open ──cooldown──▶ backoff (half-open trial)

* **backoff** — a restart is scheduled after a *seeded, jittered,
  capped* exponential backoff (:func:`repro.resilience.retry.
  jittered_backoff`; the RNG is ``Random(seed, shard_id)``-derived, so a
  supervised cluster restarts on a reproducible schedule).
* **starting** — the worker was respawned with the *same*
  :class:`~repro.service.config.ServiceConfig` and an incremented
  incarnation; because every per-shard source of randomness derives from
  ``config.seed + shard_id``, the replacement rebuilds an identical
  serving world.
* **open** — the per-shard restart budget (``max_restarts`` consecutive
  failures) is spent; a shard-level :class:`~repro.resilience.breaker.
  CircuitBreaker` opens and restarts stop for ``breaker_cooldown_seconds``,
  after which exactly one half-open trial restart is admitted (success
  closes the breaker and refreshes the budget; failure re-opens it).

While a shard is anywhere but *up*, the router fails its templates over
to the next live node on the SHA-256 ring and retries its stranded
in-flight queries under the deadline-aware
:class:`~repro.resilience.retry.RetryPolicy` — see
:meth:`repro.shard.router.ShardRouter._retry_or_fail`.

The supervisor never touches routing state directly: the router owns the
down-set, ring epoch, and route LRU under its own lock, and the two
layers interact through three narrow calls (``on_worker_death``,
``on_worker_ready``, ``router._respawn_shard``) that are never made while
holding the other side's lock — the lock-order witness keeps that
honest under ``HDQO_LOCKCHECK=1``.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import asdict, dataclass, field
from threading import Condition, Thread
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.analysis.lockwitness import make_lock
from repro.obs.insights.slowlog import SlowQueryLog
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RetryPolicy, jittered_backoff
from repro.service.metrics import SupervisorMetrics
from repro.shard.messages import RestartEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.router import ShardRouter

#: Per-shard supervision states (see the module docstring's machine).
UP = "up"
BACKOFF = "backoff"
STARTING = "starting"
OPEN = "open"

#: Slack added to the breaker cooldown before the half-open trial, so the
#: trial's ``allow`` check is guaranteed to land after the cooldown.
_REVIVAL_SLACK = 0.05


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables of the self-healing layer (all deterministic given seed).

    Args:
        max_restarts: consecutive restart budget per shard; one more
            death opens the shard's circuit breaker.
        backoff_base_seconds: first-restart backoff span.
        backoff_cap_seconds: exponential backoff cap.
        breaker_cooldown_seconds: how long an exhausted shard stays
            parked before a half-open trial restart.
        retry: deadline-aware re-dispatch budget for in-flight queries
            stranded by a crash.
        seed: base seed of the per-shard backoff jitter RNGs.
        start_timeout_seconds: how long a respawned worker may take to
            become ready before it counts as dead (enforced by its pipe's
            end-of-file, not a timer — a hung-but-alive worker is out of
            scope here).
    """

    max_restarts: int = 5
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    breaker_cooldown_seconds: float = 30.0
    retry: RetryPolicy = RetryPolicy(max_retries=2)
    seed: int = 0
    start_timeout_seconds: float = 120.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.backoff_base_seconds < 0 or self.backoff_cap_seconds < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be non-negative")


@dataclass
class _ShardState:
    state: str = UP
    consecutive_failures: int = 0
    restarts: int = 0
    down_since: Optional[float] = None
    incarnation: int = 0


class ShardSupervisor:
    """Restart scheduling + budgets for one :class:`ShardRouter`.

    Owns a single daemon thread that sleeps until the next scheduled
    restart is due, a per-shard :class:`CircuitBreaker` (the restart
    budget), :class:`SupervisorMetrics`, and a bounded event log whose
    entries surface in the merged insights slow log.

    Args:
        router: the router to heal (narrow interface: only
            ``_respawn_shard`` is called, never while holding the
            supervisor lock).
        policy: the :class:`SupervisorPolicy`.
        clock: injectable monotonic clock (tests drive the schedule).
    """

    def __init__(
        self,
        router: "ShardRouter",
        policy: SupervisorPolicy,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy
        self.metrics = SupervisorMetrics()
        self._router = router
        self._clock = clock
        # max_restarts consecutive failures are restartable; the breaker
        # opens on failure number max_restarts + 1.
        self.breaker = CircuitBreaker(
            failure_threshold=policy.max_restarts + 1,
            cooldown_seconds=policy.breaker_cooldown_seconds,
            clock=clock,
        )
        self._events = SlowQueryLog(top_k=1, max_events=256)
        self._lock = make_lock("ShardSupervisor._state")
        self._cond = Condition(self._lock)
        self._states: Dict[int, _ShardState] = {
            shard_id: _ShardState() for shard_id in range(router.shards)
        }
        self._rngs: Dict[int, random.Random] = {
            shard_id: random.Random(policy.seed * 1_000_003 + shard_id)
            for shard_id in range(router.shards)
        }
        # (due_at, shard_id, attempt) min-heap of scheduled restarts.
        self._due: List["tuple[float, int, int]"] = []
        self._stopped = False
        self._thread = Thread(
            target=self._run, name="hdqo-shard-supervisor", daemon=True
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop scheduling (idempotent); joins the supervisor thread."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # Router-facing notifications
    # ------------------------------------------------------------------

    def on_worker_death(
        self, shard_id: int, exitcode: Optional[int], inflight_lost: int
    ) -> None:
        """A worker process died (called by the router's collector).

        Records the death, charges the shard's breaker, and schedules a
        restart after a seeded jittered backoff.  If the budget is
        already exhausted the scheduled attempt parks the shard (state
        *open*) and re-schedules itself past the cooldown — the breaker's
        half-open trial.
        """
        key = self._breaker_key(shard_id)
        self.breaker.record_failure(key)
        with self._cond:
            state = self._states[shard_id]
            if state.down_since is None:
                state.down_since = self._clock()
            state.consecutive_failures += 1
            attempt = state.consecutive_failures
            state.state = BACKOFF
            incarnation = state.incarnation
            backoff = jittered_backoff(
                attempt - 1,
                base_seconds=self.policy.backoff_base_seconds,
                cap_seconds=self.policy.backoff_cap_seconds,
                rng=self._rngs[shard_id],
            )
            heapq.heappush(
                self._due, (self._clock() + backoff, shard_id, attempt)
            )
            self._cond.notify_all()
        self.metrics.record_worker_death()
        self._record(
            RestartEvent(
                shard_id=shard_id,
                kind="worker-death",
                incarnation=incarnation,
                attempt=attempt,
                exitcode=exitcode,
                inflight_lost=inflight_lost,
            )
        )
        self._record(
            RestartEvent(
                shard_id=shard_id,
                kind="restart-scheduled",
                incarnation=incarnation,
                attempt=attempt,
                exitcode=exitcode,
                backoff_seconds=backoff,
            )
        )

    def on_worker_ready(self, shard_id: int, incarnation: int) -> None:
        """A restarted worker came up serving (collector, post-failover).

        Closes the breaker (refreshing the restart budget), records the
        down-to-ready recovery time, and returns the shard to *up*.
        """
        with self._cond:
            state = self._states[shard_id]
            down_since = state.down_since
            state.down_since = None
            state.consecutive_failures = 0
            state.state = UP
            state.incarnation = incarnation
        self.breaker.record_success(self._breaker_key(shard_id))
        if down_since is not None:
            self.metrics.observe_recovery(self._clock() - down_since)
        self._record(
            RestartEvent(
                shard_id=shard_id,
                kind="shard-recovered",
                incarnation=incarnation,
            )
        )

    # ------------------------------------------------------------------
    # The supervisor thread
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and (
                    not self._due or self._due[0][0] > self._clock()
                ):
                    if self._due:
                        self._cond.wait(
                            timeout=max(
                                0.0, self._due[0][0] - self._clock()
                            )
                        )
                    else:
                        self._cond.wait()
                if self._stopped:
                    return
                _, shard_id, attempt = heapq.heappop(self._due)
            self._attempt_restart(shard_id, attempt)

    def _attempt_restart(self, shard_id: int, attempt: int) -> None:
        key = self._breaker_key(shard_id)
        if not self.breaker.allow(key):
            # Budget exhausted: park the shard and come back for the
            # half-open trial once the cooldown has elapsed.
            with self._cond:
                state = self._states[shard_id]
                newly_open = state.state != OPEN
                state.state = OPEN
                incarnation = state.incarnation
                heapq.heappush(
                    self._due,
                    (
                        self._clock()
                        + self.policy.breaker_cooldown_seconds
                        + _REVIVAL_SLACK,
                        shard_id,
                        attempt,
                    ),
                )
                self._cond.notify_all()
            if newly_open:
                self.metrics.record_breaker_open()
                self._record(
                    RestartEvent(
                        shard_id=shard_id,
                        kind="breaker-open",
                        incarnation=incarnation,
                        attempt=attempt,
                    )
                )
            return
        with self._cond:
            state = self._states[shard_id]
            state.state = STARTING
            state.restarts += 1
            state.incarnation += 1
            incarnation = state.incarnation
        if not self._router._respawn_shard(shard_id, incarnation):
            return  # router draining/closed; nothing left to heal
        self.metrics.record_restart()
        self._record(
            RestartEvent(
                shard_id=shard_id,
                kind="worker-restarted",
                incarnation=incarnation,
                attempt=attempt,
            )
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _breaker_key(self, shard_id: int) -> str:
        return f"shard:{shard_id}"

    def _record(self, event: RestartEvent) -> None:
        self._events.record_event(
            f"shard:{event.shard_id}", event.kind, asdict(event)
        )

    def events(self) -> List[Dict[str, object]]:
        """The bounded supervision event log (plain dicts, oldest first)."""
        return list(self._events.snapshot()["events"])  # type: ignore[arg-type]

    def snapshot(self) -> Dict[str, object]:
        """Supervision state for the router snapshot's ``supervisor`` key."""
        with self._cond:
            per_shard = {
                shard_id: {
                    "state": state.state,
                    "consecutive_failures": state.consecutive_failures,
                    "restarts": state.restarts,
                    "incarnation": state.incarnation,
                    "breaker": self.breaker.state_of(
                        self._breaker_key(shard_id)
                    ),
                }
                for shard_id, state in sorted(self._states.items())
            }
            scheduled = len(self._due)
        return {
            "policy": {
                "max_restarts": self.policy.max_restarts,
                "backoff_base_seconds": self.policy.backoff_base_seconds,
                "backoff_cap_seconds": self.policy.backoff_cap_seconds,
                "breaker_cooldown_seconds": (
                    self.policy.breaker_cooldown_seconds
                ),
                "max_query_retries": self.policy.retry.max_retries,
            },
            "metrics": self.metrics.snapshot(),
            "per_shard": per_shard,
            "scheduled_restarts": scheduled,
            "events": self.events(),
        }

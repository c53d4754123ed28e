"""``ShardRouter``: N deterministic worker processes behind one front.

The router owns the cluster: it spawns one
:func:`~repro.shard.worker.shard_worker_main` process per shard (spawn
context — a fresh interpreter each, no forked locks), routes every query
by **consistent-hashing its canonical template fingerprint** so
isomorphic queries always land on the same shard (each shard's plan
cache sees only its own slice of the template universe), and multiplexes
responses back to per-request futures through a single collector thread
that reads one response pipe per worker incarnation.

Design points that keep the boundary honest:

* **routing is semantic, not textual** — the routing key is the
  parameter-insensitive canonical fingerprint
  (:func:`repro.service.fingerprint.fingerprint_translation`), so
  ``r_name = 'ASIA'`` and ``r_name = 'EUROPE'`` share a shard (and a
  plan-cache entry).  A small constant-masking LRU in front makes the
  repeat-template hot path a dict lookup instead of a parse;
* **backpressure is bounded per shard** — at most
  ``workers + queue_capacity`` requests are in flight per shard (exactly
  the worker-side admission bound, so a routed request is never bounced
  by the shard's own admission control); further submissions block,
  mirroring :meth:`QueryService.run_all`'s blocking admission;
* **failures are explicit** — worker-side errors come back as typed
  :class:`~repro.errors.ReproError`\\ s (each pickles as itself), and a
  worker that *dies* fails its in-flight futures with
  :class:`~repro.errors.ShardError`: the worker holds the only write end
  of its response pipe, so its death reaches the collector as
  end-of-file (or a frame torn by a SIGKILL) on that pipe, at once and
  whatever the other shards are sending — every submitted query
  resolves, correct-or-explicit-error;
* **the cluster can heal itself** — with a
  :class:`~repro.shard.supervisor.SupervisorPolicy`, a dead worker is
  restarted (seeded jittered backoff, per-shard budget, shard-level
  circuit breaker), its templates fail over to the next live node on the
  ring (every down/up transition bumps a *ring epoch* that invalidates
  the route LRU), and its stranded in-flight queries are retried on the
  failover shard under a deadline-aware retry budget — queries are
  read-only and idempotent, and a retry never outlives the original
  deadline.  Only when the budget, the deadline, or the ring itself is
  exhausted does the caller see a typed
  :class:`~repro.errors.ShardUnavailable`;
* **shutdown is coordinated** — :meth:`drain` broadcasts a
  :class:`~repro.shard.messages.DrainCommand`, workers drain their
  services (cancelling queued queries, aborting in-flight ones at
  cooperative checkpoints) and ship back final snapshots + span records,
  stragglers past the grace period are killed hard, and every still
  dangling future is failed explicitly.
"""

from __future__ import annotations

import multiprocessing
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, replace
from multiprocessing import connection
from threading import Event, Thread
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Union

from repro.analysis.lockwitness import make_lock
from repro.engine.dbms import DBMSResult
from repro.errors import (
    ServiceClosed,
    ShardError,
    ShardUnavailable,
)
from repro.query.parser import parse_sql
from repro.query.translate import sql_to_conjunctive
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.service.config import ServiceConfig
from repro.service.fingerprint import fingerprint_translation
from repro.service.server import gather_batch
from repro.shard.aggregate import (
    merge_metric_snapshots,
    merge_span_records,
    shard_cache_hit_rates,
)
from repro.shard.hashring import ConsistentHashRing
from repro.shard.messages import (
    DrainCommand,
    QueryAnswer,
    QueryFailure,
    QueryRequest,
    SnapshotCommand,
    SnapshotReply,
    WorkerExit,
    WorkerReady,
)
from repro.shard.supervisor import ShardSupervisor, SupervisorPolicy
from repro.shard.worker import shard_worker_main

#: Matches SQL constants (quoted strings, numbers) for the routing LRU key.
_CONSTANT_RE = re.compile(r"'(?:[^']|'')*'|\b\d+(?:\.\d+)?\b")

#: Routing-LRU capacity: distinct masked query texts remembered.
_ROUTE_CACHE_CAPACITY = 4096

#: Collector wait timeout (also the startup poll): how soon a respawned
#: worker's pipe joins the wait set and a stop request is noticed.  Death
#: needs no timeout.
_POLL_SECONDS = 0.2

#: Extra seconds past the drain grace before stragglers are killed hard.
_DRAIN_MARGIN = 15.0


class _ShardHandle:
    """Router-side state of one worker process (one incarnation).

    ``responses`` is the read end of the incarnation's own response pipe;
    the worker holds the only write end.  ``gone`` is set once that pipe
    hit end-of-file — after the :class:`WorkerExit`, if one came.
    """

    def __init__(
        self,
        shard_id: int,
        process,
        request_queue,
        responses: connection.Connection,
        incarnation: int,
    ) -> None:
        self.shard_id = shard_id
        self.process = process
        self.request_queue = request_queue
        self.responses = responses
        self.incarnation = incarnation
        self.ready = Event()
        self.gone = Event()
        self.exit: Optional[WorkerExit] = None
        self.pid: Optional[int] = None
        self.dead = False  # gone without a WorkerExit: crashed
        self.inflight = 0
        self.peak_inflight = 0
        self.dispatched = 0


@dataclass
class _PendingEntry:
    """One in-flight request and everything needed to retry it.

    ``budget`` anchors the *original* deadline on the router's monotonic
    clock and counts the dispatches; every re-dispatch of one query
    shares it, so a retry gets only what remains, never a fresh budget.
    ``sql``/``work_budget`` are kept so a crash-stranded query can be
    re-dispatched verbatim to a failover shard.
    """

    future: "Future[DBMSResult]"
    shard_id: int
    sql: str
    work_budget: Optional[int]
    budget: RetryBudget


class ShardRouter:
    """Multi-process sharded serving with template-affine routing.

    Args:
        config: the per-shard serving configuration (database, width
            bound, pool sizes, budgets, fault spec, tracing).  Every
            shard gets the same config; per-shard variation (the fault
            injector seed) derives from the shard id.
        shards: worker process count (``>= 1``).
        replicas: virtual nodes per shard on the hash ring.
        max_inflight_per_shard: in-flight bound per shard before
            :meth:`submit` blocks; defaults to the shard's own admission
            bound ``workers + queue_capacity``.
        start_timeout: seconds to wait for every worker's ready message.
        supervise: a :class:`~repro.shard.supervisor.SupervisorPolicy`
            enables self-healing (worker restarts, ring failover,
            deadline-aware query retries); None keeps the historical
            fail-fast behavior byte-for-byte.
    """

    def __init__(
        self,
        config: ServiceConfig,
        shards: int,
        *,
        replicas: int = 128,
        max_inflight_per_shard: Optional[int] = None,
        start_timeout: float = 120.0,
        supervise: Optional[SupervisorPolicy] = None,
    ):
        if shards < 1:
            raise ValueError("a shard cluster needs at least one shard")
        self.config = config
        self.shards = shards
        self.ring = ConsistentHashRing(shards, replicas=replicas)
        self.max_inflight_per_shard = (
            max_inflight_per_shard
            if max_inflight_per_shard is not None
            else config.workers + config.queue_capacity
        )
        self._schema = config.database.schema.as_mapping()

        # All mutable router state below is guarded by one lock; the
        # condition lets blocked submitters wait for per-shard room.
        self._lock = make_lock("ShardRouter._state")
        self._room = threading.Condition(self._lock)
        self._pending: Dict[int, _PendingEntry] = {}
        self._snapshot_waiters: Dict[int, Future] = {}
        self._next_request_id = 0
        self._routes: "OrderedDict[str, int]" = OrderedDict()
        self._route_hits = 0
        self._route_misses = 0
        self._closed = False
        # Drain coordination: the gate serializes drain() callers (the
        # first runs the shutdown, late callers block then reuse its
        # verdict), and it is always acquired *before* the state lock.
        self._drain_gate = make_lock("ShardRouter._drain")
        self._drained: Optional[bool] = None

        # Supervision / failover state (all guarded by the state lock).
        self._down: Set[int] = set()  # shards currently without a live worker
        self._ring_epoch = 0  # bumps on every down/up transition
        self._supervision_active = False  # True once startup completed
        self._dead_handles: List[_ShardHandle] = []  # replaced incarnations
        self.supervisor: Optional[ShardSupervisor] = (
            ShardSupervisor(self, supervise) if supervise is not None else None
        )
        # An unsupervised router never re-dispatches.
        self._retry = supervise.retry if supervise else RetryPolicy(max_retries=0)

        self._handles: List[_ShardHandle] = [
            self._spawn(shard_id, 0) for shard_id in range(shards)
        ]
        self._stop_collector = Event()
        self._collector = Thread(
            target=self._collect, name="hdqo-shard-collector", daemon=True
        )
        self._collector.start()
        self._await_ready(start_timeout)
        if self.supervisor is not None:
            # Only now: startup failures above stay fail-fast (the
            # cluster never served), and a death the collector sees from
            # here on — a not-ready restart included — is supervised.
            self._supervision_active = True
            self.supervisor.start()

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def _spawn(self, shard_id: int, incarnation: int) -> _ShardHandle:
        """Start one worker incarnation with its own queue and pipe."""
        ctx = multiprocessing.get_context("spawn")
        request_queue = ctx.Queue()
        responses, sink = ctx.Pipe(duplex=False)
        suffix = f"-r{incarnation}" if incarnation else ""
        process = ctx.Process(
            target=shard_worker_main,
            args=(shard_id, self.config, request_queue, sink),
            kwargs={"incarnation": incarnation},
            name=f"hdqo-shard-{shard_id}{suffix}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # From here the worker holds the only write end: end-of-file
            # on ``responses`` means this incarnation is gone.
            sink.close()
        return _ShardHandle(
            shard_id, process, request_queue, responses, incarnation
        )

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            while not handle.ready.wait(timeout=_POLL_SECONDS):
                if handle.gone.is_set():
                    self._abort_start()
                    raise ShardError(
                        f"shard {handle.shard_id} worker died during "
                        f"startup (exit code "
                        f"{handle.process.exitcode})",
                        shard_id=handle.shard_id,
                    )
                if time.monotonic() > deadline:
                    self._abort_start()
                    raise ShardError(
                        f"shard {handle.shard_id} worker did not become "
                        f"ready within {timeout:.0f}s",
                        shard_id=handle.shard_id,
                    )

    def _abort_start(self) -> None:
        self._stop_collector.set()
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            if handle.process.is_alive():
                handle.process.kill()
        with self._room:
            self._closed = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, sql: str) -> int:
        """The shard owning ``sql``'s canonical template (deterministic).

        Repeated shapes hit a constant-masked LRU; misses pay one parse +
        translate + canonical fingerprint, exactly the template identity
        the shard-side plan cache keys on — which is what guarantees that
        isomorphic queries share both a shard *and* a cache entry.

        Under supervision, shards whose worker is down are excluded: the
        ring walk continues clockwise to the next live node (failover).
        The LRU only ever holds routes computed against the *current*
        ring epoch — every down/up transition clears it — so a recovered
        shard gets its template slice back on the next miss.

        Raises:
            ShardUnavailable: every shard is down (supervised only).
        """
        masked = _CONSTANT_RE.sub("?", sql)
        with self._room:
            shard_id = self._routes.get(masked)
            if shard_id is not None:
                self._routes.move_to_end(masked)
                self._route_hits += 1
                return shard_id
            self._route_misses += 1
            exclude: FrozenSet[int] = frozenset(self._down)
        translation = sql_to_conjunctive(parse_sql(sql), self._schema)
        fingerprint = fingerprint_translation(translation)
        try:
            shard_id = self.ring.shard_for(fingerprint.key, exclude)
        except LookupError:
            raise ShardUnavailable(
                "no live shard on the ring (every worker is down)",
                reason="no-live-shard",
            ) from None
        with self._room:
            # Cache only if the down-set is still the one we routed
            # against; a concurrent epoch bump means this route may be
            # stale, and stale entries must never enter the LRU.
            if frozenset(self._down) == exclude:
                self._routes[masked] = shard_id
                if len(self._routes) > _ROUTE_CACHE_CAPACITY:
                    self._routes.popitem(last=False)
        return shard_id

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------

    def submit(
        self,
        sql: str,
        work_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> "Future[DBMSResult]":
        """Route and dispatch one query; block while its shard is full.

        The returned future resolves to the shard's
        :class:`~repro.engine.dbms.DBMSResult` or raises the worker-side
        typed error; a dead worker fails it with
        :class:`~repro.errors.ShardError`.

        Raises:
            ServiceClosed: the router is draining or closed.
            ShardError: the target shard's worker is dead (unsupervised;
                a supervised router re-routes around dead shards and
                raises :class:`~repro.errors.ShardUnavailable` only when
                no live shard remains).
        """
        future: "Future[DBMSResult]" = Future()
        future.set_running_or_notify_cancel()
        deadline_at = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        reroutes = 0
        while True:
            shard_id = self.route(sql)
            with self._room:
                handle = self._handles[shard_id]
                while (
                    not self._closed
                    and not handle.dead
                    and self._handles[shard_id] is handle
                    and handle.inflight >= self.max_inflight_per_shard
                ):
                    self._room.wait()
                if self._closed:
                    raise ServiceClosed("shard router is closed")
                if handle.dead or self._handles[shard_id] is not handle:
                    # The target died (or was replaced) while we waited.
                    # Supervised: route again against the updated
                    # down-set; bounded so a mass die-off cannot spin.
                    if self.supervisor is not None and reroutes < self.shards:
                        reroutes += 1
                        continue
                    raise ShardError(
                        f"shard {shard_id} worker is dead",
                        shard_id=shard_id,
                    )
                request_id = self._track_locked(
                    handle,
                    _PendingEntry(
                        future=future,
                        shard_id=shard_id,
                        sql=sql,
                        work_budget=work_budget,
                        budget=self._retry.budget(deadline_at),
                    ),
                )
            handle.request_queue.put(
                QueryRequest(
                    request_id=request_id,
                    sql=sql,
                    work_budget=work_budget,
                    deadline_seconds=deadline_seconds,
                )
            )
            return future

    def _track_locked(self, handle: _ShardHandle, entry: _PendingEntry) -> int:
        """Book one dispatch to ``handle`` as in flight; returns its request id."""
        request_id = self._next_request_id
        self._next_request_id += 1
        handle.inflight += 1
        handle.dispatched += 1
        handle.peak_inflight = max(handle.peak_inflight, handle.inflight)
        self._pending[request_id] = entry
        return request_id

    def run_all(
        self,
        queries: Sequence[str],
        work_budget: Optional[int] = None,
        return_exceptions: bool = False,
        deadline_seconds: Optional[float] = None,
    ) -> "List[Union[DBMSResult, Exception]]":
        """Route a batch across the cluster; results in submission order.

        Same contract as :meth:`QueryService.run_all`
        (:func:`~repro.service.server.gather_batch`); errors raised at
        *submission* time here are an unparseable query failing in
        :meth:`route` or a dead shard, so one bad query never aborts the
        rest of the batch.
        """
        return gather_batch(
            lambda sql: self.submit(
                sql,
                work_budget=work_budget,
                deadline_seconds=deadline_seconds,
            ),
            queries,
            return_exceptions,
        )

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        """Read every live incarnation's response pipe (collector thread).

        A message's sender is the pipe it came on, so it can only reach
        its own incarnation's handle; end-of-file on a pipe — or a frame
        torn by a SIGKILL — is that worker gone.
        """
        while not self._stop_collector.is_set():
            with self._lock:
                by_pipe = {
                    handle.responses: handle
                    for handle in self._handles
                    if not handle.gone.is_set()
                }
            for pipe in connection.wait(list(by_pipe), timeout=_POLL_SECONDS):
                handle = by_pipe[pipe]
                try:
                    message = pipe.recv()
                except (EOFError, OSError):
                    self._on_pipe_closed(handle)
                else:
                    self._deliver(handle, message)

    def _deliver(self, handle: _ShardHandle, message: Any) -> None:
        if isinstance(message, (QueryAnswer, QueryFailure)):
            self._resolve(handle, message)
        elif isinstance(message, WorkerReady):
            handle.pid = message.pid
            handle.ready.set()
            if self._supervision_active:
                self._on_worker_ready(handle.shard_id, handle.incarnation)
        elif isinstance(message, SnapshotReply):
            with self._room:
                waiter = self._snapshot_waiters.pop(message.request_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result((handle.shard_id, message.snapshot))
        elif isinstance(message, WorkerExit):
            handle.exit = message

    def _resolve(
        self,
        handle: _ShardHandle,
        message: "Union[QueryAnswer, QueryFailure]",
    ) -> None:
        with self._room:
            entry = self._pending.pop(message.request_id, None)
            if entry is None:
                return  # already failed by the drain
            handle.inflight -= 1
            self._room.notify_all()
        if entry.future.done():
            return
        if isinstance(message, QueryAnswer):
            entry.future.set_result(message.to_result())
        else:
            entry.future.set_exception(message.error)

    def _on_pipe_closed(self, handle: _ShardHandle) -> None:
        """``handle``'s pipe hit end-of-file: the worker is gone (collector).

        A clean worker's :class:`WorkerExit` always precedes its
        end-of-file, so without one this is a crash.  Unsupervised: fail
        the shard's in-flight futures and leave the shard dead.
        Supervised: :meth:`_on_worker_death`, which also covers a restart
        that crashes during its own startup.  Before supervision is
        active, a worker that dies before it is ready is
        :meth:`_await_ready`'s to report.
        """
        handle.responses.close()
        crashed = handle.exit is None
        if crashed:
            handle.process.join(timeout=1.0)  # reap: the exit code is known
        handle.gone.set()
        if not crashed:
            return
        if self._supervision_active:
            self._on_worker_death(handle)
        elif handle.ready.is_set():
            with self._room:
                handle.dead = True
                doomed = self._pop_pending_locked(handle)
            for entry in doomed:
                if not entry.future.done():
                    entry.future.set_exception(
                        ShardError(
                            f"shard {handle.shard_id} worker died (exit "
                            f"code {handle.process.exitcode}) with "
                            f"requests in flight",
                            shard_id=handle.shard_id,
                        )
                    )

    def _pop_pending_locked(self, handle: _ShardHandle) -> List[_PendingEntry]:
        """Remove and return every request in flight on ``handle``."""
        doomed_ids = [
            request_id
            for request_id, entry in self._pending.items()
            if entry.shard_id == handle.shard_id
        ]
        handle.inflight = 0
        self._room.notify_all()
        return [self._pending.pop(request_id) for request_id in doomed_ids]

    # ------------------------------------------------------------------
    # Supervision: death, failover retries, recovery, respawn
    # ------------------------------------------------------------------

    def _on_worker_death(self, handle: _ShardHandle) -> None:
        """Supervised death handling: mark down, heal, retry (collector).

        Everything routing-related happens atomically under the state
        lock — the dead flag, the down-set, the ring epoch bump, and the
        route-LRU invalidation — so a concurrent :meth:`route` either
        sees the shard live (and its dispatch is swept into the doomed
        set here, or bounced by :meth:`submit`'s dead-handle re-route)
        or already routes around it.  The supervisor is notified
        *outside* the lock (lock order: supervisor lock is never taken
        under the router state lock).
        """
        exitcode = handle.process.exitcode
        with self._room:
            handle.dead = True
            self._down.add(handle.shard_id)
            self._ring_epoch += 1
            self._routes.clear()
            doomed = self._pop_pending_locked(handle)
        supervisor = self.supervisor
        assert supervisor is not None  # guarded by _supervision_active
        supervisor.metrics.record_ring_epoch()
        supervisor.on_worker_death(handle.shard_id, exitcode, len(doomed))
        for entry in doomed:
            self._retry_or_fail(entry, handle.shard_id, exitcode)

    def _retry_or_fail(
        self,
        entry: _PendingEntry,
        dead_shard: int,
        exitcode: Optional[int],
    ) -> None:
        """Re-dispatch a crash-stranded query, or fail it explicitly.

        Queries are read-only and idempotent, so a retry is always
        *correct*; the only questions are budgets.  A retry must fit
        inside the original deadline (the budget's anchor never moves)
        and inside the per-query retry budget; when either is exhausted —
        or no live shard remains — the caller gets a typed
        :class:`~repro.errors.ShardUnavailable`.
        """
        if entry.future.done():
            return
        denial = entry.budget.admissible()
        if denial is None:
            denial = self._dispatch_retry(entry)
        if denial is None:
            return  # re-dispatched to a failover shard
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.metrics.record_unavailable()
        detail = {
            "retry-budget": "retry budget exhausted",
            "deadline": "original deadline exhausted",
            "no-live-shard": "no live failover shard",
            "draining": "router is draining",
        }[denial]
        entry.future.set_exception(
            ShardUnavailable(
                f"shard {dead_shard} worker died (exit code {exitcode}) "
                f"with the query in flight; {detail} after "
                f"{entry.budget.attempts} attempt(s)",
                shard_id=dead_shard,
                attempts=entry.budget.attempts,
                reason=denial,
            )
        )

    def _dispatch_retry(self, entry: _PendingEntry) -> Optional[str]:
        """Dispatch one retry to a live failover shard (collector thread).

        Returns None on success, else the denial reason.  The dispatch is
        non-blocking — the collector must never wait on the room
        condition — so it rides above the per-shard inflight bound; the
        worker's own admission control is the backstop and answers with
        a typed ``ServiceOverloaded`` if the failover shard is saturated.
        """
        for _ in range(self.shards):
            try:
                target = self.route(entry.sql)
            except ShardUnavailable:
                return "no-live-shard"
            with self._room:
                if self._closed:
                    return "draining"
                handle = self._handles[target]
                if handle.dead:
                    continue  # raced another death; route again
                try:
                    remaining = entry.budget.admit()
                except RuntimeError:
                    # admissible() a moment ago: only the clock moved.
                    return "deadline"
                request_id = self._track_locked(
                    handle, replace(entry, shard_id=target)
                )
            handle.request_queue.put(
                QueryRequest(
                    request_id=request_id,
                    sql=entry.sql,
                    work_budget=entry.work_budget,
                    deadline_seconds=remaining,
                )
            )
            supervisor = self.supervisor
            if supervisor is not None:
                supervisor.metrics.record_failover()
            return None
        return "no-live-shard"

    def _on_worker_ready(self, shard_id: int, incarnation: int) -> None:
        """A (re)started worker is serving: restore its ring ownership."""
        with self._room:
            if shard_id not in self._down:
                return  # initial startup, not a recovery
            self._down.discard(shard_id)
            self._ring_epoch += 1
            self._routes.clear()
            self._room.notify_all()
        supervisor = self.supervisor
        assert supervisor is not None
        supervisor.metrics.record_ring_epoch()
        supervisor.on_worker_ready(shard_id, incarnation)

    def _respawn_shard(self, shard_id: int, incarnation: int) -> bool:
        """Spawn a replacement worker (supervisor thread).

        The replacement reuses the cluster's :class:`ServiceConfig`
        verbatim — every per-shard source of randomness derives from
        ``config.seed + shard_id``, so the new incarnation rebuilds an
        identical serving world (seeded determinism).  A fresh request
        queue discards whatever the dead incarnation never consumed
        (those queries were already retried or failed explicitly).

        Returns False when the router is draining (no serving spawn).
        """
        with self._room:
            if self._closed:
                return False
            old = self._handles[shard_id]
        handle = self._spawn(shard_id, incarnation)
        with self._room:
            if self._closed:
                handle.process.kill()
                self._dead_handles.append(handle)  # drain() closes it
                return False
            # The old incarnation's queue is intentionally left open:
            # a submitter that raced the death may still hold a
            # reference and put() into it (harmless — nothing reads it);
            # drain() closes it with the rest.
            self._dead_handles.append(old)
            self._handles[shard_id] = handle
            self._room.notify_all()
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Live cluster snapshot: per-shard + merged + router-side view.

        Shards whose worker is dead (or that miss the timeout) are
        reported under ``unresponsive`` instead of blocking the rest.
        """
        waiters: List["tuple[int, Future]"] = []
        with self._room:
            if self._closed:
                raise ServiceClosed("shard router is closed")
            live = [
                handle for handle in self._handles if not handle.gone.is_set()
            ]
            for handle in live:
                request_id = self._next_request_id
                self._next_request_id += 1
                waiter: Future = Future()
                self._snapshot_waiters[request_id] = waiter
                waiters.append((request_id, waiter))
        for handle, (request_id, _) in zip(live, waiters):
            handle.request_queue.put(SnapshotCommand(request_id))
        per_shard: Dict[int, Dict[str, Any]] = {}
        unresponsive: List[int] = []
        deadline = time.monotonic() + timeout
        for handle, (request_id, waiter) in zip(live, waiters):
            remaining = max(0.0, deadline - time.monotonic())
            try:
                shard_id, shard_snapshot = waiter.result(timeout=remaining)
            except FutureTimeout:
                with self._room:
                    self._snapshot_waiters.pop(request_id, None)
                unresponsive.append(handle.shard_id)
            else:
                per_shard[shard_id] = shard_snapshot
        return self._assemble_snapshot(per_shard, unresponsive)

    def _assemble_snapshot(
        self,
        per_shard: Dict[int, Dict[str, Any]],
        unresponsive: List[int],
    ) -> Dict[str, Any]:
        with self._room:
            router = {
                "shards": self.shards,
                "ring_epoch": self._ring_epoch,
                "down_shards": sorted(self._down),
                "routing_cache": {
                    "hits": self._route_hits,
                    "misses": self._route_misses,
                    "size": len(self._routes),
                    "capacity": _ROUTE_CACHE_CAPACITY,
                },
                "per_shard": {
                    handle.shard_id: {
                        "pid": handle.pid,
                        "incarnation": handle.incarnation,
                        "dispatched": handle.dispatched,
                        "inflight": handle.inflight,
                        "peak_inflight": handle.peak_inflight,
                        "max_inflight": self.max_inflight_per_shard,
                        "alive": handle.process.is_alive(),
                    }
                    for handle in self._handles
                },
            }
        merged = merge_metric_snapshots(
            [per_shard[s] for s in sorted(per_shard)]
        )
        data: Dict[str, Any] = {
            "router": router,
            "shards": {
                shard_id: per_shard[shard_id]
                for shard_id in sorted(per_shard)
            },
            "cache_hit_rates": shard_cache_hit_rates(per_shard),
            "merged": merged,
            "unresponsive": unresponsive,
        }
        if self.supervisor is not None:
            data["supervisor"] = self.supervisor.snapshot()
            # Worker-death / restart events belong in the cluster slow
            # log next to the per-query error events the shards report.
            insights = merged.get("insights")
            if isinstance(insights, dict):
                slow_log = insights.setdefault(
                    "slow_log", {"outliers": {}, "events": []}
                )
                if isinstance(slow_log, dict):
                    events = slow_log.setdefault("events", [])
                    if isinstance(events, list):
                        events.extend(self.supervisor.events())
        return data

    def saturation(self) -> float:
        """Peak per-shard inflight as a fraction of the per-shard bound."""
        with self._room:
            peak = max(
                (handle.peak_inflight for handle in self._handles),
                default=0,
            )
        return peak / self.max_inflight_per_shard

    def shard_pids(self) -> Dict[int, Optional[int]]:
        """Shard id → current worker pid (live shards only)."""
        with self._room:
            return {
                handle.shard_id: handle.pid
                for handle in self._handles
                if not handle.dead
            }

    def live_shards(self) -> List[int]:
        """Shards whose current worker is alive and serving."""
        with self._room:
            handles = list(self._handles)
        return [
            handle.shard_id
            for handle in handles
            if not handle.dead
            and handle.ready.is_set()
            and handle.process.is_alive()
        ]

    def ring_epoch(self) -> int:
        """The current ring epoch (bumps on every down/up transition)."""
        with self._room:
            return self._ring_epoch

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def drain(self, grace_seconds: Optional[float] = None) -> bool:
        """Cross-shard graceful shutdown (idempotent, concurrency-safe).

        Stops admitting, broadcasts :class:`DrainCommand` to every live
        shard (each drains its own service: queued queries cancel,
        in-flight queries abort at their next cooperative checkpoint,
        every outstanding request gets an explicit response), collects the
        final :class:`WorkerExit` messages, kills any straggler past the
        grace period, and fails whatever futures still dangle with
        :class:`~repro.errors.ShardError`.

        Exactly one caller runs the shutdown: concurrent and repeated
        calls block on the drain gate and return the winner's verdict.
        Safe to call while the supervisor is mid-restart — the supervisor
        is stopped (and joined) first, and a respawn that races the
        close observes ``_closed`` and backs out.

        Returns:
            True when every shard drained cleanly (worker reported a
            clean drain, exited by itself, and left no dangling futures).
        """
        with self._drain_gate:
            if self._drained is not None:
                return self._drained
            self._drained = self._drain_once(grace_seconds)
            return self._drained

    def _drain_once(self, grace_seconds: Optional[float]) -> bool:
        with self._room:
            self._closed = True
            self._room.notify_all()
        if self.supervisor is not None:
            # No respawns past this point; a restart already in flight
            # either installed its handle (and is drained below) or sees
            # _closed and backs out.
            self.supervisor.stop()
        with self._lock:
            # Stable snapshot: the supervisor is stopped, so no further
            # respawn can replace a slot after this point.
            handles = list(self._handles)
        for handle in handles:
            handle.request_queue.put(DrainCommand(grace_seconds=grace_seconds))
        budget = (grace_seconds or 0.0) + _DRAIN_MARGIN
        deadline = time.monotonic() + budget
        clean = True
        for handle in handles:
            # A crash sets ``gone`` as promptly as a clean exit does.
            handle.gone.wait(timeout=max(0.0, deadline - time.monotonic()))
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic()) + 1.0
            )
            if handle.process.is_alive():
                # SIGTERM is ignored by workers by design; escalate.
                handle.process.kill()
                handle.process.join(timeout=5.0)
                clean = False
            if handle.exit is None or not handle.exit.drained:
                clean = False
        # The collector saw every WorkerExit that will ever arrive.
        self._stop_collector.set()
        self._collector.join(timeout=5.0)
        with self._room:
            dangling = list(self._pending.values())
            self._pending.clear()
            for handle in self._handles:
                handle.inflight = 0
        if dangling:
            clean = False
        for entry in dangling:
            if not entry.future.done():
                entry.future.set_exception(
                    ShardError(
                        f"query abandoned: shard {entry.shard_id} did "
                        f"not respond before drain completed",
                        shard_id=entry.shard_id,
                    )
                )
        with self._lock:
            all_handles = self._handles + self._dead_handles
        for handle in all_handles:
            handle.request_queue.close()
            handle.request_queue.cancel_join_thread()
            handle.responses.close()
        return clean

    def close(self) -> None:
        """Alias for :meth:`drain` with no grace bound override."""
        self.drain()

    # ------------------------------------------------------------------
    # Post-drain aggregation
    # ------------------------------------------------------------------

    def worker_exits(self) -> Dict[int, WorkerExit]:
        """Per-shard final state (only populated after :meth:`drain`)."""
        with self._lock:
            handles = list(self._handles)
        return {
            handle.shard_id: handle.exit
            for handle in handles
            if handle.exit is not None
        }

    def final_snapshot(self) -> Dict[str, Any]:
        """The post-drain cluster snapshot (merged from worker exits)."""
        exits = self.worker_exits()
        per_shard = {
            shard_id: exit_.snapshot for shard_id, exit_ in exits.items()
        }
        with self._lock:
            missing = [
                handle.shard_id
                for handle in self._handles
                if handle.exit is None
            ]
        return self._assemble_snapshot(per_shard, missing)

    def span_records(self) -> List[Dict[str, Any]]:
        """Merged, shard-tagged span records from every worker's tracer."""
        return merge_span_records(
            {
                shard_id: exit_.span_records
                for shard_id, exit_ in self.worker_exits().items()
            }
        )

    def spans_dropped(self) -> int:
        return sum(
            exit_.spans_dropped for exit_ in self.worker_exits().values()
        )

    def open_spans(self) -> int:
        return sum(
            exit_.open_spans for exit_ in self.worker_exits().values()
        )

    def lock_violations(self) -> Dict[int, str]:
        """Shard id → witnessed lock-order cycle (empty when clean)."""
        return {
            shard_id: exit_.lock_violation
            for shard_id, exit_ in self.worker_exits().items()
            if exit_.lock_violation
        }

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

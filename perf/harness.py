"""Set-up, the correctness oracle and the untraced timed run.

Everything here drives the program through its public functions:
``Database`` / ``RelationSchema`` to load the generated tables,
``SimulatedDBMS`` + ``QueryService`` to serve SQL.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.dbms import DBMSResult, SimulatedDBMS
from repro.relational.database import Database
from repro.relational.schema import AttributeType, RelationSchema
from repro.service.server import QueryService

from perf import reference, workloads
from perf.workloads import Op, Workload

GOLDEN = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 7

#: Work budget within which the built-in planner must answer an operation
#: that has no independent evaluator (about 20× what those need).
ORACLE_BUDGET = 5_000_000
#: Budget for cross-checking ``reference.path_answer`` against the built-in
#: planner.  The shapes on which the planner finishes need far less; on the
#: others it is stopped before its intermediates, which grow with the
#: budget and differ by seed, set the process's ``ru_maxrss``.
CROSS_CHECK_BUDGET = 100_000
CROSS_CHECK_TEMPLATES = 8

_TYPES = {
    "int": AttributeType.INT,
    "float": AttributeType.FLOAT,
    "string": AttributeType.STRING,
    "date": AttributeType.DATE,
}


def load(tables: Dict[str, workloads.Table]) -> Database:
    """The generated tables as an analyzed ``Database``."""
    database = Database("perf")
    for name, (columns, rows) in tables.items():
        schema = RelationSchema.of(name, [(c, _TYPES[t]) for c, t in columns])
        database.create_table(schema, rows)
    database.analyze()
    return database


def result_digest(result: DBMSResult) -> Optional[str]:
    if not result.finished or result.relation is None:
        return None
    return reference.digest(result.relation.attributes, result.relation.tuples)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Reference digests per distinct (template, constants), never from q-HD.

    Line and chain queries: ``reference.path_answer`` (no program code),
    cross-checked against the built-in System-R planner on a few templates
    where that planner finishes.  Everything else: the built-in planner
    (``run_sql(bypass_handler=True)``) on a database of its own.
    """

    def __init__(self, workload: Workload):
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        #: Templates on which the built-in planner confirmed ``reference.py``.
        self.cross_checked = 0
        self._dbms = SimulatedDBMS(load(workload.tables))
        distinct: Dict[str, Op] = {}
        for op in workload.warmup + workload.ops:
            distinct.setdefault(op.key, op)
        for key, op in distinct.items():
            if op.path is not None:
                rows = reference.path_answer(workload.tables, op.path)
                first = op.path.relations[0][1:]
                self.digests[key] = reference.digest((f"x{first}", f"y{first}"), rows)
            else:
                result = self.builtin(op, ORACLE_BUDGET)
                digest = result_digest(result)
                if digest is None:
                    raise RuntimeError(f"built-in planner did not finish {key!r}")
                self.digests[key] = digest
        self._cross_check(distinct)

    def builtin(self, op: Op, budget: int) -> DBMSResult:
        return self._dbms.run_sql(op.sql, bypass_handler=True, work_budget=budget)

    def _cross_check(self, distinct: Dict[str, Op]) -> None:
        by_template: Dict[str, Op] = {}
        for op in distinct.values():
            if op.path is not None:
                by_template.setdefault(op.template, op)
        templates = sorted(by_template)
        step = max(1, len(templates) // CROSS_CHECK_TEMPLATES)
        for template in templates[::step][:CROSS_CHECK_TEMPLATES]:
            op = by_template[template]
            digest = result_digest(self.builtin(op, CROSS_CHECK_BUDGET))
            if digest is None:
                continue  # the planner's join order blew the budget
            self.cross_checked += 1
            if digest != self.digests[op.key]:
                self.problems.append(
                    f"reference.py and the built-in planner disagree on {op.key!r}"
                )

    def check_golden(self, workload: Workload) -> None:
        """Compare against the committed digests (seed 7, full scale)."""
        golden = json.loads(GOLDEN.read_text())["digests"].get(workload.name)
        if golden != self.digests:
            self.problems.append(
                f"{workload.name}: reference digests differ from perf/golden.json"
            )

    def verify(self, op: Op, outcome: object) -> bool:
        """True when ``outcome`` is a correct q-HD answer for ``op``.

        An operation fails if it raised, did not finish, was answered by
        the built-in fallback rung, or its rows differ from the reference.
        """
        if not isinstance(outcome, DBMSResult):
            return False
        if outcome.optimizer == "builtin-fallback":
            return False
        return result_digest(outcome) == self.digests[op.key]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Fixture:
    """A loaded database behind a warmed-up ``QueryService``.

    Close it (``with``) so that the service's worker threads end.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.database = load(workload.tables)
        self.dbms = SimulatedDBMS(self.database)
        self.service = QueryService(
            self.dbms,
            max_width=workload.max_width,
            workers=workload.clients,
            cache_capacity=workload.cache_capacity,
        )
        try:
            self.warmup = [(op, self.run(op)) for op in workload.warmup]
        except BaseException:
            self.close()
            raise

    def run(self, op: Op, through_pool: Optional[bool] = None) -> object:
        """One operation, as a client sees it: the result or the exception."""
        if through_pool is None:
            through_pool = self.workload.through_pool
        try:
            if through_pool:
                return self.service.submit(op.sql).result()
            return self.service.execute(op.sql)
        except Exception as exc:  # the benchmark counts it as a failed operation
            return exc

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "Fixture":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def timed_setup(name: str, seed: int, scale: str, repeats: int) -> Tuple[Fixture, List[float]]:
    """Set up ``repeats`` times; returns the last fixture and every duration.

    One set-up is input generation, loading and ``analyze()``, service
    construction and the warm-up operations.
    """
    durations: List[float] = []
    fixture: Optional[Fixture] = None
    for _ in range(repeats):
        if fixture is not None:
            fixture.close()
        started = time.perf_counter()
        fixture = Fixture(workloads.build(name, seed, scale))
        durations.append(time.perf_counter() - started)
    assert fixture is not None
    return fixture, durations


# ---------------------------------------------------------------------------
# The timed run
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Done(NamedTuple):
    """One finished operation; the answer itself is checked and dropped."""

    op: Op
    ok: bool
    seconds: float
    work: int


def run_ops(
    fixture: Fixture,
    oracle: Oracle,
    ops: Sequence[Op],
    stop: Callable[[int], bool],
    client: int = 0,
    clients: int = 1,
    through_pool: Optional[bool] = None,
) -> List[Done]:
    """Closed loop of one client: the next operation starts when the last ends.

    Client ``c`` of ``n`` takes operations ``c, c+n, c+2n, …`` of the cycled
    list.  An operation is timed from just before the call until its result
    is in hand; the answer is digested and compared after that clock has
    stopped, and not kept, so memory does not grow with the operations done.
    """
    workload = fixture.workload
    done: List[Done] = []
    index = client
    while not stop(len(done)):
        op = ops[index % len(ops)]
        started = time.perf_counter()
        outcome = fixture.run(op, through_pool)
        seconds = time.perf_counter() - started
        done.append(
            Done(op, oracle.verify(op, outcome), seconds, getattr(outcome, "work", 0))
        )
        index += clients
        if workload.analyze_every and len(done) % workload.analyze_every == 0:
            # A statistics refresh: bumps the version the plan cache keys on.
            fixture.database.analyze()
    return done


def timed_run(fixture: Fixture, oracle: Oracle, seconds: float) -> List[List[Done]]:
    """Every client's closed loop for ``seconds``; one list per client."""
    workload = fixture.workload
    deadline = time.perf_counter() + seconds

    def stop(_done: int) -> bool:
        return time.perf_counter() >= deadline

    per_client: List[List[Done]] = [[] for _ in range(workload.clients)]
    errors: List[BaseException] = []

    def client_main(client: int) -> None:
        try:
            per_client[client] = run_ops(
                fixture, oracle, workload.ops, stop, client, workload.clients
            )
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client_main, args=(c,), name=f"perf-client-{c}")
        for c in range(1, workload.clients)
    ]
    for thread in threads:
        thread.start()
    try:
        client_main(0)
    finally:
        deadline = 0.0  # an interrupted main client takes the others down
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return per_client


def end_to_end(
    fixture: Fixture,
    oracle: Oracle,
    setup_seconds: Sequence[float],
    seconds: float,
) -> Dict[str, object]:
    """The untraced timed run and the metrics a client of the system sees."""
    workload = fixture.workload
    per_client = timed_run(fixture, oracle, seconds)
    done = [item for client in per_client for item in client]
    latencies = sorted(item.seconds * 1e3 for item in done if item.ok) or [math.nan]
    return {
        "attempted": len(done),
        "failed": sum(1 for item in done if not item.ok),
        "tail_percentile": workload.tail,
        "metrics": {
            "setup_s": statistics.median(setup_seconds),
            # Per client: correct operations ÷ the time it spent inside
            # operations, which leaves out the benchmark's own checking.
            "throughput_qps": sum(
                sum(1 for item in client if item.ok) / sum(item.seconds for item in client)
                for client in per_client
                if client
            ),
            "query_p50_ms": percentile(latencies, 0.50),
            "query_tail_ms": percentile(latencies, workload.tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }

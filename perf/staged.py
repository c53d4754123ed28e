"""The traced staged replay and the per-layer metrics.

The replay rebuilds each sampled operation stage by stage from the
program's public functions, in the order ``core.integration``'s handler
calls them, with a benchmark-owned span around each call.  Side passes
measure the layers an operation does not cross (parallel evaluator,
kernels, wire codec, pool dispatch, the program's own tracer, the built-in
planner).  Nothing inside the program is instrumented.
"""

from __future__ import annotations

import pickle
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.costkdecomp import cost_k_decomp
from repro.core.evaluator import QHDEvaluator
from repro.core.optimizer import cost_model_from_database
from repro.core.qhd import assign_atoms, procedure_optimize
from repro.core.validate import validate_decomposition
from repro.engine.dbms import DBMSResult, SimulatedDBMS
from repro.engine.postprocess import apply_sql_semantics
from repro.engine.scans import atom_relations
from repro.metering import WorkMeter
from repro.obs.tracing import tracing
from repro.parallel import ParallelQHDEvaluator, SubtreePool, fused_join_project
from repro.query import parse_sql, sql_to_conjunctive
from repro.service.fingerprint import (
    fingerprint_translation,
    rename_hypertree,
    schema_digest,
)
from repro.service.plancache import PlanCache
from repro.shard.messages import QueryAnswer

from perf import harness
from perf.harness import Fixture, Oracle
from perf.spans import Recorder, self_times
from perf.workloads import Op, Workload

#: Span name → layer.  The operation span's own self time is "other".
LAYER_OF = {
    "query.parse": "query",
    "query.translate": "query",
    "fingerprint.compute": "fingerprint",
    "fingerprint.rename": "fingerprint",
    "plancache.lookup": "plancache",
    "plancache.store": "plancache",
    "costmodel.build": "costmodel",
    "decompose.search": "decompose",
    "qhd.assign": "qhd",
    "qhd.optimize": "qhd",
    "scan": "scan",
    "exec.eval": "exec",
    "postprocess": "postprocess",
}

#: Capacity of the benchmark-held cache while a replay round warms up on a
#: workload whose service caches nothing (see ``Replay.run``).
PROBE_CAPACITY = 128
#: The built-in planner may spend this many times the q-HD work of the
#: same operation before the comparison stops it.
BUILTIN_BUDGET_FACTOR = 5


@dataclass
class Staged:
    """What one staged operation produced, beside its spans."""

    op: Op
    phase: str
    seconds: float
    atoms: int
    fresh: bool
    width: int = 0
    nodes: int = 0
    pruned: int = 0
    valid: bool = True
    scan_units: int = 0
    exec_units: int = 0
    post_units: int = 0
    rows_out: int = 0
    digest: Optional[str] = None
    #: Kept for the side passes: (translation, decomposition, base relations).
    plan: Optional[tuple] = None


class Replay:
    """One round: a fresh benchmark-held ``PlanCache`` and database.

    Mirrors ``install_structural_optimizer``'s handler as ``QueryService``
    configures it (breaker on, so the template fingerprint is computed once
    for the breaker key and once more for the cache lookup).
    """

    def __init__(self, workload: Workload, recorder: Recorder):
        self.workload = workload
        self.recorder = recorder
        self.database = harness.load(workload.tables)
        self.spill = SimulatedDBMS(self.database).spill_model
        self.cache = PlanCache(capacity=workload.cache_capacity or PROBE_CAPACITY)

    def _fingerprint(self, translation, use_stats: bool):
        with self.recorder.span("fingerprint.compute"):
            context = (
                f"schema={schema_digest(self.database)};k={self.workload.max_width};"
                f"opt=True;stats={use_stats}"
            )
            return fingerprint_translation(translation, context=context)

    def run(self, op: Op, phase: str, op_id: str, keep_plan: bool = False) -> Staged:
        recorder, database, span = self.recorder, self.database, self.recorder.span
        recorder.op = op_id
        # A service without a plan cache never fingerprints for a lookup,
        # looks up, stores or renames.  So that those calls are timed on
        # every workload, the warm-up of a round goes through the cache
        # regardless; the timed phase does what the service does.
        cached = self.workload.cache_capacity > 0 or phase == "warmup"
        with span("op") as root:
            with span("query.parse"):
                parsed = parse_sql(op.sql)
            with span("query.translate"):
                translation = sql_to_conjunctive(parsed, database.schema.as_mapping())
            query = translation.query
            use_stats = database.has_statistics()
            fingerprint = self._fingerprint(translation, use_stats)
            tree = None
            if cached:
                fingerprint = self._fingerprint(translation, use_stats)
                with span("plancache.lookup") as lookup:
                    entry = self.cache.lookup(fingerprint, database.stats_version)
                    lookup["counts"]["hit"] = int(entry is not None)
                if entry is not None:
                    with span("fingerprint.rename"):
                        tree = rename_hypertree(
                            entry.tree,
                            fingerprint.inverse_var_map(),
                            fingerprint.inverse_atom_map(),
                            hypergraph=query.hypergraph(),
                        )
            staged = Staged(op, phase, 0.0, len(query.atoms), fresh=tree is None)
            if tree is None:
                with span("costmodel.build"):
                    model = cost_model_from_database(translation, database, use_stats)
                plan_meter = WorkMeter()
                with span("decompose.search") as search:
                    found = cost_k_decomp(
                        query.hypergraph(),
                        self.workload.max_width,
                        model,
                        required_root_cover=query.output_variables,
                        meter=plan_meter,
                    )
                    search["counts"]["plan_units"] = plan_meter.total
                if found is None:
                    return staged  # no width-≤k decomposition: a failed operation
                tree = found[0]
                with span("qhd.assign"):
                    assign_atoms(tree, query)
                with span("qhd.optimize") as optimize:
                    staged.pruned = procedure_optimize(tree)
                    optimize["counts"]["atoms_pruned"] = staged.pruned
                staged.width, staged.nodes = tree.width, len(tree)
                if cached:
                    with span("fingerprint.rename"):
                        canonical = rename_hypertree(
                            tree, fingerprint.var_map, fingerprint.atom_map
                        )
                    with span("plancache.store"):
                        self.cache.store(fingerprint, canonical, database.stats_version)
            meter = WorkMeter()
            with span("scan") as scan:
                base = atom_relations(query, database, translation, meter)
                staged.scan_units = scan["counts"]["work_units"] = meter.total
            with span("exec.eval") as evaluate:
                answer = QHDEvaluator(tree, query, meter, spill=self.spill).evaluate(base)
                staged.exec_units = meter.total - staged.scan_units
                evaluate["counts"].update(work_units=staged.exec_units, rows_out=len(answer))
            with span("postprocess") as post:
                final = apply_sql_semantics(answer, translation, meter)
                staged.post_units = meter.total - staged.scan_units - staged.exec_units
                post["counts"]["work_units"] = staged.post_units
        staged.seconds = root["end"] - root["start"]
        staged.rows_out = len(answer)
        with span("wire.roundtrip") as wire:
            message = QueryAnswer(
                request_id=0, shard_id=0, attributes=final.attributes,
                tuples=list(final.tuples), work=meter.total, simulated_seconds=0.0,
                elapsed_seconds=staged.seconds, finished=True,
                used_statistics=use_stats, optimizer="q-hd",
                work_breakdown=meter.snapshot(),
            )
            blob = pickle.dumps(message)
            received: DBMSResult = pickle.loads(blob).to_result()
            wire["counts"]["bytes"] = len(blob)
        staged.digest = harness.result_digest(received)
        if staged.fresh:
            # The benchmark's own check, outside the operation span.
            staged.valid = validate_decomposition(tree, query).ok
        if keep_plan:
            staged.plan = (translation, tree, base)
        return staged


def side_ops(workload: Workload) -> int:
    """How many operations the side passes take from the head of the sample."""
    return max(6, workload.sample // 20)


def replay_rounds(
    workload: Workload, recorder: Recorder, deadline: float
) -> List[List[Staged]]:
    """Rounds of (warm-up, the fixed sample) until ``deadline``; at least one."""
    sample = workload.ops[: workload.sample]
    side = side_ops(workload)
    rounds: List[List[Staged]] = []
    while not rounds or time.perf_counter() < deadline:
        replay = Replay(workload, recorder)
        number = len(rounds)
        staged = [
            replay.run(op, "warmup", f"{number}:warmup:{i}")
            for i, op in enumerate(workload.warmup)
        ]
        for i, op in enumerate(sample):
            if workload.analyze_every and i and i % workload.analyze_every == 0:
                replay.database.analyze()
            keep = number == 0 and i < side
            staged.append(replay.run(op, "timed", f"{number}:timed:{i}", keep))
        rounds.append(staged)
    return rounds


# ---------------------------------------------------------------------------
# Side passes
# ---------------------------------------------------------------------------


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def _clock(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def count_pass(fixture: Fixture, oracle: Oracle) -> Dict[str, object]:
    """The fixed sample, untraced, one client, through ``execute``.

    Counts come from ``QueryService.snapshot()`` deltas; with one client
    they repeat exactly for a seed.
    """
    workload = fixture.workload
    before = fixture.service.snapshot()
    done = harness.run_ops(
        fixture, oracle, workload.ops, lambda n: n >= workload.sample, through_pool=False
    )
    after = fixture.service.snapshot()

    def delta(section: str, key: str) -> float:
        return after[section][key] - before[section][key]

    built, hits = delta("planning", "built"), delta("planning", "cache_hits")
    return {
        "done": done,
        "failed": sum(1 for item in done if not item.ok),
        "p50_s": statistics.median(item.seconds for item in done),
        "hit_rate": hits / (hits + built) if hits + built else 0.0,
        "inserts": delta("cache", "inserts"),
        "evictions_lru": delta("cache", "evictions_lru"),
        "invalidations": delta("cache", "invalidations"),
        "plans_built": built,
        "plan_units": delta("planning", "work_units"),
    }


def pool_and_tracer_pass(fixture: Fixture, ops: Sequence[Op]) -> Dict[str, float]:
    """``submit().result()`` against ``execute()``, and ``tracing()`` on against off.

    Each operation runs in all three modes, rotating which goes first.
    """
    service = fixture.service
    spans = 0

    def traced(sql: str) -> None:
        nonlocal spans
        with tracing() as tracer:
            service.execute(sql)
        spans += len(tracer.spans())

    modes: List[Tuple[str, Callable[[str], object]]] = [
        ("execute", service.execute),
        ("submit", lambda sql: service.submit(sql).result()),
        ("traced", traced),
    ]
    seconds: Dict[str, List[float]] = defaultdict(list)
    for i, op in enumerate(ops):
        for mode, call in modes[i % 3:] + modes[: i % 3]:
            seconds[mode].append(_clock(lambda: call(op.sql)))
    execute = statistics.median(seconds["execute"])
    return {
        "pool.dispatch_overhead_ms": (statistics.median(seconds["submit"]) - execute) * 1e3,
        "obs.tracer_overhead_ratio": statistics.median(seconds["traced"]) / execute,
        "obs.spans_per_op": spans / len(ops),
    }


def evaluator_pass(plans: Sequence[tuple], spill) -> Dict[str, float]:
    """Serial against 2-worker parallel evaluation, and peak allocation."""
    serial: List[float] = []
    parallel: List[float] = []
    parallel_units = 0
    peak = 0
    pool = SubtreePool(2)
    try:
        for translation, tree, base in plans:
            query = translation.query
            serial.append(_clock(lambda: QHDEvaluator(
                tree, query, WorkMeter(), spill=spill).evaluate(base)))
            meter = WorkMeter()
            parallel.append(_clock(lambda: ParallelQHDEvaluator(
                tree, query, meter, spill=spill, workers=2, pool=pool).evaluate(base)))
            parallel_units += meter.total
    finally:
        pool.close()
    for translation, tree, base in plans[:5]:
        tracemalloc.start()
        try:
            QHDEvaluator(tree, translation.query, WorkMeter(), spill=spill).evaluate(base)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return {
        "parallel.eval2_ms": _median_ms(parallel),
        "parallel.work_units": parallel_units,
        "parallel.speedup": statistics.median(serial) / statistics.median(parallel),
        "exec.peak_alloc_mb": peak / 2**20,
    }


def kernel_pass(plans: Sequence[tuple]) -> Dict[str, float]:
    """Each kernel on the two largest joinable base relations of the sample."""
    best: Optional[tuple] = None
    for _translation, _tree, base in plans:
        relations = sorted(base.values(), key=len, reverse=True)
        for i, left in enumerate(relations):
            for right in relations[i + 1:]:
                if left.shared_attributes(right) and (
                    best is None or len(left) + len(right) > len(best[0]) + len(best[1])
                ):
                    best = (left, right)
    assert best is not None, "no two base relations share a variable"
    left, right = best
    rows = len(left) + len(right)
    keep = list(left.attributes)

    def rate(kernel: Callable[[WorkMeter], object]) -> Tuple[float, int]:
        # Repeat for ~50 ms; the work units are those of one call.
        times: List[float] = []
        meter = WorkMeter()
        kernel(meter)
        until = time.perf_counter() + 0.05
        while not times or time.perf_counter() < until:
            times.append(_clock(lambda: kernel(WorkMeter())))
        return rows / statistics.median(times) / 1e6, meter.total

    join, join_units = rate(lambda m: left.natural_join(right, meter=m))
    semijoin, _ = rate(lambda m: left.semijoin(right, meter=m))
    project, _ = rate(lambda m: left.project(left.attributes[:1], meter=m))
    fused, fused_units = rate(lambda m: fused_join_project(left, right, keep, meter=m))
    return {
        "kernel.join_mrows_s": join,
        "kernel.semijoin_mrows_s": semijoin,
        "kernel.project_mrows_s": project,
        "kernel.fused_join_project_mrows_s": fused,
        "kernel.join_work_units": join_units,
        "kernel.fused_work_units": fused_units,
    }


def builtin_pass(oracle: Oracle, done: Sequence[harness.Done], limit: int) -> Dict[str, float]:
    """The built-in planner on the head of the sample, against q-HD's work.

    The planner is stopped at ``BUILTIN_BUDGET_FACTOR`` × the q-HD work of
    the same operation, so on the workloads where it does not finish (the
    paper's point) the ratio reads as that factor: a lower bound.
    """
    seconds: List[float] = []
    units: List[int] = []
    ratios: List[float] = []
    seen = set()
    for item in done:
        if item.op.key in seen or not item.ok:
            continue
        seen.add(item.op.key)
        budget = item.work * BUILTIN_BUDGET_FACTOR
        started = time.perf_counter()
        result = oracle.builtin(item.op, budget)
        seconds.append(time.perf_counter() - started)
        units.append(min(result.work, budget))
        ratios.append(units[-1] / item.work)
        if len(seen) == limit:
            break
    return {
        "builtin.ms": _median_ms(seconds),
        "builtin.work_units": sum(units),
        "builtin.qhd_work_ratio": statistics.median(ratios),
    }


# ---------------------------------------------------------------------------
# The per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(fixture: Fixture, oracle: Oracle, seconds: float, recorder: Recorder) -> Dict[str, object]:
    """The count pass, the side passes and the traced replay, within ``seconds``."""
    workload = fixture.workload
    deadline = time.perf_counter() + seconds
    counts = count_pass(fixture, oracle)
    side = side_ops(workload)
    metrics: Dict[str, float] = {}
    metrics.update(pool_and_tracer_pass(fixture, workload.ops[:side]))
    metrics.update(builtin_pass(oracle, counts["done"], side))

    rounds = replay_rounds(workload, recorder, deadline)
    first = rounds[0]
    plans = [s.plan for s in first if s.plan is not None]
    metrics.update(evaluator_pass(plans, fixture.dbms.spill_model))
    metrics.update(kernel_pass(plans))

    staged = [s for staged_round in rounds for s in staged_round]
    timed = [s for s in staged if s.phase == "timed"]
    first_timed = [s for s in first if s.phase == "timed"]
    mismatches = sum(1 for s in staged if s.digest != oracle.digests[s.op.key])
    drift = sum(
        1
        for s, item in zip(first_timed, counts["done"])
        if item.ok and s.scan_units + s.exec_units + s.post_units != item.work
    )

    own = self_times(recorder.spans)
    by_name: Dict[str, List[float]] = defaultdict(list)
    per_op_fingerprint: Dict[str, float] = defaultdict(float)
    layer_seconds: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        by_name[span["name"]].append(own[span["id"]])
        if span["name"] == "fingerprint.compute":
            per_op_fingerprint[span["op"]] += own[span["id"]]
        if ":timed:" in span["op"] and span["name"] != "wire.roundtrip":
            layer_seconds[LAYER_OF.get(span["name"], "other")] += own[span["id"]]
    total = sum(layer_seconds.values())
    fresh = [s for s in first if s.fresh and s.nodes]
    exec_units = sum(s.exec_units for s in first_timed)
    rows_out = sum(s.rows_out for s in first_timed)
    wire_bytes = [
        s["counts"]["bytes"] for s in recorder.spans if s["name"] == "wire.roundtrip"
    ]

    def ms(name: str) -> float:
        return _median_ms(by_name[name])

    def share(layer: str) -> float:
        return layer_seconds[layer] / total

    metrics.update({
        "query.parse_ms": ms("query.parse"),
        "query.translate_ms": ms("query.translate"),
        "query.atoms_mean": statistics.fmean(s.atoms for s in timed),
        "query.share": share("query"),
        "fingerprint.ms": _median_ms(list(per_op_fingerprint.values())),
        "fingerprint.rename_ms": ms("fingerprint.rename"),
        "fingerprint.share": share("fingerprint"),
        "plancache.lookup_us": ms("plancache.lookup") * 1e3,
        "plancache.hit_rate": counts["hit_rate"],
        "plancache.inserts": counts["inserts"],
        "plancache.evictions_lru": counts["evictions_lru"],
        "plancache.invalidations": counts["invalidations"],
        "plancache.share": share("plancache"),
        "costmodel.build_ms": ms("costmodel.build"),
        "decompose.search_ms": ms("decompose.search"),
        "decompose.plan_units": counts["plan_units"],
        "decompose.plans_built": counts["plans_built"],
        "decompose.width_mean": statistics.fmean(s.width for s in fresh),
        "decompose.nodes_mean": statistics.fmean(s.nodes for s in fresh),
        "decompose.invalid": sum(1 for s in staged if not s.valid),
        "decompose.share": share("decompose"),
        "qhd.assign_ms": ms("qhd.assign"),
        "qhd.optimize_ms": ms("qhd.optimize"),
        "qhd.atoms_pruned": sum(s.pruned for s in fresh),
        "scan.ms": ms("scan"),
        "scan.work_units": sum(s.scan_units for s in first_timed),
        "scan.share": share("scan"),
        "exec.eval_ms": ms("exec.eval"),
        "exec.work_units": exec_units,
        "exec.rows_out": rows_out,
        "exec.work_per_row_out": exec_units / max(1, rows_out),
        "exec.share": share("exec"),
        "postprocess.ms": ms("postprocess"),
        "postprocess.share": share("postprocess"),
        "wire.roundtrip_ms": ms("wire.roundtrip"),
        "wire.bytes_per_op": statistics.fmean(wire_bytes),
        "trace.overhead_ratio": statistics.median(s.seconds for s in timed) / counts["p50_s"],
        "trace.replay_mismatches": mismatches,
        "trace.work_unit_drift": drift,
    })
    return {
        "attempted": len(counts["done"]) + len(staged),
        "failed": counts["failed"] + mismatches,
        "rounds": len(rounds),
        "metrics": metrics,
    }

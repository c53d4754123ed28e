"""Serving-layer benchmark: repeated-template throughput, cold vs warm.

The paper's §6.1 economics: the structural plan costs milliseconds,
independent of data size.  The serving layer pushes that one step further —
the plan is built once per *template* and amortized across every repetition
(parameter changes, alias renamings).  This experiment measures exactly
that amortization:

* **cold** — a service with plan caching disabled replans every query;
* **warm** — an identical service with the cache enabled plans each
  template once and serves the rest from the cache.

Both run the same mixed workload (TPC-H joins + synthetic chain templates,
with per-repetition parameter variation) over the same pool, and the
planning effort is the deterministic ``"plan"`` work-unit count of the
cost-k-decomp search — machine-independent, like every other figure here.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult, RunRecord
from repro.relational.database import Database
from repro.service.config import ServiceConfig
from repro.service.metrics import plan_hit_rate
from repro.workloads.synthetic import SyntheticConfig, generate_synthetic_database
from repro.workloads.tpch import generate_tpch_database


def serving_workload(
    scale: str = "quick", seed: int = 7
) -> Tuple[Database, List[str]]:
    """A mixed database and query-template set for serving benchmarks.

    The database holds the synthetic chain relations *and* a small TPC-H
    nation/region/supplier slice side by side; the templates join across
    widths 1–2 so both the acyclic and the cyclic planner paths serve.
    """
    n_atoms = 4 if scale == "quick" else 6
    config = SyntheticConfig(
        n_atoms=n_atoms, cardinality=120, selectivity=60, cyclic=True, seed=seed
    )
    database = generate_synthetic_database(config)

    tpch = generate_tpch_database(size_mb=2.0, seed=seed, analyze=False)
    for name in ("region", "nation", "supplier", "customer"):
        database.create_table(tpch.schema.relation(name), tpch.table(name).tuples)
    database.analyze()

    tables = ", ".join(f"rel{i}" for i in range(n_atoms))
    chain_conditions = " AND ".join(
        [f"rel{i}.y{i} = rel{i + 1}.x{i + 1}" for i in range(n_atoms - 1)]
        + [f"rel{n_atoms - 1}.y{n_atoms - 1} = rel0.x0"]
    )
    templates = [
        # Cyclic chain with a parameter slot (template 1).
        f"SELECT rel0.x0, rel0.y0 FROM {tables} "
        f"WHERE {chain_conditions} AND rel0.x0 < {{p}}",
        # TPC-H star slice over nation/region (template 2).
        "SELECT n_name, r_name FROM nation, region "
        "WHERE n_regionkey = r_regionkey AND n_nationkey < {p}",
        # Three-way TPC-H join (template 3).
        "SELECT s_name, n_name FROM supplier, nation, region "
        "WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
        "AND s_suppkey < {p}",
        # Customer-nation join with a filter (template 4).
        "SELECT c_name, n_name FROM customer, nation "
        "WHERE c_nationkey = n_nationkey AND c_custkey < {p}",
    ]
    return database, templates


def instantiate(templates: Sequence[str], repetitions: int) -> List[str]:
    """Expand templates × repetitions with varying parameters.

    Every repetition binds a different constant, so a cache keyed on query
    *text* would miss — only template-level fingerprints amortize.
    """
    queries: List[str] = []
    for rep in range(repetitions):
        for template in templates:
            queries.append(template.format(p=10 + 3 * rep))
    return queries


def _serving_config(
    database: Database,
    seed: int,
    workers: int,
    deadline_ms: "Optional[float]",
    inject: "Optional[str]",
    insights: bool,
) -> ServiceConfig:
    """The benchmarks' serving world (k = 3, warm 128-entry plan cache)."""
    return ServiceConfig(
        database=database,
        max_width=3,
        workers=workers,
        queue_capacity=max(32, workers * 4),
        cache_capacity=128,
        deadline_seconds=(
            deadline_ms / 1000.0 if deadline_ms is not None else None
        ),
        fault_spec=inject,
        seed=seed,
        insights=insights,
    )


def run_serving_throughput(
    scale: str = "quick",
    seed: int = 7,
    workers: int = 8,
    repetitions: int = 0,
    deadline_ms: "Optional[float]" = None,
    inject: "Optional[str]" = None,
    insights: bool = False,
) -> ExperimentResult:
    """Cold vs warm repeated-template serving over a mixed workload.

    One record per (system, repetition-batch): ``work`` is the *planning*
    work of that batch (the quantity the cache amortizes); wall-clock
    throughput and cache counters ride along in ``extra``.

    Args:
        deadline_ms: per-query deadline; deadline misses surface as errors
            and are counted in the ``deadline_misses`` extra.
        inject: a FAULTSPEC string (``site:kind:rate[:param]``, comma
            separated) driving a deterministic
            :class:`~repro.resilience.faults.FaultInjector`; each service
            run gets its own injector seeded from ``seed``.
        insights: attach a per-run
            :class:`~repro.obs.insights.registry.InsightsRegistry`; its
            snapshot and per-template counts ride along in the record
            extras.
    """
    repetitions = repetitions or (8 if scale == "quick" else 20)
    database, templates = serving_workload(scale, seed)
    result = ExperimentResult(
        experiment_id="serving",
        title="Serving throughput — plan cache cold vs warm "
        f"({len(templates)} templates × {repetitions} repetitions)",
    )

    config = _serving_config(
        database, seed, workers, deadline_ms, inject, insights
    )
    for system, cache_capacity in (("cold", 0), ("warm", 128)):
        service = replace(config, cache_capacity=cache_capacity).build()
        try:
            queries = instantiate(templates, repetitions)
            started = time.perf_counter()
            outcomes = service.run_all(queries, return_exceptions=True)
            elapsed = time.perf_counter() - started
            answers = [o for o in outcomes if not isinstance(o, Exception)]
            errors = [o for o in outcomes if isinstance(o, Exception)]
            snapshot = service.snapshot()
            planning = snapshot["planning"]
            resilience = snapshot["resilience"]
            latency = snapshot["latency_seconds"]
            deadline_misses = resilience["deadline_misses"]
            insight_extras = {}
            if insights:
                insight_snapshot = snapshot["insights"]
                insight_extras = {
                    "insights": insight_snapshot,
                    "insight_templates": len(insight_snapshot["templates"]),
                    "slow_outliers": sum(
                        len(entries)
                        for entries in insight_snapshot["slow_log"][
                            "outliers"
                        ].values()
                    ),
                }
            result.add(
                RunRecord(
                    system=system,
                    point=repetitions,
                    work=planning["work_units"],
                    simulated_seconds=planning["seconds"],
                    elapsed_seconds=elapsed,
                    finished=bool(answers)
                    and all(answer.finished for answer in answers),
                    answer_rows=sum(
                        len(answer.relation)
                        for answer in answers
                        if answer.relation is not None
                    ),
                    extra={
                        "plans_built": planning["built"],
                        "cache_hits": planning["cache_hits"],
                        "fallbacks": planning["fallbacks"],
                        "queries": len(queries),
                        "throughput_qps": round(len(queries) / elapsed, 1),
                        "errors": len(errors),
                        "deadline_misses": deadline_misses,
                        "deadline_miss_rate": round(
                            deadline_misses / len(queries), 4
                        ),
                        "degraded_lower_k": resilience["degraded_lower_k"],
                        "breaker_skips": resilience["breaker_skips"],
                        "latency_p50_ms": round(latency["p50"] * 1000, 3),
                        "latency_p99_ms": round(latency["p99"] * 1000, 3),
                        **insight_extras,
                    },
                    phase_work={
                        "decompose": planning["work_units"],
                        "optimize": 0,
                        "execute": snapshot["queries"]["work_units"],
                    },
                )
            )
        finally:
            service.close()
    cold = result.record_for("cold", repetitions)
    warm = result.record_for("warm", repetitions)
    if cold is not None and warm is not None and warm.work:
        result.notes.append(
            f"planning-work amortization: {cold.work / warm.work:.1f}×"
        )
    return result


# ---------------------------------------------------------------------------
# Multi-process sharded serving
# ---------------------------------------------------------------------------


def _insights_summary(merged_insights) -> dict:
    """Compact per-template summary of a merged insights snapshot.

    Full histograms would bloat the BENCH record; the trajectory only
    needs the headline shape: per-template query/error counts and the
    execute-phase p50/p99 from the merged streaming histograms.
    """
    from repro.obs.histogram import quantile_from_snapshot

    templates = {}
    if isinstance(merged_insights, dict):
        for key, entry in sorted(merged_insights.get("templates", {}).items()):
            latency = (
                entry.get("phases", {}).get("execute", {}).get("latency", {})
            )
            templates[key] = {
                "queries": entry.get("queries", 0),
                "errors": entry.get("errors", 0),
                "latency_p50_ms": round(
                    quantile_from_snapshot(latency, 0.50) * 1000, 3
                ),
                "latency_p99_ms": round(
                    quantile_from_snapshot(latency, 0.99) * 1000, 3
                ),
            }
    return {"templates": templates}


def _percentile(samples: Sequence[float], q: float) -> float:
    """Exact q-th percentile (nearest-rank) of client-observed samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    import math

    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _await_full_strength(router, shards: int, timeout: float) -> bool:
    """Poll until the supervisor has every shard serving again (bounded)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(router.live_shards()) == shards:
            return True
        time.sleep(0.05)
    return len(router.live_shards()) == shards


def run_sharded_serving(
    scale: str = "quick",
    seed: int = 7,
    shards: int = 4,
    workers: int = 2,
    repetitions: int = 0,
    deadline_ms: "Optional[float]" = None,
    inject: "Optional[str]" = None,
    insights: bool = False,
    kill_rate: float = 0.0,
    supervise: bool = False,
) -> dict:
    """Mixed multi-tenant traffic over a shard cluster vs one process.

    Each template plays a *tenant*: the instantiated workload interleaves
    every tenant's parameter-varied repetitions, so the router's
    consistent-hash routing partitions live template traffic across
    shards.  Two runs over identical queries:

    * **baseline** — one warm :class:`QueryService` with the same total
      worker-thread count (``shards × workers``);
    * **sharded** — a :class:`~repro.shard.router.ShardRouter` over
      ``shards`` worker processes, ``workers`` threads each.

    The report carries the acceptance-criteria numbers: byte-identical
    answers (rows *and* order, per query), client-observed p50/p99
    latency, peak saturation, and per-shard plan-cache hit rates against
    the single-process baseline.

    Fault injection (``inject``) disables the parity check — faulting
    runs produce explicit errors by design, not identical answers.

    A ``kill_rate`` > 0 turns the run into a **kill storm**: a seeded
    killer thread SIGKILLs a random live shard with probability
    ``kill_rate`` per tick while the workload runs (``supervise`` is
    implied — an unsupervised cluster cannot recover).  The report then
    carries a ``resilience`` section: availability (fraction of queries
    answered correctly rather than with a typed error), kill/restart/
    failover counts, recovery-time percentiles from the supervisor's
    streaming histogram, and whether the cluster returned to the full
    shard count before the drain.  Kill storms also disable the parity
    and hit-rate checks — crash-retried queries legitimately error when
    budgets run out, and a restarted shard's plan cache starts cold.
    """
    import os
    import random
    import signal as signal_module
    import threading

    from repro.shard import ShardRouter, SupervisorPolicy

    repetitions = repetitions or (8 if scale == "quick" else 20)
    database, templates = serving_workload(scale, seed)
    queries = instantiate(templates, repetitions)
    config = _serving_config(
        database, seed, workers, deadline_ms, inject, insights
    )
    # The baseline: the same world in one process with the cluster's
    # total worker-thread count.
    baseline_service = replace(
        config,
        workers=shards * workers,
        queue_capacity=max(32, shards * workers * 4),
        insights=False,
    ).build()
    try:
        started = time.perf_counter()
        baseline_outcomes = baseline_service.run_all(
            queries, return_exceptions=True
        )
        baseline_elapsed = time.perf_counter() - started
        baseline_snapshot = baseline_service.snapshot()
    finally:
        baseline_service.close()
    baseline_hit_rate = round(
        plan_hit_rate(baseline_snapshot["planning"]) or 0.0, 4
    )

    if not 0.0 <= kill_rate <= 1.0:
        raise ValueError("kill_rate must be within [0, 1]")
    supervise = supervise or kill_rate > 0
    policy = (
        SupervisorPolicy(
            max_restarts=max(5, shards * 4),
            backoff_base_seconds=0.02,
            backoff_cap_seconds=0.25,
            seed=seed,
        )
        if supervise
        else None
    )
    router = ShardRouter(config, shards=shards, supervise=policy)

    kills = 0
    stop_killer = threading.Event()

    def _storm() -> None:
        """SIGKILL a random live shard with p=kill_rate per 50ms tick."""
        nonlocal kills
        rng = random.Random(seed * 9176 + 11)
        while not stop_killer.wait(0.05):
            if rng.random() >= kill_rate:
                continue
            pids = {
                shard_id: pid
                for shard_id, pid in router.shard_pids().items()
                if pid is not None
            }
            if not pids:
                continue
            victim = rng.choice(sorted(pids))
            try:
                os.kill(pids[victim], signal_module.SIGKILL)
            except (ProcessLookupError, PermissionError):
                continue
            kills += 1

    killer = (
        threading.Thread(target=_storm, name="hdqo-bench-killer", daemon=True)
        if kill_rate > 0
        else None
    )
    try:
        started = time.perf_counter()
        if killer is not None:
            killer.start()
        sharded_outcomes = router.run_all(queries, return_exceptions=True)
        sharded_elapsed = time.perf_counter() - started
        stop_killer.set()
        if killer is not None:
            killer.join()
        recovered_to_full = True
        if killer is not None:
            recovered_to_full = _await_full_strength(router, shards, 30.0)
        latencies = router.client_latencies()
        saturation = router.saturation()
        live_snapshot = router.snapshot()
        live_after = len(router.live_shards())
    finally:
        stop_killer.set()
        drained_clean = router.drain(grace_seconds=30.0)

    identical = True
    compared = 0
    rows_total = 0
    for base, shard in zip(baseline_outcomes, sharded_outcomes):
        base_err = isinstance(base, Exception)
        shard_err = isinstance(shard, Exception)
        if base_err or shard_err:
            if inject is None and deadline_ms is None and kill_rate == 0:
                identical = False  # a fault-free run must not error
            continue
        compared += 1
        base_rel, shard_rel = base.relation, shard.relation
        if (base_rel is None) != (shard_rel is None):
            identical = False
            continue
        if base_rel is not None:
            rows_total += len(shard_rel)
            if (
                base_rel.attributes != shard_rel.attributes
                or base_rel.tuples != shard_rel.tuples
            ):
                identical = False

    hit_rates = {
        shard_id: rate
        for shard_id, rate in live_snapshot["cache_hit_rates"].items()
        if rate is not None
    }
    min_hit_rate = min(hit_rates.values()) if hit_rates else 0.0
    merged = live_snapshot["merged"]
    per_shard_view = live_snapshot["router"]["per_shard"]
    errors = sum(1 for o in sharded_outcomes if isinstance(o, Exception))

    resilience = None
    if supervise:
        supervisor_view = live_snapshot.get("supervisor") or {}
        supervisor_metrics = supervisor_view.get("metrics") or {}
        recovery = supervisor_metrics.get("recovery_seconds") or {}
        answered = len(sharded_outcomes) - errors
        resilience = {
            "kill_rate": kill_rate,
            "kills": kills,
            "availability": (
                round(answered / len(sharded_outcomes), 4)
                if sharded_outcomes
                else 1.0
            ),
            "worker_deaths": supervisor_metrics.get("worker_deaths", 0),
            "restarts": supervisor_metrics.get("restarts", 0),
            "failovers": supervisor_metrics.get("failovers", 0),
            "breaker_opens": supervisor_metrics.get("breaker_opens", 0),
            "unavailable": supervisor_metrics.get("unavailable", 0),
            "ring_epochs": supervisor_metrics.get("ring_epochs", 0),
            "recovery_count": recovery.get("count", 0),
            "recovery_p50_ms": round(
                float(recovery.get("p50", 0.0) or 0.0) * 1000, 3
            ),
            "recovery_p99_ms": round(
                float(recovery.get("p99", 0.0) or 0.0) * 1000, 3
            ),
            "recovered_to_full": recovered_to_full,
            "live_shards_after": live_after,
        }

    return {
        "benchmark": "sharded-serving",
        "scale": scale,
        "seed": seed,
        "shards": shards,
        "workers_per_shard": workers,
        "tenants": len(templates),
        "repetitions": repetitions,
        "queries": len(queries),
        "deadline_ms": deadline_ms,
        "inject": inject,
        "kill_rate": kill_rate,
        "supervise": supervise,
        "baseline": {
            "workers": shards * workers,
            "elapsed_seconds": round(baseline_elapsed, 4),
            "throughput_qps": round(len(queries) / baseline_elapsed, 1),
            "cache_hit_rate": baseline_hit_rate,
            "plans_built": baseline_snapshot["planning"]["built"],
            "cache_hits": baseline_snapshot["planning"]["cache_hits"],
        },
        "sharded": {
            "elapsed_seconds": round(sharded_elapsed, 4),
            "throughput_qps": round(len(queries) / sharded_elapsed, 1),
            "latency_p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
            "latency_p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
            "latency_max_ms": round(max(latencies) * 1000, 3)
            if latencies
            else 0.0,
            "saturation": round(saturation, 4),
            "per_shard_cache_hit_rates": {
                str(shard_id): rate
                for shard_id, rate in sorted(
                    live_snapshot["cache_hit_rates"].items()
                )
            },
            "min_shard_cache_hit_rate": min_hit_rate,
            "per_shard_dispatched": {
                str(shard_id): view["dispatched"]
                for shard_id, view in sorted(per_shard_view.items())
            },
            "plans_built_total": merged["planning"]["built"],
            "cache_hits_total": merged["planning"]["cache_hits"],
            "errors": errors,
            "drained_clean": drained_clean,
            **(
                {"insights": _insights_summary(merged.get("insights"))}
                if insights
                else {}
            ),
        },
        "parity": {
            "identical": identical,
            "compared": compared,
            "rows": rows_total,
            "checked": inject is None and kill_rate == 0,
        },
        # A restarted shard's plan cache legitimately starts cold, so the
        # hit-rate floor only binds on storm-free runs.
        "hit_rate_ok": kill_rate > 0
        or not hit_rates
        or min_hit_rate >= baseline_hit_rate,
        **({"resilience": resilience} if resilience is not None else {}),
    }

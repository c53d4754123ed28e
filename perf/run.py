"""The benchmark's one command.

    python3 perf/run.py --workload chain_exec --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with an untraced timed run,
``--trace 1`` the per-layer metrics with the count pass, the side passes
and the traced staged replay; without ``--trace`` both run on one set-up.
Without ``--workload`` all five workloads run in turn.  The last line of
standard output is one JSON object.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import harness, staged, workloads  # noqa: E402
from perf.spans import Recorder, validate  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
SMOKE_SECONDS = 0.4


class BenchTimeout(BaseException):
    """Raised in the main thread by the ``--timeout`` alarm.

    Not an ``Exception``: the handlers that turn a raising operation into a
    failed one must not swallow it.
    """


def _with_units(values: Dict[str, float], declared_metrics: List[dict]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}``; the names must be exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(
    name: str, seed: int, seconds: float, scale: str, trace: int, spec: dict,
    check_golden: bool,
) -> Dict[str, object]:
    """Set-up → the untraced timed run or the traced passes → teardown."""
    workload = workloads.build(name, seed, scale)
    print(f"== {name}  trace={trace} seed={seed} scale={scale} workload_digest={workload.digest()}")
    oracle = harness.Oracle(workload)
    if check_golden:
        oracle.check_golden(workload)
    print(
        f"   oracle: {len(oracle.digests)} reference answers, reference.py confirmed "
        f"by the built-in planner on {oracle.cross_checked} templates"
    )
    fixture, setups = harness.timed_setup(name, seed, scale, 1 if trace else SETUP_REPEATS)
    with fixture:
        warm_failed = sum(1 for op, out in fixture.warmup if not oracle.verify(op, out))
        fixture.warmup.clear()
        print(f"   warm-up: attempted {len(workload.warmup)} failed {warm_failed}")
        if trace:
            recorder = Recorder()
            result = staged.per_layer(fixture, oracle, seconds, recorder)
            recorder.write(OUT / f"{name}.spans.jsonl")
            oracle.problems.extend(f"span file: {p}" for p in validate(recorder.spans)[:5])
            print(
                f"   count pass + replay: attempted {result['attempted']} failed "
                f"{result['failed']}; {result['rounds']} replay round(s), "
                f"{len(recorder.spans)} spans -> perf/out/{name}.spans.jsonl"
            )
            metrics = _with_units(result["metrics"], spec["per_layer"])
        else:
            result = harness.end_to_end(fixture, oracle, setups, seconds)
            succeeded = result["attempted"] - result["failed"]
            print(
                f"   timed run: attempted {result['attempted']} succeeded {succeeded} "
                f"failed {result['failed']}; query_tail_ms is "
                f"p{round(result['tail_percentile'] * 100)} of {succeeded} samples"
            )
            metrics = _with_units(result["metrics"], spec["end_to_end"])
    for problem in oracle.problems:
        print(f"   PROBLEM: {problem}")
    for metric, entry in metrics.items():
        print(f"   {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
    return {
        "correct": result["failed"] == 0 and warm_failed == 0 and not oracle.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "workload_digest": workload.digest(),
        "reference_digests": oracle.digests,
    }


def _merge(into: Dict[str, dict], name: str, part: Dict[str, object]) -> None:
    """Fold one part's report into the workload's report."""
    report = into.setdefault(name, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
    report["correct"] = report["correct"] and part["correct"]
    report["attempted"] += part["attempted"]
    report["failed"] += part["failed"]
    report["metrics"].update(part["metrics"])
    report["workload_digest"] = part["workload_digest"]
    report["reference_digests"] = part["reference_digests"]


def leftovers() -> List[str]:
    """Names of threads and child processes that outlived the benchmark."""
    names = [
        f"thread {t.name}" for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    names += [f"process {p.name}" for p in multiprocessing.active_children()]
    return names


def _arm(timeout: float) -> None:
    def hard_stop(_signum: int, _frame: object) -> None:
        os._exit(124)  # clean-up itself hung: end the process and its threads

    def on_alarm(_signum: int, _frame: object) -> None:
        signal.signal(signal.SIGALRM, hard_stop)
        signal.setitimer(signal.ITIMER_REAL, 15)
        raise BenchTimeout(f"--timeout of {timeout:g} s exceeded")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, help="measured time per part")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--timeout", type=float, default=170.0, help="seconds per workload and part")
    parser.add_argument("--out", type=Path, help="also write the report here")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="rewrite perf/golden.json from this run's reference digests",
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = spec["run_seconds"] if args.scale == "full" else SMOKE_SECONDS
    traces = [0, 1] if args.trace is None else [args.trace]
    selected = [args.workload] if args.workload else names
    if set(names) != set(workloads.WORKLOADS):
        raise RuntimeError("BENCHMARK.json and perf/workloads.py list different workloads")

    # One CPU for every thread of the run.  Under the GIL one thread executes
    # at a time anyway; what a second core adds is cross-core wake-ups and
    # migrations, which on a shared 2-core host made serve_warm's p99 spread
    # by 20 % between runs (4 % pinned).  The numbers are a one-core
    # deployment's.  The last CPU, because system work gathers on the first.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # perf/golden.json holds the reference digests of seed 7 at full scale.
    check_golden = (
        args.seed == harness.GOLDEN_SEED and args.scale == "full" and not args.write_golden
    )
    reports: Dict[str, dict] = {}
    code = 0
    try:
        # Every untraced part runs before any traced one: the spans a replay
        # holds in memory would raise the ru_maxrss of whatever follows.
        for trace in traces:
            for name in selected:
                _arm(args.timeout)  # per workload and part
                part = run_workload(
                    name, args.seed, seconds, args.scale, trace, spec, check_golden
                )
                _merge(reports, name, part)
    except BenchTimeout as exc:
        print(f"perf: {exc}", file=sys.stderr)
        code = 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    left = leftovers()
    if left:
        print(f"perf: left running: {', '.join(left)}", file=sys.stderr)
        return 4
    if code:
        return code

    digests = {name: report.pop("reference_digests") for name, report in reports.items()}
    if args.write_golden:
        harness.GOLDEN.write_text(
            json.dumps({"seed": args.seed, "digests": digests}, indent=1, sort_keys=True) + "\n"
        )
    report = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "seed": args.seed,
        "scale": args.scale,
        "workloads": reports,
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.workload:
        # One workload: exactly the four keys the driver reads.
        one = reports[args.workload]
        report = {key: one[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record the sharded-serving benchmark into ``BENCH_serving.json``.

Mixed multi-tenant traffic over a shard cluster vs one single-process
baseline (p50/p99 client latency, saturation, per-shard plan-cache hit
rates, byte-identical-answer parity); gates on parity + per-shard hit rate
≥ baseline + a clean cross-shard drain:

    python scripts/bench_record.py --benchmark serving --shards 4

(Evaluator, kernel and thread-scaling numbers are the repo benchmark's:
``python3 perf/run.py``, ``parallel.*`` and ``kernel.*`` metrics.)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.record import stamp_record, validate_record


def run_serving(args: argparse.Namespace) -> dict:
    from repro.bench.serving import run_sharded_serving

    report = run_sharded_serving(
        scale=args.scale,
        shards=args.shards,
        workers=args.workers,
        repetitions=args.repetitions,
        kill_rate=args.kill_rate,
        supervise=args.supervise or args.kill_rate > 0,
    )
    report["python"] = platform.python_version()
    report["machine"] = platform.machine()
    return report


def write_report(report: dict, output: Path, root: Path) -> None:
    """Stamp provenance and write the record — refusing invalid schemas.

    Every artifact this script produces carries the git SHA and an
    ISO-8601 UTC timestamp, and is schema-validated *before* the write so
    a malformed record never lands on the perf trajectory.
    """
    stamp_record(report, cwd=str(root))
    problems = validate_record(report)
    if problems:
        raise SystemExit(
            "refusing to write invalid bench record:\n"
            + "\n".join(f"  - {problem}" for problem in problems)
        )
    output.write_text(json.dumps(report, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmark",
        choices=["serving"],
        default="serving",
        help="the benchmark to record (one today; kept so recorded command "
        "lines stay valid)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_serving.json at the repo root)",
    )
    parser.add_argument(
        "--scale", choices=["quick", "full"], default="quick"
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard processes"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="threads per shard"
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=0,
        help="repetitions per tenant template, 0 = scale default",
    )
    parser.add_argument(
        "--kill-rate",
        type=float,
        default=0.0,
        help="SIGKILL a random live shard with this probability per tick "
        "while the workload runs; records availability and recovery "
        "percentiles",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="run the shard cluster under the self-healing supervisor "
        "(implied by --kill-rate > 0)",
    )
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    output = Path(args.output or root / "BENCH_serving.json")

    report = run_serving(args)
    write_report(report, output, root)
    print(json.dumps(report, indent=2))
    parity = report["parity"]["identical"] or not report["parity"]["checked"]
    hit_rate_ok = report["hit_rate_ok"]
    drained = report["sharded"]["drained_clean"]
    print(
        f"\nparity={parity} per-shard-hit-rate>=baseline={hit_rate_ok} "
        f"drain-clean={drained}"
    )
    resilience = report.get("resilience")
    recovered = True
    if resilience is not None:
        recovered = resilience["recovered_to_full"]
        print(
            f"availability={resilience['availability']:.2%} "
            f"kills={resilience['kills']} "
            f"restarts={resilience['restarts']} "
            f"recovered-to-full={recovered}"
        )
    return 0 if parity and hit_rate_ok and drained and recovered else 1


if __name__ == "__main__":
    raise SystemExit(main())

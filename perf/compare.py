"""Compare two sets of benchmark reports, metric by metric.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

A report is what ``perf/run.py --out FILE`` writes.  Per (workload,
end-to-end metric) this prints both medians, the ratio B/A with its base,
the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` A's own runs spread (quartile distance ÷ median) wider
  than the bound, unless every run of B reads better than every run of A.

Count metrics that repeat exactly for a seed are compared for equality, as
are the ``workload_digest`` values.  Exit code 1 when anything is ``worse``
or differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics that are counts of a single-client pass over a fixed
#: sample: for one seed they must not differ between two runs of one commit.
EXACT = (
    "query.atoms_mean", "plancache.hit_rate", "plancache.inserts",
    "plancache.evictions_lru", "plancache.invalidations", "decompose.plan_units",
    "decompose.plans_built", "decompose.width_mean", "decompose.nodes_mean",
    "decompose.invalid", "qhd.atoms_pruned", "scan.work_units", "exec.work_units",
    "exec.rows_out", "parallel.work_units", "kernel.join_work_units",
    "kernel.fused_work_units", "builtin.work_units", "trace.replay_mismatches",
    "trace.work_unit_drift",
)


def _load(paths: str) -> List[Dict[str, dict]]:
    """Each report as ``{workload: report}``."""
    reports = []
    for path in paths.split(","):
        report = json.loads(Path(path).read_text())
        if "workloads" not in report:
            raise SystemExit(f"{path}: not a report of all workloads (run without --workload)")
        reports.append(report["workloads"])
    return reports


def _values(reports: List[Dict[str, dict]], workload: str, metric: str) -> List[float]:
    return [
        r[workload]["metrics"][metric]["value"]
        for r in reports
        if metric in r.get(workload, {}).get("metrics", {})
    ]


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    side_a, side_b = _load(argv[0]), _load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    print(f"{'workload':12s} {'metric':16s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = _values(side_a, workload, metric["name"])
            b = _values(side_b, workload, metric["name"])
            if not a or not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            lower_is_better = metric["better"] == "lower"
            worsening = (other - base) / base if lower_is_better else (base - other) / base
            all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
            if _spread(a) > metric["bound"] and not all_better:
                verdict = f"unresolved (A spreads {_spread(a):.3f})"
            elif worsening > metric["bound"]:
                verdict, bad = "worse", bad + 1
            else:
                verdict = "ok"
            print(
                f"{workload:12s} {metric['name']:16s} {base:12.4f} {other:12.4f} "
                f"{other / base:8.3f} {metric['bound']:6.2f}  {verdict} "
                f"(base A = {base:.4g} {metric['unit']})"
            )
        for metric in EXACT:
            a, b = _values(side_a, workload, metric), _values(side_b, workload, metric)
            if a and b and set(a) != set(b):
                bad += 1
                print(f"{workload:12s} {metric}: counts differ, A {sorted(set(a))} B {sorted(set(b))}")
        digests = {r[workload]["workload_digest"] for r in side_a + side_b if workload in r}
        if len(digests) > 1:
            bad += 1
            print(f"{workload:12s} workload_digest differs: the runs measured different inputs")
    print(
        "nothing worse; every exact count and workload_digest identical"
        if not bad else f"{bad} problem(s)"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

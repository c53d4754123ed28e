#!/usr/bin/env python
"""Run the serving throughput benchmark under tracing and validate the spans.

CI's observability job: executes the cold-vs-warm serving benchmark with
insights on and a process-wide :class:`repro.obs.tracing.Tracer`
installed, exports every span (``serve.query``, ``serve.plan``,
``serve.execute``, ``decompose.*``, ``qhd.node``) as JSONL, and fails
(exit 1) when

* the tracer reports a consistency problem — a negative span duration, a
  negative work-unit delta, or an unmatched open/close under the
  executor pool — or an expected span name is missing;
* replaying the spans (:func:`repro.obs.insights.report.analyze_spans`)
  does not rebuild the live insights registries' per-template records
  (:func:`repro.obs.insights.report.replay_mismatches`).

Usage::

    PYTHONPATH=src python scripts/trace_serving_benchmark.py [spans.jsonl]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import render_series_table  # noqa: E402
from repro.bench.serving import run_serving_throughput  # noqa: E402
from repro.obs.insights import (  # noqa: E402
    analyze_spans,
    merge_insights_snapshots,
    replay_mismatches,
)
from repro.obs.tracing import tracing  # noqa: E402


def main(argv: list) -> int:
    out_path = Path(argv[1]) if len(argv) > 1 else Path("spans.jsonl")

    with tracing() as tracer:
        result = run_serving_throughput(scale="quick", insights=True)

    print(render_series_table(result, metric="work", point_label="repetitions"))

    exported = tracer.export_jsonl(out_path)
    by_name: dict = {}
    for span in tracer.spans():
        by_name[span.name] = by_name.get(span.name, 0) + 1
    print(f"\nexported {exported} spans -> {out_path}")
    for name in sorted(by_name):
        print(f"  {name:<20} {by_name[name]:>6}")
    if tracer.dropped:
        print(f"  (dropped beyond retention cap: {tracer.dropped})")

    problems = tracer.validate()
    expected = {
        "serve.query", "serve.plan", "serve.execute", "decompose.search",
        "qhd.node",
    }
    missing = expected - set(by_name)
    if missing:
        problems.append(f"expected span names missing: {sorted(missing)}")
    # The cold and the warm run each kept a live registry; the replay of
    # the one trace must rebuild their merge.
    live = merge_insights_snapshots(
        [record.extra["insights"] for record in result.records]
    )
    problems += [
        f"replay != live: {mismatch}"
        for mismatch in replay_mismatches(live, analyze_spans(tracer.to_records()))
    ]
    if problems:
        for problem in problems:
            print(f"TRACE PROBLEM: {problem}", file=sys.stderr)
        return 1
    print(f"replay == live for {len(live['templates'])} template(s)")
    print("trace validation: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Self-test of the benchmark: ``python -m pytest perf -q`` (not tier-1).

Runs all five workloads at ``--scale smoke`` in a child interpreter — the
benchmark itself starts no process — and checks the report against
``BENCHMARK.json``, the span files, and the leave-nothing-running guard.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT)]
from perf import spans  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def smoke() -> dict:
    finished = _run("--scale", "smoke", "--seed", "3")
    # Exit code 0 also means the guard found the main thread alone and no
    # child process before the report was printed.
    assert finished.returncode == 0, finished.stderr[-2000:]
    return json.loads(finished.stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json(smoke: dict) -> None:
    assert list(smoke["workloads"]) == WORKLOADS
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in WORKLOADS + declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload, report in smoke["workloads"].items():
        assert sorted(report["metrics"]) == sorted(declared), workload
        for name, entry in report["metrics"].items():
            assert isinstance(entry["value"], (int, float)), (workload, name)


def test_no_operation_failed(smoke: dict) -> None:
    assert smoke["correct"] and smoke["failed"] == 0 and smoke["attempted"] > 0
    for workload, report in smoke["workloads"].items():
        assert report["correct"] and report["failed"] == 0, workload
        for must_be_zero in (
            "decompose.invalid", "trace.replay_mismatches", "trace.work_unit_drift"
        ):
            assert report["metrics"][must_be_zero]["value"] == 0, (workload, must_be_zero)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_validates(smoke: dict, workload: str) -> None:
    recorded = spans.read(PERF / "out" / f"{workload}.spans.jsonl")
    assert recorded and spans.validate(recorded) == []
    assert {"op", "query.parse", "scan", "exec.eval", "wire.roundtrip"} <= {
        span["name"] for span in recorded
    }


def test_validate_rejects_broken_spans() -> None:
    sound = [
        {"id": 2, "op": "a", "parent": 1, "name": "scan", "start": 1.0, "end": 2.0, "counts": {}},
        {"id": 1, "op": "a", "parent": None, "name": "op", "start": 0.0, "end": 3.0, "counts": {}},
    ]
    assert spans.validate(sound) == []
    orphan = [dict(sound[0], parent=9), sound[1]]
    outside = [dict(sound[0], end=4.0), sound[1]]
    overlapping = [dict(sound[0], id=3, start=0.5, end=2.5), dict(sound[0], end=2.9), sound[1]]
    for broken in (orphan, outside, overlapping):
        assert spans.validate(broken), broken


def test_one_workload_prints_the_contract_line() -> None:
    finished = _run(
        "--scale", "smoke", "--workload", "serve_warm", "--seed", "3", "--trace", "0"
    )
    assert finished.returncode == 0, finished.stderr[-2000:]
    line = json.loads(finished.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_timeout_exits_non_zero_without_a_result() -> None:
    finished = _run("--workload", "plan_cold", "--timeout", "1")
    assert finished.returncode == 3
    assert "exceeded" in finished.stderr and "left running" not in finished.stderr
    assert not finished.stdout.strip().splitlines()[-1].startswith("{")

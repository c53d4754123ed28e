"""Bench-record provenance: stamping, schema validation, the one writer.

Every ``BENCH_*.json`` file is one point on the repo's perf trajectory,
and a point is only comparable if it says *what code* produced it and
*when*: :func:`stamp_record` adds the git SHA and an ISO-8601 UTC
timestamp, and :func:`validate_record` checks the record's shape before
it is written.  :func:`write_record` is the write side
(``hdqo bench-serve --shards N --record FILE``); ``hdqo report
--baseline`` validates on the read side.

The wall clock appears here deliberately: a *recorded artifact's*
provenance timestamp is metadata about the file, not measurement state —
the no-wall-clock rule governs the measured core, not the recorder.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
from typing import Any, List, Mapping, Optional

__all__ = ["stamp_record", "validate_record", "write_record", "git_sha"]

#: Per-benchmark required top-level keys (beyond the common ones).
_REQUIRED_KEYS = {
    "sharded-serving": (
        "scale",
        "shards",
        "baseline",
        "sharded",
        "parity",
        "hit_rate_ok",
    ),
}


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current commit SHA, or None outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def stamp_record(
    record: dict, cwd: Optional[str] = None, sha: Optional[str] = None
) -> dict:
    """Add provenance (``git_sha``, ``recorded_at``) to a bench record.

    Mutates and returns ``record``.  ``sha`` overrides discovery (tests);
    an undiscoverable SHA stamps ``None`` rather than omitting the key,
    so a stamped-but-dirty environment is visible in the artifact.
    """
    record["git_sha"] = sha if sha is not None else git_sha(cwd)
    record["recorded_at"] = (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z")
    )
    return record


def validate_record(
    record: Mapping[str, Any], require_stamp: bool = True
) -> List[str]:
    """Schema problems in a bench record; empty when valid.

    Args:
        require_stamp: demand the provenance stamp (the write-side
            contract; readers facing pre-stamp history pass False and
            warn instead).
    """
    problems: List[str] = []
    benchmark = record.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        problems.append("missing 'benchmark' name")
        return problems
    required = _REQUIRED_KEYS.get(benchmark)
    if required is None:
        problems.append(f"unknown benchmark kind {benchmark!r}")
        return problems
    for key in required:
        if key not in record:
            problems.append(f"missing required key {key!r}")
    if benchmark == "sharded-serving":
        for section in ("baseline", "sharded"):
            value = record.get(section)
            if section in record and not isinstance(value, Mapping):
                problems.append(f"{section!r} must be an object")
        sharded = record.get("sharded")
        if isinstance(sharded, Mapping):
            for key in ("latency_p50_ms", "latency_p99_ms", "errors"):
                if key not in sharded:
                    problems.append(f"'sharded' missing {key!r}")
        resilience = record.get("resilience")
        if resilience is not None:
            if not isinstance(resilience, Mapping):
                problems.append("'resilience' must be an object")
            else:
                for key in (
                    "availability",
                    "kills",
                    "recovered_to_full",
                    "recovery_p50_ms",
                    "recovery_p99_ms",
                ):
                    if key not in resilience:
                        problems.append(f"'resilience' missing {key!r}")
    if require_stamp:
        sha = record.get("git_sha")
        if "git_sha" not in record:
            problems.append("missing provenance stamp 'git_sha'")
        elif sha is not None and not (
            isinstance(sha, str) and len(sha) == 40
        ):
            problems.append(f"'git_sha' is not a 40-char SHA: {sha!r}")
        recorded_at = record.get("recorded_at")
        if not isinstance(recorded_at, str):
            problems.append("missing provenance stamp 'recorded_at'")
        else:
            try:
                datetime.datetime.fromisoformat(
                    recorded_at.replace("Z", "+00:00")
                )
            except ValueError:
                problems.append(
                    f"'recorded_at' is not ISO-8601: {recorded_at!r}"
                )
    return problems


def write_record(report: Mapping[str, Any], path: str) -> dict:
    """Write ``report`` to ``path`` as a stamped, validated bench record.

    Adds the environment envelope (``python``, ``machine``) and the
    provenance stamp, and validates *before* the write so a malformed
    record never lands on the perf trajectory (``ValueError``, nothing
    written).  Returns the record as written.
    """
    record = dict(
        report,
        python=platform.python_version(),
        machine=platform.machine(),
    )
    # The SHA of the checkout this code runs from, wherever it is run.
    problems = validate_record(
        stamp_record(record, cwd=os.path.dirname(__file__))
    )
    if problems:
        raise ValueError(
            "refusing to write invalid bench record:\n"
            + "\n".join(f"  - {problem}" for problem in problems)
        )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record

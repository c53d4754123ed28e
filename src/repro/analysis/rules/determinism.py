"""Determinism: no wall clock, no global randomness in metered paths.

The paper's evaluation depends on *machine-independent* cost accounting:
plans are compared by WorkMeter units, not seconds, and every randomized
component (GEQO, synthetic workloads) is driven by an explicitly seeded
``random.Random`` instance.  A stray ``time.time()`` in a cost model or a
module-level ``random.random()`` in the planner silently re-introduces
nondeterminism — runs stop being reproducible and regression baselines
drift.  This rule bans, inside ``repro/core/`` and ``repro/engine/``:

* wall-clock timestamp reads — ``time.time()`` / ``time.time_ns()`` /
  ``time.localtime()`` … (and ``from time import time``);
  monotonic *duration* clocks (``time.monotonic()``,
  ``time.perf_counter()``) stay allowed: deadlines and reported latencies
  measure elapsed time, which does not make plans time-dependent;
* ``datetime.now()`` / ``utcnow()`` / ``today()`` rooted at ``datetime``
  or ``date``;
* calls on the *module-level* ``random`` generator — ``random.random()``,
  ``random.shuffle()``, … — while still allowing ``random.Random(seed)``
  and ``random.SystemRandom`` construction (an owned, seeded instance is
  the sanctioned pattern).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.base import FileRule, FileSource, Finding, attr_chain

_WALL_CLOCK_CALLS = frozenset(
    {"time", "time_ns", "ctime", "asctime", "localtime", "gmtime", "strftime"}
)
_DATETIME_ROOTS = frozenset({"datetime", "date"})
_DATETIME_CALLS = frozenset({"now", "utcnow", "today"})
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})


class WallClockRule(FileRule):
    """Metered paths must not read the wall clock or global randomness."""

    rule_id = "no-wall-clock"
    description = (
        "time.*, datetime.now()/utcnow()/today() and module-level random.*"
        " are banned in core/ and engine/; use WorkMeter units and a seeded"
        " random.Random instance"
    )
    scopes = ("repro/core/", "repro/engine/")

    def check_file(self, source: FileSource) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import(source, node))
            elif isinstance(node, ast.Call):
                finding = self._check_call(source, node)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_import(
        self, source: FileSource, node: ast.ImportFrom
    ) -> List[Finding]:
        findings: List[Finding] = []
        if node.module == "time":
            bad = [
                alias.name
                for alias in node.names
                if alias.name in _WALL_CLOCK_CALLS
            ]
            if bad:
                findings.append(
                    self.finding(
                        source,
                        node,
                        "importing wall-clock functions "
                        f"({', '.join(bad)}) from time into a metered path; "
                        "cost is measured in WorkMeter units here",
                    )
                )
        elif node.module == "random":
            bad = [
                alias.name
                for alias in node.names
                if alias.name not in _RANDOM_ALLOWED
            ]
            if bad:
                findings.append(
                    self.finding(
                        source,
                        node,
                        "importing the global generator functions "
                        f"({', '.join(bad)}) from random defeats seeding; "
                        "construct a random.Random(seed) instance instead",
                    )
                )
        return findings

    def _check_call(self, source: FileSource, node: ast.Call) -> "Finding | None":
        chain = attr_chain(node.func)
        if chain is None or len(chain) < 2:
            return None
        root, leaf = chain[0], chain[-1]
        if root == "time" and leaf in _WALL_CLOCK_CALLS:
            return self.finding(
                source,
                node,
                f"{'.'.join(chain)}() reads the wall clock inside a metered "
                "path; cost here is measured in WorkMeter units",
            )
        if root in _DATETIME_ROOTS and leaf in _DATETIME_CALLS:
            return self.finding(
                source,
                node,
                f"{'.'.join(chain)}() reads the wall clock inside a metered "
                "path; plans must not depend on the current time",
            )
        if root == "random" and leaf not in _RANDOM_ALLOWED:
            return self.finding(
                source,
                node,
                f"{'.'.join(chain)}() uses the shared module-level generator; "
                "its state leaks across components — construct a seeded "
                "random.Random instance instead",
            )
        return None

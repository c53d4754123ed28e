"""The rule catalogue: every id ``hdqo lint --select`` accepts.

Each rule guards one of the stack's unwritten invariants; see the module
docstrings for the precise semantics and the rationale.  The first five
look at one file at a time (:class:`~repro.analysis.base.FileRule`); the
``interproc-*`` three read the whole program
(:mod:`repro.analysis.interproc`).

==========================  ========  ===================================
rule id                     severity  guards
==========================  ========  ===================================
``checkpoint-coverage``     error     work-charging row loops checkpoint
``work-charging``           error     operators use the meter they accept
``no-wall-clock``           error     metered paths are deterministic
``error-swallowing``        error     broad handlers re-raise aborts
``span-balance``            error     tracer spans are context-managed
``interproc-lock-order``    error     lock acquisition order is acyclic
``interproc-race``          error     guarded attributes stay guarded
``interproc-determinism``   error     set order never reaches a plan
==========================  ========  ===================================
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.base import Rule
from repro.analysis.interproc import (
    DeterminismAnalysis,
    LockOrderAnalysis,
    SharedStateRaceAnalysis,
)
from repro.analysis.rules.checkpoints import CheckpointCoverageRule, WorkChargingRule
from repro.analysis.rules.determinism import WallClockRule
from repro.analysis.rules.errors import ErrorSwallowingRule
from repro.analysis.rules.spans import SpanBalanceRule

ALL_RULES: Tuple[Rule, ...] = (
    CheckpointCoverageRule(),
    WorkChargingRule(),
    WallClockRule(),
    ErrorSwallowingRule(),
    SpanBalanceRule(),
    LockOrderAnalysis(),
    SharedStateRaceAnalysis(),
    DeterminismAnalysis(),
)

__all__ = [
    "ALL_RULES",
    "CheckpointCoverageRule",
    "WorkChargingRule",
    "WallClockRule",
    "ErrorSwallowingRule",
    "SpanBalanceRule",
]

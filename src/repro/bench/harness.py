"""Experiment harness: run records, budgets, and DNF bookkeeping.

Every experiment point is a :class:`RunRecord`: which system, which
workload parameters, how much *work* (the machine-independent time proxy)
it took, and whether it finished within the budget — the paper's
"executions do not terminate after more than 10 minutes" becomes
``finished=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

DNF = "DNF"


@dataclass
class RunRecord:
    """One measured execution.

    Attributes:
        system: label of the executing configuration
            (e.g. ``"commdb+stats"``, ``"q-hd"``).
        point: the x-axis value (number of atoms, database size, …).
        work: work units spent (present even for unfinished runs).
        simulated_seconds: work scaled by the engine's time factor.
        elapsed_seconds: wall-clock time of the run.
        finished: False when the work budget was exhausted.
        answer_rows: size of the produced answer (None when unfinished).
        extra: free-form extras (plan text, decomposition width, …).
        phase_work: per-phase work-unit breakdown
            (``{"decompose": …, "optimize": …, "execute": …}`` — see
            :func:`repro.metering.split_phases`); empty when the runner
            did not report one.
    """

    system: str
    point: object
    work: int
    simulated_seconds: float
    elapsed_seconds: float
    finished: bool
    answer_rows: Optional[int] = None
    extra: Dict[str, object] = field(default_factory=dict)
    phase_work: Dict[str, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """All records of one experiment, with helpers to slice into series."""

    experiment_id: str
    title: str
    records: List[RunRecord] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def systems(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.system not in seen:
                seen.append(record.system)
        return seen

    def points(self) -> List[object]:
        seen: List[object] = []
        for record in self.records:
            if record.point not in seen:
                seen.append(record.point)
        return seen

    def series(self, system: str) -> List[RunRecord]:
        return [r for r in self.records if r.system == system]

    def record_for(self, system: str, point: object) -> Optional[RunRecord]:
        for record in self.records:
            if record.system == system and record.point == point:
                return record
        return None

    def consistent_answers(self) -> bool:
        """True when all finished systems agree on answer sizes per point.

        A cheap cross-validation: systems computing the same query must
        produce equally many rows.  Records carrying an ``extra["group"]``
        are only compared within their group (e.g. acyclic vs chain series
        sharing x-axis values).
        """
        groups = {
            (record.point, record.extra.get("group", ""))
            for record in self.records
        }
        for point, group in groups:
            sizes = {
                record.answer_rows
                for record in self.records
                if record.point == point
                and record.extra.get("group", "") == group
                and record.finished
                and record.answer_rows is not None
            }
            if len(sizes) > 1:
                return False
        return True


def run_with_budget(
    runner: Callable[[], "object"],
    system: str,
    point: object,
) -> RunRecord:
    """Execute one measurement and normalize it into a :class:`RunRecord`.

    ``runner`` returns a :class:`repro.engine.dbms.DBMSResult`-shaped
    object (fields ``work``, ``simulated_seconds``, ``elapsed_seconds``,
    ``finished``, ``relation``).  A ``work_breakdown`` field, when present,
    is split into the per-phase columns (see
    :func:`repro.metering.split_phases`).
    """
    from repro.metering import split_phases

    result = runner()
    relation = getattr(result, "relation", None)
    breakdown = getattr(result, "work_breakdown", None)
    return RunRecord(
        system=system,
        point=point,
        work=getattr(result, "work", 0),
        simulated_seconds=getattr(result, "simulated_seconds", 0.0),
        elapsed_seconds=getattr(result, "elapsed_seconds", 0.0),
        finished=getattr(result, "finished", True),
        answer_rows=len(relation) if relation is not None else None,
        extra={"optimizer": getattr(result, "optimizer", "?")},
        phase_work=split_phases(breakdown) if breakdown else {},
    )

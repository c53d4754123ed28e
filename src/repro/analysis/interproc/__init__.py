"""The program model and the three whole-program analyses.

:mod:`~repro.analysis.interproc.model` parses the source tree once into
a :class:`~repro.analysis.interproc.model.ProgramModel` — the object
every rule checks — and, on request, resolves a call graph over it.
Three rules read that graph:

* :mod:`~repro.analysis.interproc.lockorder` — the static
  may-acquire-after graph over ``make_lock`` names must be acyclic
  (``interproc-lock-order``);
* :mod:`~repro.analysis.interproc.races` — guarded attributes of
  lock-owning or thread-reached classes must be accessed under the class
  lock, and ``*_locked`` helpers called with it held (``interproc-race``);
* :mod:`~repro.analysis.interproc.ordering` — set iteration order must
  not flow into plans, routing, or wire messages
  (``interproc-determinism``).

They sit in the one catalogue (:data:`repro.analysis.rules.ALL_RULES`)
beside the per-file rules and run through the one driver
(:func:`repro.analysis.driver.run_analysis`, ``hdqo lint``).
"""

from repro.analysis.interproc.lockorder import (
    LockGraph,
    LockOrderAnalysis,
    build_lock_graph,
)
from repro.analysis.interproc.model import (
    ProgramModel,
    index_program,
    resolve_program,
)
from repro.analysis.interproc.ordering import DeterminismAnalysis
from repro.analysis.interproc.races import SharedStateRaceAnalysis

__all__ = [
    "DeterminismAnalysis",
    "LockGraph",
    "LockOrderAnalysis",
    "ProgramModel",
    "SharedStateRaceAnalysis",
    "build_lock_graph",
    "index_program",
    "resolve_program",
]

"""Simulated DBMS substrate.

The paper measures PostgreSQL 8.3 and a commercial system ("CommDB").
Neither can ship in a self-contained reproduction, so this package provides
an instrumented, from-scratch engine whose optimizer and executor exhibit
the same algorithmic behaviours the paper's figures measure:

* :mod:`repro.engine.cost` — textbook cardinality estimation, with and
  without statistics (the no-ANALYZE mode uses magic defaults), shared
  with the decomposition cost model;
* :mod:`repro.engine.optimizer` — System-R dynamic programming over join
  orders (left-deep or bushy);
* :mod:`repro.engine.geqo` — a genetic join-order search (PostgreSQL's
  GEQO equivalent) used above a configurable relation-count threshold;
* :mod:`repro.engine.dbms` — the façade: engine profiles ``PostgresLike``
  and ``CommDBLike``, SQL entry point, the one executor of join plans
  (hash or nested-loop joins over
  :class:`repro.relational.relation.Relation`, work-metered, with spill
  charges), and the *optimizer handler* hook the tight coupling replaces
  (Fig. 6 of the paper).
"""

from repro.engine.plan import JoinNode, PlanNode, ScanNode, render_plan
from repro.engine.cost import Estimate, atom_estimates
from repro.engine.optimizer import JoinOrderOptimizer
from repro.engine.geqo import GeqoOptimizer
from repro.engine.dbms import (
    COMMDB_PROFILE,
    POSTGRES_PROFILE,
    EngineProfile,
    SimulatedDBMS,
)

__all__ = [
    "PlanNode",
    "ScanNode",
    "JoinNode",
    "render_plan",
    "Estimate",
    "atom_estimates",
    "JoinOrderOptimizer",
    "GeqoOptimizer",
    "EngineProfile",
    "SimulatedDBMS",
    "POSTGRES_PROFILE",
    "COMMDB_PROFILE",
]

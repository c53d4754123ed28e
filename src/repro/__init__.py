"""repro — Query-oriented hypertree decompositions for query optimization.

A full reproduction of Ghionna, Granata, Greco & Scarcello, *Hypertree
Decompositions for Query Optimization* (ICDE 2007): the q-hypertree
decomposition notion, the cost-k-decomp hybrid optimizer, a stand-alone SQL
view rewriter, a tight coupling with a simulated PostgreSQL-like engine,
and the full experimental harness (TPC-H Q5/Q8, acyclic and chain
workloads).

Quickstart::

    from repro import parse_sql
    from repro.core import HybridOptimizer
    from repro.workloads.tpch import generate_tpch_database

    db = generate_tpch_database(size_mb=10, seed=0)
    optimizer = HybridOptimizer(database=db, max_width=4)
    plan = optimizer.optimize("SELECT ... FROM ... WHERE ...")
    answer = plan.execute()
"""

from repro.errors import (
    DeadlineExceeded,
    DecompositionError,
    DecompositionNotFound,
    ExecutionError,
    HypergraphError,
    InjectedFault,
    MemoryBudgetExceeded,
    OptimizationError,
    QueryCancelled,
    QueryError,
    ReproError,
    SchemaError,
    SqlSyntaxError,
    WorkBudgetExceeded,
)
from repro.hypergraph import Hyperedge, Hypergraph, is_acyclic
from repro.query import ConjunctiveQuery, Atom, parse_sql, sql_to_conjunctive
from repro.relational import Database, Relation
from repro.metering import SpillModel, WorkMeter
from repro.core import (
    Hypertree,
    HybridOptimizer,
    det_k_decomp,
    hypertree_width,
    install_structural_optimizer,
    q_hypertree_decomp,
)
from repro.engine import COMMDB_PROFILE, POSTGRES_PROFILE, SimulatedDBMS
from repro.errors import ServiceClosed, ServiceError, ServiceOverloaded
from repro.service import PlanCache, QueryService, ServiceMetrics
from repro.obs import Tracer, current_tracer, tracing
from repro.resilience import (
    CancellationToken,
    CircuitBreaker,
    Deadline,
    ExecutionContext,
    FaultInjector,
    MemoryBudget,
    current_context,
    resilient,
)

__version__ = "1.3.0"

__all__ = [
    "ReproError",
    "HypergraphError",
    "QueryError",
    "SqlSyntaxError",
    "SchemaError",
    "ExecutionError",
    "WorkBudgetExceeded",
    "DeadlineExceeded",
    "QueryCancelled",
    "MemoryBudgetExceeded",
    "InjectedFault",
    "DecompositionError",
    "DecompositionNotFound",
    "OptimizationError",
    "Hyperedge",
    "Hypergraph",
    "is_acyclic",
    "ConjunctiveQuery",
    "Atom",
    "parse_sql",
    "sql_to_conjunctive",
    "Database",
    "Relation",
    "WorkMeter",
    "SpillModel",
    "Hypertree",
    "HybridOptimizer",
    "det_k_decomp",
    "hypertree_width",
    "install_structural_optimizer",
    "q_hypertree_decomp",
    "SimulatedDBMS",
    "COMMDB_PROFILE",
    "POSTGRES_PROFILE",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceClosed",
    "QueryService",
    "PlanCache",
    "ServiceMetrics",
    "Tracer",
    "current_tracer",
    "tracing",
    "Deadline",
    "CancellationToken",
    "ExecutionContext",
    "MemoryBudget",
    "FaultInjector",
    "CircuitBreaker",
    "current_context",
    "resilient",
    "__version__",
]

"""The evaluator-level fan-out pieces, under the names their callers use.

A served or stand-alone query folds its decomposition inline, on the
calling thread.  :class:`~repro.core.evaluator.QHDEvaluator` still takes
``workers >= 2`` to fan nodes out on a :class:`~repro.core.pool.SubtreePool`
because the benchmark's per-layer ``parallel.*`` metrics
(``perf/staged.py``) and the evaluator's worker-count parity tests use it;
this module goes with those metrics.
"""

from repro.core.evaluator import QHDEvaluator as ParallelQHDEvaluator
from repro.core.evaluator import subtree_signature
from repro.core.pool import SubtreePool
from repro.relational.relation import Relation

fused_join_project = Relation.join_project
joined_attributes = Relation.joined_attributes

__all__ = [
    "ParallelQHDEvaluator",
    "SubtreePool",
    "subtree_signature",
    "fused_join_project",
    "joined_attributes",
]

"""Intra-query parallel q-HD evaluation — the names of its pieces.

The implementation lives with the evaluator: one
:class:`~repro.core.evaluator.QHDEvaluator` fans decomposition nodes out
on a :class:`~repro.core.pool.SubtreePool` when ``workers >= 2``, shares
subtree materializations through a :class:`~repro.core.memo.NodeMemo`,
and folds with :meth:`Relation.join_project
<repro.relational.relation.Relation.join_project>`.
"""

from repro.core.evaluator import QHDEvaluator as ParallelQHDEvaluator
from repro.core.memo import NodeMemo, subtree_signature
from repro.core.pool import SubtreePool
from repro.relational.relation import Relation

fused_join_project = Relation.join_project
joined_attributes = Relation.joined_attributes

__all__ = [
    "ParallelQHDEvaluator",
    "SubtreePool",
    "NodeMemo",
    "subtree_signature",
    "fused_join_project",
    "joined_attributes",
]

"""Per-query memoization of decomposition-node materializations.

Two nodes whose subtrees are structurally identical — same λ atom multiset
with the same (filtered) relation contents, same interface projection,
same children recursively — materialize the same relation, in the same
row order, under the evaluator's deterministic fold.  That happens within
one tree (repeated subquery templates, self-joins) and *across* trees: the
degradation ladder re-plans a failing query at a lower width bound, and
the retry's decomposition typically shares whole subtrees with the first
attempt.

:func:`subtree_signature` captures exactly the inputs the fold depends on:
the node's sorted λ labels with their relation cardinalities (the per-query
scope makes atom name → contents injective; cardinality is a cheap guard),
the interface ``keep`` projection, and the children's signatures in
``ordered_children`` order (fold order is sensitive to child order, so
signatures must be too).

The memo itself is a lock-guarded dict scoped to one query execution: the
serving handler creates a :class:`NodeMemo` per request and threads it
through every ladder attempt, so the plan cache's stats-version
invalidation still governs freshness — a memo never outlives the request
that created it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.analysis.lockwitness import make_lock
from repro.core.hypertree import HypertreeNode
from repro.relational.relation import Relation

__all__ = ["NodeMemo", "node_signature", "subtree_signature"]

Signature = Tuple[object, ...]


def node_signature(
    node: HypertreeNode,
    keep: "Optional[FrozenSet[str]]",
    relations: Mapping[str, Relation],
    children: "Tuple[Signature, ...]",
) -> Signature:
    """A node's signature given its children's (``ordered_children`` order).

    The evaluator signs a whole tree in one post-order pass with this;
    :func:`subtree_signature` is the stand-alone recursive form.
    """
    lam = tuple(
        sorted((name, len(relations[name])) for name in node.lam)
    )
    return ("node", lam, keep, node.chi, children)


def subtree_signature(
    node: HypertreeNode,
    keep: "Optional[FrozenSet[str]]",
    relations: Mapping[str, Relation],
) -> Signature:
    """A hashable key identifying this node's materialization.

    Args:
        node: the decomposition node.
        keep: the interface projection requested by the parent — at the
            root, out(Q), so two queries over one body with different
            outputs never share a root result.
        relations: atom name → relation, as passed to the evaluator.
    """
    children = tuple(
        subtree_signature(child, child.chi & node.chi, relations)
        for child in node.ordered_children()
    )
    return node_signature(node, keep, relations, children)


class NodeMemo:
    """Thread-safe signature → materialized relation store (per query).

    Relations are stored as-is (they are never mutated after
    materialization) and shared by reference between hits.
    """

    def __init__(self) -> None:
        self._entries: Dict[Signature, Relation] = {}
        self._lock = make_lock("NodeMemo._lock")
        self._hits = 0
        self._misses = 0

    def get(self, signature: Signature) -> Optional[Relation]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self._misses += 1
            else:
                self._hits += 1
            return entry

    def put(self, signature: Signature, relation: Relation) -> None:
        with self._lock:
            self._entries.setdefault(signature, relation)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"NodeMemo({stats['entries']} entries, "
            f"{stats['hits']} hits, {stats['misses']} misses)"
        )

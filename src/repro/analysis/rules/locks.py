"""Lock discipline: guarded attributes stay guarded.

The serving/observability/resilience layers guard their mutable state with
per-instance locks (``with self._lock: …``).  The invariant is implicit:
*which* attributes a lock guards is never written down, so a later edit can
add an unguarded write and introduce a data race that no test reliably
catches.  This rule derives the guarded set per class — every ``self``
attribute path assigned inside a ``with self.<lock>:`` block anywhere in
the class — and then flags writes to those paths outside a lock block.

Conventions honoured:

* ``__init__`` (and ``__new__``) may initialize guarded attributes without
  the lock — the instance is not yet shared;
* methods whose name ends in ``_locked`` are documented as "caller holds
  the lock" helpers and are exempt;
* lock attributes are recognised both by construction
  (``self.x = threading.Lock()`` / ``RLock()`` / ``make_lock(…)``) and by
  name (any ``with self.<attr>:`` where the attribute name contains
  ``lock``), so locks inherited from a base class still count.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.base import (
    FileSource,
    Finding,
    Rule,
    attr_chain,
    iter_scope_nodes,
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "make_lock", "checked_lock"})
_EXEMPT_METHODS = frozenset({"__init__", "__new__"})


def _is_lock_factory(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _self_write_paths(node: ast.stmt) -> List[Tuple[str, ast.AST]]:
    """Dotted self-paths written by an assignment statement.

    ``self.total += n`` → ``[("total", node)]``;
    ``self.stats.misses += 1`` → ``[("stats.misses", node)]``;
    ``self._counts[k] = v`` → ``[("_counts", node)]`` (container mutation).
    """
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    paths: List[Tuple[str, ast.AST]] = []
    queue = list(targets)
    while queue:
        target = queue.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            queue.extend(target.elts)
            continue
        while isinstance(target, ast.Subscript):
            target = target.value
        chain = attr_chain(target)
        if chain and len(chain) >= 2 and chain[0] == "self":
            paths.append((".".join(chain[1:]), target))
    return paths


def _lock_attr_of_with(item: ast.withitem) -> Optional[str]:
    """The lock attribute name when a with-item is ``self.<attr>``."""
    expr = item.context_expr
    # ``with self._lock:`` or rare ``with self._lock.acquire…`` forms.
    chain = attr_chain(expr)
    if chain and len(chain) == 2 and chain[0] == "self":
        return chain[1]
    return None


class LockDisciplineRule(Rule):
    """Writes to lock-guarded attributes must hold the lock."""

    rule_id = "lock-discipline"
    description = (
        "attributes assigned under `with self.<lock>:` anywhere in a class"
        " may not be written elsewhere without the lock"
    )
    scopes = (
        "repro/service/",
        "repro/shard/",
        "repro/obs/",
        "repro/resilience/",
        "repro/metering.py",
        "repro/core/memo.py",
    )

    def check(self, source: FileSource) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(source, node))
        return findings

    # ------------------------------------------------------------------

    def _check_class(
        self, source: FileSource, cls: ast.ClassDef
    ) -> List[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = self._lock_attributes(methods)
        if not lock_attrs:
            return []

        guarded: Set[str] = set()
        for method in methods:
            self._walk(method, lock_attrs, guarded, None, None)

        if not guarded:
            return []
        findings: List[Finding] = []
        for method in methods:
            if method.name in _EXEMPT_METHODS or method.name.endswith("_locked"):
                continue
            self._walk(method, lock_attrs, guarded, findings, source)
        return findings

    def _lock_attributes(self, methods: List[ast.stmt]) -> Set[str]:
        lock_attrs: Set[str] = set()
        for method in methods:
            for node in iter_scope_nodes(method):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    if value is not None and _is_lock_factory(value):
                        for path, _target in _self_write_paths(node):
                            if "." not in path:
                                lock_attrs.add(path)
                if isinstance(node, ast.With):
                    for item in node.items:
                        attr = _lock_attr_of_with(item)
                        if attr is not None and "lock" in attr.lower():
                            lock_attrs.add(attr)
        return lock_attrs

    def _walk(
        self,
        method: ast.AST,
        lock_attrs: Set[str],
        guarded: Set[str],
        findings: Optional[List[Finding]],
        source: Optional[FileSource],
    ) -> None:
        """One pass over a method.

        With ``findings is None`` this *collects* guarded paths (writes
        under a lock); otherwise it *checks* unguarded writes against the
        guarded set.
        """

        def visit(node: ast.AST, depth: int) -> None:
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                return
            if isinstance(node, ast.With):
                held = any(
                    (_lock_attr_of_with(item) or "") in lock_attrs
                    for item in node.items
                )
                next_depth = depth + 1 if held else depth
                for child in ast.iter_child_nodes(node):
                    visit(child, next_depth)
                return
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for path, target in _self_write_paths(node):
                    if findings is None:
                        if depth > 0 and path not in lock_attrs:
                            guarded.add(path)
                    elif depth == 0 and path in guarded:
                        assert source is not None
                        findings.append(
                            self.finding(
                                source,
                                target,
                                f"attribute self.{path} is guarded by a lock "
                                "elsewhere in this class but is written here "
                                "without holding it",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                visit(child, depth)

        for child in ast.iter_child_nodes(method):
            visit(child, 0)

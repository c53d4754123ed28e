"""Shared-state race analysis: unguarded access to lock-guarded attributes.

Which attributes a lock guards is never written down, so a later edit
can add an unguarded access and introduce a data race no test reliably
catches.  The model derives the guarded set per class — every ``self``
attribute written while one of the class's locks is held — and this
analysis flags accesses to those attributes made with no class lock held.

* a class is **shared** when one of its methods is reachable from a
  thread/process root (a ``Thread(target=…)``, a pool submission, a
  shard worker) **or it owns a lock**, its own or one a base class
  creates — a class that builds itself a lock declares that its
  instances are touched from several threads, whether or not the thread
  that does so is part of the linted program;
* in a shared class, an unguarded **write** of a guarded attribute is
  flagged — ``self.n = 0``, and equally the container and nested-path
  mutations ``self._counts[k] = v`` / ``self.stats.misses += 1``, the
  same shapes that put an attribute in the guarded set — and so is a call to a ``*_locked`` helper (whose contract is
  "caller holds the lock") with no class lock held — this is how an
  unguarded write hidden inside a helper gets caught;
* an unguarded **read** (the torn-read half) is flagged where the call
  graph names the concurrent party: in classes a thread root reaches.  A
  lock-owning class no thread root reaches may read its own attributes
  freely.

``__init__`` / ``__new__`` / ``__del__`` construct or finalize the
instance before/after it is shared and are exempt, as are the
``*_locked`` helpers themselves (their call sites carry the obligation).
Findings are deduplicated per (class, attribute, method): one report per
unguarded access pattern, anchored at its first occurrence.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.base import Finding, Rule
from repro.analysis.interproc.model import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProgramModel,
    _Resolver,
    iter_held_events,
    resolve_program,
)

RULE_ID = "interproc-race"

_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__del__"})


def thread_reached_classes(model: ProgramModel) -> Set[str]:
    """Classes with a method reachable from a thread/process root."""
    reachable = model.reachable_from(model.thread_roots)
    reached: Set[str] = set()
    for qualname in reachable:
        fn = model.functions.get(qualname)
        if fn is not None and fn.cls is not None:
            reached.add(fn.cls)
    return reached


class SharedStateRaceAnalysis(Rule):
    """Flag unguarded guarded-attribute access in shared classes."""

    rule_id = RULE_ID
    description = (
        "guarded attributes of lock-owning or thread-reached classes must "
        "be accessed under the class lock; *_locked helpers must be called "
        "with it held"
    )

    def check(self, model: ProgramModel) -> List[Finding]:
        resolver = resolve_program(model)
        reached = thread_reached_classes(model)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str, str]] = set()
        for cls_qualname, info in sorted(model.classes.items()):
            lock_names = self._class_locks(model, info)
            if not lock_names:
                continue  # neither the class nor an ancestor owns a lock
            guarded = self._guarded_attrs(model, info)
            for method_name, method_qualname in sorted(info.methods.items()):
                fn = model.functions.get(method_qualname)
                if fn is None:
                    continue
                if method_name in _EXEMPT_METHODS:
                    continue
                if method_name.endswith("_locked"):
                    continue  # contract checked at call sites below
                findings.extend(
                    self._check_method(
                        resolver, info, fn, method_name, lock_names,
                        guarded, seen, cls_qualname in reached,
                    )
                )
        findings.sort(key=Finding.sort_key)
        return findings

    # -- per-class facts ------------------------------------------------

    def _class_locks(self, model: ProgramModel, info: ClassInfo) -> Set[str]:
        names: Set[str] = set()
        for ancestor in model.mro(info.qualname):
            names |= set(ancestor.attr_locks.values())
        return names

    def _guarded_attrs(self, model: ProgramModel, info: ClassInfo) -> Set[str]:
        guarded: Set[str] = set()
        for ancestor in model.mro(info.qualname):
            guarded |= ancestor.guarded
        return guarded

    # -- per-method walk ------------------------------------------------

    def _check_method(
        self,
        resolver: _Resolver,
        info: ClassInfo,
        fn: FunctionInfo,
        method_name: str,
        lock_names: Set[str],
        guarded: Set[str],
        seen: Set[Tuple[str, str, str]],
        thread_reached: bool,
    ) -> List[Finding]:
        findings: List[Finding] = []
        for event in iter_held_events(resolver, fn):
            kind = event[0]
            if kind == "access":
                _, node, attr, is_write, held = event
                assert isinstance(attr, str) and isinstance(held, set)
                if attr not in guarded or attr in info.attr_locks:
                    continue
                if held & lock_names or not (is_write or thread_reached):
                    continue
                dedupe = (info.qualname, attr, method_name)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
                verb = "written" if is_write else "read"
                lock_list = " / ".join(sorted(lock_names))
                findings.append(
                    self._finding(
                        fn,
                        node,
                        key=f"race:{info.name}.{attr}:{method_name}",
                        message=(
                            f"{info.name}.{attr} {verb} without holding "
                            f"{lock_list} in {method_name}(); the instance "
                            f"is shared between threads and the "
                            f"attribute is lock-guarded elsewhere"
                        ),
                    )
                )
            elif kind == "call":
                site, held = event[1], event[2]
                assert isinstance(site, CallSite) and isinstance(held, set)
                callee_name = site.name
                if not callee_name.endswith("_locked"):
                    continue
                if not _is_self_call(site):
                    continue
                if held & lock_names:
                    continue
                dedupe = (info.qualname, f"{callee_name}()", method_name)
                if dedupe in seen:
                    continue
                seen.add(dedupe)
                findings.append(
                    self._finding(
                        fn,
                        site.node,
                        key=f"locked-call:{info.name}.{callee_name}:{method_name}",
                        message=(
                            f"{info.name}.{callee_name}() called from "
                            f"{method_name}() without holding "
                            f"{' / '.join(sorted(lock_names))}; *_locked "
                            f"helpers require the caller to hold the lock"
                        ),
                    )
                )
        return findings

    def _finding(
        self, fn: FunctionInfo, node: object, key: str, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=fn.source.path,
            line=int(getattr(node, "lineno", fn.line)),
            column=int(getattr(node, "col_offset", 0)),
            message=message,
            key=key,
        )


def _is_self_call(site: CallSite) -> bool:
    func = site.node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


__all__ = ["RULE_ID", "SharedStateRaceAnalysis", "thread_reached_classes"]

"""Static lock-order analysis: the may-acquire-after graph and its cycles.

The dynamic witness (:mod:`repro.analysis.lockwitness`) records which
locks were acquired while others were held — but only on exercised
paths.  This analysis derives the same graph *statically*, over every
path the call graph admits:

1. a **may-acquire** fixpoint gives each function the set of lock names
   it (or anything it transitively calls) may acquire;
2. a held-tracking walk over every function then adds an edge
   ``A → B`` whenever ``B`` is acquired — directly by a ``with``, or
   through any resolved call — while ``A`` is held.

A cycle in the resulting graph is a potential deadlock: two code paths
acquire the same locks in opposite orders.  Each cycle is reported once,
with one acquisition site per edge, so both offending paths are named.

Soundness is anchored empirically: the test suite asserts the dynamic
witness's observed graph is a **subgraph** of this one (every runtime
edge must have been predicted).  Calls that could not be resolved while
a lock was held are not silently dropped — they are recorded in the
exported graph under ``unresolved_under_lock`` for inspection.

Reentrant re-acquisition (``A`` while holding ``A``) is not an ordering
edge — the witness skips it too — so self-loops are never reported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Finding, Rule
from repro.analysis.interproc.model import (
    CallSite,
    ProgramModel,
    iter_held_events,
    resolve_program,
)

RULE_ID = "interproc-lock-order"


@dataclass
class EdgeSite:
    """Where one acquired-after edge was introduced."""

    path: str
    line: int
    function: str
    #: Callee the acquisition happens through, "" for a direct ``with``.
    via: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "via": self.via,
        }

    def render(self) -> str:
        where = f"{self.path}:{self.line} in {self.function}"
        return f"{where} (via {self.via})" if self.via else where


@dataclass
class LockGraph:
    """The static may-acquire-after graph, with provenance."""

    #: (held, acquired) → sites introducing the edge.
    edges: Dict[Tuple[str, str], List[EdgeSite]] = field(default_factory=dict)
    #: function qualname → locks it may (transitively) acquire.
    may_acquire: Dict[str, Set[str]] = field(default_factory=dict)
    #: Calls that could not be resolved while a lock was held.
    unresolved_under_lock: List[Dict[str, object]] = field(
        default_factory=list
    )

    def add_edge(self, held: str, acquired: str, site: EdgeSite) -> None:
        if held == acquired:
            return  # reentrancy, not ordering
        sites = self.edges.setdefault((held, acquired), [])
        if len(sites) < 8:  # keep provenance bounded
            sites.append(site)

    def pairs(self) -> Set[Tuple[str, str]]:
        """The edge set (for the witness-subgraph soundness test)."""
        return set(self.edges)

    def successors(self) -> Dict[str, Set[str]]:
        adjacency: Dict[str, Set[str]] = {}
        for held, acquired in self.edges:
            adjacency.setdefault(held, set()).add(acquired)
        return adjacency

    def lock_names(self) -> List[str]:
        names: Set[str] = set()
        for held, acquired in self.edges:
            names.add(held)
            names.add(acquired)
        for acquired_set in self.may_acquire.values():
            names |= acquired_set
        return sorted(names)

    def to_json(self) -> Dict[str, object]:
        return {
            "locks": self.lock_names(),
            "edges": [
                {
                    "source": held,
                    "target": acquired,
                    "sites": [site.to_dict() for site in sites],
                }
                for (held, acquired), sites in sorted(self.edges.items())
            ],
            "unresolved_under_lock": list(self.unresolved_under_lock),
        }


def compute_may_acquire(model: ProgramModel) -> Dict[str, Set[str]]:
    """Fixpoint: locks each function may acquire, callees included."""
    may: Dict[str, Set[str]] = {
        qualname: set(fn.acquires)
        for qualname, fn in model.functions.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname in model.functions:
            mine = may[qualname]
            before = len(mine)
            for callee in model.callees.get(qualname, ()):
                mine |= may.get(callee, set())
            if len(mine) != before:
                changed = True
    return may


def build_lock_graph(model: ProgramModel) -> LockGraph:
    """Derive the may-acquire-after graph over the whole program."""
    resolver = resolve_program(model)
    graph = LockGraph(may_acquire=compute_may_acquire(model))
    for fn in model.functions.values():
        for event in iter_held_events(resolver, fn):
            kind = event[0]
            if kind == "acquire":
                node, acquired, held = event[1], event[2], event[3]
                assert isinstance(acquired, set) and isinstance(held, set)
                line = int(getattr(node, "lineno", fn.line))
                for held_name in sorted(held):
                    for acquired_name in sorted(acquired):
                        graph.add_edge(
                            held_name,
                            acquired_name,
                            EdgeSite(
                                path=fn.source.path,
                                line=line,
                                function=fn.qualname,
                            ),
                        )
            elif kind == "call":
                site, held = event[1], event[2]
                assert isinstance(site, CallSite) and isinstance(held, set)
                if not held:
                    continue
                line = int(getattr(site.node, "lineno", fn.line))
                # Sorted: which sites survive an edge's provenance cap
                # must not follow set (string-hash) order.
                for target in sorted(site.targets):
                    for acquired_name in sorted(
                        graph.may_acquire.get(target, ())
                    ):
                        for held_name in sorted(held):
                            graph.add_edge(
                                held_name,
                                acquired_name,
                                EdgeSite(
                                    path=fn.source.path,
                                    line=line,
                                    function=fn.qualname,
                                    via=target,
                                ),
                            )
                if not site.resolved and site.name:
                    graph.unresolved_under_lock.append(
                        {
                            "function": fn.qualname,
                            "call": site.name,
                            "path": fn.source.path,
                            "line": line,
                            "held": sorted(held),
                        }
                    )
    return graph


def _strongly_connected(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's SCC algorithm, iterative (no recursion-depth limits)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []
    nodes = sorted(
        set(adjacency) | {n for succs in adjacency.values() for n in succs}
    )

    for root in nodes:
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            successors = sorted(adjacency.get(node, ()))
            advanced = False
            for position in range(child_index, len(successors)):
                succ = successors[position]
                if succ not in index:
                    work.append((node, position + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def _cycle_path(
    component: List[str], adjacency: Dict[str, Set[str]]
) -> List[str]:
    """A concrete cycle within one non-trivial SCC (first..first)."""
    members = set(component)
    start = component[0]
    # BFS back to start, restricted to the component.
    queue: List[Tuple[str, List[str]]] = [(start, [start])]
    seen: Set[str] = {start}
    while queue:
        node, path = queue.pop(0)
        for succ in sorted(adjacency.get(node, ()) & members):
            if succ == start and len(path) > 1:
                return path + [start]
            if succ == start and (start in adjacency.get(start, set())):
                return [start, start]
            if succ not in seen:
                seen.add(succ)
                queue.append((succ, path + [succ]))
    # Two-node SCCs always close; fall back defensively.
    return component + [component[0]]


class LockOrderAnalysis(Rule):
    """Report lock-order cycles in the static may-acquire-after graph."""

    rule_id = RULE_ID
    description = (
        "static may-acquire-after graph over make_lock names must be "
        "acyclic (a cycle is a potential deadlock)"
    )

    def check(self, model: ProgramModel) -> List[Finding]:
        graph = build_lock_graph(model)
        adjacency = graph.successors()
        findings: List[Finding] = []
        for component in _strongly_connected(adjacency):
            has_cycle = len(component) > 1
            if not has_cycle:
                continue  # self-loops were never added; singletons are fine
            cycle = _cycle_path(component, adjacency)
            edge_lines: List[str] = []
            anchor: Optional[EdgeSite] = None
            for held, acquired in zip(cycle, cycle[1:]):
                sites = graph.edges.get((held, acquired), [])
                site_text = sites[0].render() if sites else "(unknown site)"
                if anchor is None and sites:
                    anchor = sites[0]
                edge_lines.append(f"{held} -> {acquired} at {site_text}")
            key = "lock-cycle:" + "->".join(_canonical_rotation(cycle[:-1]))
            findings.append(
                Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=anchor.path if anchor else "<program>",
                    line=anchor.line if anchor else 1,
                    column=0,
                    message=(
                        "lock-order cycle (potential deadlock): "
                        + "; ".join(edge_lines)
                    ),
                    key=key,
                )
            )
        findings.sort(key=Finding.sort_key)
        return findings


def _canonical_rotation(cycle: List[str]) -> List[str]:
    """Rotate a cycle so the lexicographically smallest lock leads."""
    if not cycle:
        return cycle
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


__all__ = [
    "EdgeSite",
    "LockGraph",
    "LockOrderAnalysis",
    "RULE_ID",
    "build_lock_graph",
    "compute_may_acquire",
]

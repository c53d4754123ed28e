"""Query evaluation over decompositions.

Yannakakis' semijoin program (§3.2 of the paper) is written once — step
S₂′ (materialize each decomposition node), phase (i) upward semijoins,
phase (ii) downward semijoins, phase (iii) upward joins with the output
projection — and four evaluators call it:

* :func:`yannakakis_boolean` — join forest + phase (i), stopping at the
  first empty node (Boolean acyclic queries);
* :func:`yannakakis_acyclic` — join forest + all three phases, computing
  all answers of an acyclic query in input+output polynomial time;
* :func:`evaluate_hd_classic` — S₂′ + all three phases over a
  decomposition: the classic pipeline q-HD evaluation improves upon;
* :func:`evaluate_hd_boolean` — S₂′ + phase (i) with the early stop: the
  Boolean decision procedure behind :func:`repro.core.boolean.is_satisfiable`.

:class:`QHDEvaluator` is the paper's *q-hypertree evaluator* (steps
P′/P″/P‴): one bottom-up pass over a q-hypertree decomposition whose root
covers out(Q), joining Optimize-guard children before their siblings.

All evaluators consume *atom relations*: per query atom, its base relation
filtered by the pushed-down constant predicates and renamed so attributes
are CQ variables — see :func:`atom_relations`.
"""

from __future__ import annotations

import collections
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExecutionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTreeNode, build_join_forest
from repro.metering import NULL_METER, SpillModel, WorkMeter
from repro.obs.tracing import NullTracer, Tracer, current_tracer
from repro.query.conjunctive import ConjunctiveQuery
from repro.relational.relation import Relation
from repro.resilience.context import current_context, fanout_context
from repro.core.hypertree import Hypertree, HypertreeNode
from repro.core.pool import SubtreePool

# ---------------------------------------------------------------------------
# Base scans live in the engine substrate; re-exported here for convenience.
# ---------------------------------------------------------------------------

from repro.engine.scans import atom_relations  # noqa: E402  (re-export)


def _constant_atoms_satisfiable(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> bool:
    """Check atoms without variables: each must have a non-empty relation."""
    for atom in query.atoms:
        if not atom.variables and len(relations.get(atom.name, ())) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Yannakakis' semijoin program (§3.2): S₂′ and three passes over a forest of
# join-tree or decomposition nodes, with one relation per node
# ---------------------------------------------------------------------------

_Node = Union[JoinTreeNode, HypertreeNode]


def _materialize_nodes(
    decomposition: Hypertree,
    relations: Mapping[str, Relation],
    meter: WorkMeter,
    spill: Optional[SpillModel] = None,
) -> Dict[_Node, Relation]:
    """Step S₂′: join each node's λ atoms (smallest first), project onto χ —
    an acyclic instance whose join tree is the decomposition tree itself."""
    context = current_context()
    node_rels: Dict[_Node, Relation] = {}
    for node in decomposition.root.walk():
        context.checkpoint("exec.classic")
        rel: Optional[Relation] = None
        for atom_rel in sorted((relations[n] for n in node.lam), key=len):
            rel = atom_rel if rel is None else rel.natural_join(atom_rel, meter=meter)
            if spill is not None:
                spill.charge(meter, len(rel))
        if rel is None:
            rel = Relation((), [()])
        keep = [a for a in rel.attributes if a in node.chi]
        node_rels[node] = rel.project(keep, dedup=True, meter=meter)
    return node_rels


def _semijoin_upward(
    roots: Sequence[_Node],
    rels: Dict[_Node, Relation],
    meter: WorkMeter,
    stop_on_empty: bool = False,
) -> bool:
    """Phase (i): reduce every node by its children, bottom-up.  With
    ``stop_on_empty``, stop at the first empty node and return False."""
    for root in roots:
        for node in root.postorder():
            rel = rels[node]
            for child in node.children:
                rel = rel.semijoin(rels[child], meter=meter)
            rels[node] = rel
            if stop_on_empty and len(rel) == 0:
                return False
    return True


def _semijoin_downward(
    roots: Sequence[_Node], rels: Dict[_Node, Relation], meter: WorkMeter
) -> None:
    """Phase (ii): reduce every child by its parent, top-down."""
    for root in roots:
        for node in root.walk():
            for child in node.children:
                rels[child] = rels[child].semijoin(rels[node], meter=meter)


def _yannakakis(
    roots: Sequence[_Node],
    rels: Dict[_Node, Relation],
    own_variables: Callable[[_Node], FrozenSet[str]],
    output: List[str],
    meter: WorkMeter,
    spill: Optional[SpillModel] = None,
) -> Relation:
    """Phases (i)–(iii) over a forest: the answer over ``output``.

    Phase (iii) joins bottom-up, keeping at each node its own variables (a
    hyperedge or χ) and the output variables; the roots' partials are joined.
    """
    _semijoin_upward(roots, rels, meter)
    _semijoin_downward(roots, rels, meter)
    out_set = frozenset(output)
    context = current_context()

    def eval_subtree(node: _Node) -> Relation:
        rel = rels[node]
        for child in node.children:
            context.checkpoint("exec.classic")
            rel = rel.natural_join(eval_subtree(child), meter=meter)
            if spill is not None:
                spill.charge(meter, len(rel))
        own = own_variables(node)
        keep = [a for a in rel.attributes if a in own or a in out_set]
        return rel.project(keep, dedup=True, meter=meter)

    partials = [eval_subtree(root) for root in roots]
    answer = partials[0]
    for partial in partials[1:]:
        if len(partial) == 0:
            answer = Relation(output, [])
            break
        answer = answer.natural_join(partial, meter=meter)
    missing = [v for v in output if not answer.has_attribute(v)]
    if missing:
        raise ExecutionError(f"output variables missing from the answer: {missing}")
    return answer.project(output, dedup=True, meter=meter)


def _join_forest(
    hypergraph: Hypergraph, relations: Mapping[str, Relation]
) -> Tuple[List[JoinTreeNode], Dict[_Node, Relation]]:
    """A join forest's roots, and each node's atom relation."""
    roots = build_join_forest(hypergraph)
    return roots, {node: relations[node.edge.name] for r in roots for node in r.walk()}


def yannakakis_boolean(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    meter: WorkMeter = NULL_METER,
) -> bool:
    """Boolean acyclic evaluation: bottom-up semijoins over a join forest.

    Returns True iff the query body is satisfiable on the given relations;
    the pass stops at the first node it leaves empty.
    Raises :class:`repro.errors.HypergraphError` when the query is cyclic.
    """
    roots, rels = _join_forest(query.hypergraph(), relations)
    if not _constant_atoms_satisfiable(query, relations):
        return False
    return _semijoin_upward(roots, rels, meter, stop_on_empty=True)


def yannakakis_acyclic(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    meter: WorkMeter = NULL_METER,
) -> Relation:
    """Full three-phase Yannakakis evaluation of a non-Boolean acyclic query.

    (i) bottom-up semijoins, (ii) top-down semijoins, (iii) bottom-up joins
    projecting, at each node, onto the node's variables plus the output
    variables gathered from its subtree (§3.2 of the paper).
    """
    hypergraph = query.hypergraph()
    output = list(query.output)
    if len(hypergraph) == 0:
        satisfiable = _constant_atoms_satisfiable(query, relations)
        return Relation(output, [()] if satisfiable and not output else [])
    if not _constant_atoms_satisfiable(query, relations):
        return Relation(output, [])
    roots, rels = _join_forest(hypergraph, relations)
    return _yannakakis(roots, rels, lambda node: node.edge.vertices, output, meter)


# ---------------------------------------------------------------------------
# The q-hypertree evaluator (P′ / P″ / P‴)
# ---------------------------------------------------------------------------


Signature = Tuple[object, ...]


def node_signature(
    node: HypertreeNode,
    keep: "Optional[FrozenSet[str]]",
    relations: Mapping[str, Relation],
    children: "Tuple[Signature, ...]",
) -> Signature:
    """A node's signature given its children's (``ordered_children`` order).

    Two nodes whose subtrees are structurally identical — same λ labels
    over the same (filtered) relations, same interface projection, same
    children in the same fold order — materialize the same relation in the
    same row order, so one tree folds such a subtree once (repeated
    subquery templates, self-joins).  Within one query the atom name fixes
    the relation's contents; its cardinality is a cheap guard.
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
    """:func:`node_signature` of a whole subtree, computed recursively.

    Args:
        node: the decomposition node.
        keep: the interface projection requested by the parent — at the
            root, out(Q).
        relations: atom name → relation, as passed to the evaluator.
    """
    children = tuple(
        subtree_signature(child, child.chi & node.chi, relations)
        for child in node.ordered_children()
    )
    return node_signature(node, keep, relations, children)


#: (node, the interface to return, its children with their results in
#: fold order).
_Task = Tuple[
    HypertreeNode,
    FrozenSet[str],
    List[Tuple[HypertreeNode, Optional[Relation]]],
]


@dataclass
class _Schedule:
    """What one evaluation will run — fixed before any node is folded."""

    #: Every node, children before parents, siblings in
    #: ``ordered_children`` order: the order the inline path folds in.
    order: List[HypertreeNode]
    #: node id → its children, Optimize guards first (the fold order).
    children: Dict[int, List[HypertreeNode]]
    #: node id → the interface its parent requests (out(Q) at the root).
    keeps: Dict[int, FrozenSet[str]]
    #: The nodes that will actually be folded, parents before children.
    compute: List[HypertreeNode] = field(default_factory=list)
    #: node id → the structurally identical node whose result it shares.
    aliases: Dict[int, int] = field(default_factory=dict)
    #: node id → materialization, filled as folds complete.
    results: Dict[int, Optional[Relation]] = field(default_factory=dict)
    #: node id → the fold log of each node actually folded.
    traces: Dict[int, List[str]] = field(default_factory=dict)

    def result_of(self, node: HypertreeNode) -> Optional[Relation]:
        return self.results.get(self.aliases.get(node.node_id, node.node_id))

    def task(self, node: HypertreeNode) -> "_Task":
        """What the node's fold needs — captured when it is scheduled, so a
        running fold shares no mutable state with the scheduler."""
        inputs = [(child, self.result_of(child)) for child in self.children[node.node_id]]
        return node, self.keeps[node.node_id], inputs


class QHDEvaluator:
    """Single-pass bottom-up evaluation of a q-hypertree decomposition.

    Step P′: at each node, join the λ atoms' relations (smallest first).
    Step P″: bottom-up over the tree, join each node with its children —
    Optimize-guard children *first*.  Step P‴: the root's result is
    out(Q).

    One projection rule keeps intermediate results bounded: after every
    fold step a node keeps only its requested interface — χ(p) ∩ χ(parent),
    or out(Q) at the root — plus the variables that link it to the sources
    it has still to fold.  Since out(Q) ⊆ χ(root), no information needed by
    the answer is ever discarded (feature (a) of Definition 2).  A work
    budget trips inside a join at most one probe block (≤ 4096 probe rows'
    output) beyond its limit.

    Every node is one task: its fold needs only its children's results, so
    sibling subtrees are independent.  ``workers <= 1`` runs the tasks
    inline on the calling thread in post-order; ``workers >= 2`` submits
    each to a :class:`~repro.core.pool.SubtreePool` the moment its
    children complete.  The folds, and therefore the answer (rows *and*
    order) and every work-unit charge, are the same at any worker count.
    A subtree structurally identical to one already scheduled (same
    :func:`node_signature`) is not folded again: it shares that result.

    Args:
        decomposition: the q-hypertree decomposition to evaluate.
        query: the conjunctive query.
        meter: work-unit accounting (thread-safe; shared by all workers).
        spill: optional spill model charged per materialized intermediate.
        tracer: span sink; pool-worker ``qhd.node`` spans are pinned under
            the submitting ``qhd.parallel`` span.
        workers: pool workers to fan nodes out on; ``0``/``1`` = inline.
        pool: an existing pool to run on when ``workers >= 2``; without
            one, an ephemeral pool lives for the :meth:`evaluate` call.
    """

    def __init__(
        self,
        decomposition: Hypertree,
        query: ConjunctiveQuery,
        meter: WorkMeter = NULL_METER,
        spill: Optional[SpillModel] = None,
        tracer: "Optional[Union[Tracer, NullTracer]]" = None,
        workers: int = 0,
        pool: Optional[SubtreePool] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.decomposition = decomposition
        self.query = query
        self.meter = meter
        self.spill = spill
        self.tracer = tracer if tracer is not None else current_tracer()
        self.workers = workers
        self._pool = pool
        self._trace: List[str] = []

    # ------------------------------------------------------------------

    def evaluate(self, relations: Mapping[str, Relation]) -> Relation:
        """Run P′+P″+P‴ and return the answer relation (set semantics).

        Args:
            relations: atom name → variable-named relation (see
                :func:`atom_relations`).
        """
        output = list(self.query.output)
        if not _constant_atoms_satisfiable(self.query, relations):
            return Relation(output, [])
        schedule = self._schedule(relations)
        if self.workers <= 1:
            self._run_inline(schedule, relations)
        else:
            self._run_pooled(schedule, relations)
        self._trace = self._assemble_trace(schedule)
        root_rel = schedule.result_of(self.decomposition.root)
        if root_rel is None:
            # Nothing to fold (a query without variables): the empty join.
            root_rel = Relation([], [()])
        missing = [v for v in output if not root_rel.has_attribute(v)]
        if missing:
            raise ExecutionError(
                f"output variables missing at the decomposition root: {missing} "
                "(the root must cover out(Q) — Definition 2, condition 2)"
            )
        # The root already holds exactly out(Q): this puts it in order.
        return root_rel.project(output, dedup=True, meter=self.meter)

    def trace(self) -> List[str]:
        """Evaluation log (node order, intermediate sizes) for EXPLAIN
        output, in post-order whatever order the nodes actually ran in."""
        return list(self._trace)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _schedule(self, relations: Mapping[str, Relation]) -> _Schedule:
        root = self.decomposition.root
        # A child's result only matters to its parent through their shared
        # χ variables: everything else is dropped by the parent's
        # projection anyway, so each child is asked for that interface only
        # (a legal choice of evaluation, and the one that keeps
        # intermediate results semijoin-sized).  The root is asked for
        # out(Q), which it covers (Definition 2, condition 2).
        children: Dict[int, List[HypertreeNode]] = {}
        keeps: Dict[int, FrozenSet[str]] = {
            root.node_id: frozenset(self.query.output)
        }
        order: List[HypertreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            children[node.node_id] = node.ordered_children()
            for child in children[node.node_id]:
                keeps[child.node_id] = child.chi & node.chi
                stack.append(child)
        order.reverse()

        signatures: Dict[int, Signature] = {}
        for node in order:
            signatures[node.node_id] = node_signature(
                node,
                keeps[node.node_id],
                relations,
                tuple(signatures[c.node_id] for c in children[node.node_id]),
            )
        schedule = _Schedule(order, children, keeps)

        # Alias resolution, top-down: a subtree whose signature is already
        # claimed by a structurally identical subtree of this tree is not
        # folded at all — neither are its descendants.
        claimed: Dict[Signature, int] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            signature = signatures[node.node_id]
            owner = claimed.get(signature)
            if owner is not None:
                schedule.aliases[node.node_id] = owner
                continue
            claimed[signature] = node.node_id
            schedule.compute.append(node)
            stack.extend(reversed(children[node.node_id]))
        return schedule

    def _run_inline(
        self, schedule: _Schedule, relations: Mapping[str, Relation]
    ) -> None:
        scheduled = {node.node_id for node in schedule.compute}
        for node in schedule.order:
            if node.node_id in scheduled:
                outcome = self._run_node(schedule.task(node), relations)
                self._finish(schedule, node, outcome)

    def _run_pooled(
        self, schedule: _Schedule, relations: Mapping[str, Relation]
    ) -> None:
        # Dependency edges: a node waits for each child's *producer* — the
        # child itself, or the structurally identical node it aliases.
        scheduled = {node.node_id for node in schedule.compute}
        pending: Dict[int, int] = {}
        waiters: Dict[int, List[HypertreeNode]] = collections.defaultdict(list)
        ready: Deque[HypertreeNode] = collections.deque()
        for node in schedule.compute:
            deps = [
                producer
                for producer in (
                    schedule.aliases.get(child.node_id, child.node_id)
                    for child in schedule.children[node.node_id]
                )
                if producer in scheduled
            ]
            pending[node.node_id] = len(deps)
            for dep in deps:
                waiters[dep].append(node)
            if not deps:
                ready.append(node)

        # Every worker runs under a fan-out context carrying the query's
        # deadline/memory/fault bounds plus a shared cancellation token.
        worker_context, fanout_token = fanout_context(current_context())
        pool = self._pool if self._pool is not None else SubtreePool(self.workers)
        futures: Dict["Future[object]", HypertreeNode] = {}
        try:
            with self.tracer.span(
                "qhd.parallel",
                meter=self.meter,
                workers=self.workers,
                nodes=len(schedule.order),
                scheduled=len(schedule.compute),
            ) as parallel_span:
                # Worker threads have no span stack of their own: pin
                # their spans under this one.
                parent_span_id = getattr(parallel_span, "span_id", 0) or None
                try:
                    while ready or futures:
                        while ready:
                            node = ready.popleft()
                            futures[
                                pool.submit_node(
                                    self._run_node,
                                    schedule.task(node),
                                    relations,
                                    parent_span_id,
                                    context=worker_context,
                                )
                            ] = node
                        done, _ = wait(futures, return_when=FIRST_COMPLETED)
                        for future in done:
                            node = futures.pop(future)
                            self._finish(schedule, node, future.result())  # type: ignore[arg-type]
                            for waiter in waiters.get(node.node_id, ()):
                                pending[waiter.node_id] -= 1
                                if pending[waiter.node_id] == 0:
                                    ready.append(waiter)
                except BaseException as exc:
                    # Fan the failure out: every sibling still running
                    # observes the token at its next checkpoint instead of
                    # finishing doomed work; then drain and re-raise.
                    fanout_token.cancel(
                        f"parallel q-HD aborted: {type(exc).__name__}"
                    )
                    wait(list(futures))
                    raise
        finally:
            if self._pool is None:
                pool.close()

    def _finish(
        self,
        schedule: _Schedule,
        node: HypertreeNode,
        outcome: "Tuple[Optional[Relation], List[str]]",
    ) -> None:
        rel, lines = outcome
        schedule.results[node.node_id] = rel
        schedule.traces[node.node_id] = lines

    def _assemble_trace(self, schedule: _Schedule) -> List[str]:
        lines: List[str] = []
        for node in schedule.order:
            node_id = node.node_id
            if node_id in schedule.traces:
                lines.extend(schedule.traces[node_id])
            elif node_id in schedule.aliases:
                rel = schedule.result_of(node)
                lines.append(
                    f"node {node_id}: alias -> "
                    f"{len(rel) if rel is not None else 0} tuples"
                )
        return lines

    # ------------------------------------------------------------------
    # Per-node fold (inline, or on a pool worker)
    # ------------------------------------------------------------------

    def _run_node(
        self,
        task: _Task,
        relations: Mapping[str, Relation],
        parent_span_id: Optional[int] = None,
    ) -> "Tuple[Optional[Relation], List[str]]":
        current_context().checkpoint("exec.qhd")
        node = task[0]
        lines: List[str] = []
        with self.tracer.span(
            "qhd.node",
            meter=self.meter,
            parent_id=parent_span_id,
            node=node.node_id,
            atoms=len(node.lam),
            children=len(node.children),
        ) as span:
            rel = self._fold(task, relations, lines)
            span.tag(rows_out=len(rel) if rel is not None else 0, folds=len(lines))
        return rel, lines

    def _fold(
        self,
        task: _Task,
        relations: Mapping[str, Relation],
        lines: List[str],
    ) -> Optional[Relation]:
        # Steps P′/P″ fold the node's λ relations and its children's
        # results.  The paper leaves the topological order free ("there are
        # different ways of evaluating Q w.r.t. HD, depending on the choice
        # of the topological order"); we exploit that freedom:
        # Optimize-guard children are folded first (the §4.1 soundness
        # caveat), the other sources greedily — smallest among those
        # sharing a variable with the current result, to avoid cartesian
        # steps.  After each join the result is projected onto the
        # requested interface ``keep`` plus whatever variables still link it
        # to the sources not yet folded: π_A(R ⋈ S) = π_A(π_B(R) ⋈ S) with
        # B = (A ∪ attr(S)) ∩ attr(R), so nothing the answer needs is lost.
        node, keep, inputs = task
        guard_ids = {id(child) for child in node.guards.values()}
        guard_rels: List[Relation] = []
        other_rels: List[Relation] = []
        for child, child_rel in inputs:
            if child_rel is None:
                continue
            if id(child) in guard_ids:
                guard_rels.append(child_rel)
            else:
                other_rels.append(child_rel)
        other_rels.extend(relations[name] for name in node.lam)

        context = current_context()
        joined: Tuple[str, ...] = ()

        def materialized(rows: int) -> None:
            # Each step's join result counts against the memory budget and
            # the spill model at its full, pre-projection size (``joined``
            # is the current step's attribute list).
            context.account(rows, len(joined), "exec.qhd")
            if self.spill is not None:
                self.spill.charge(self.meter, rows)

        rel: Optional[Relation] = None
        pending = sorted(guard_rels, key=len) + sorted(other_rels, key=len)
        n_guards = len(guard_rels)
        while pending:
            context.checkpoint("exec.qhd")
            if n_guards > 0 or rel is None:
                index = 0
                n_guards = max(n_guards - 1, 0)
            else:
                attrs = set(rel.attributes)
                index = next(
                    (
                        i
                        for i, candidate in enumerate(pending)
                        if attrs & set(candidate.attributes)
                    ),
                    0,
                )
            source = pending.pop(index)
            linking: set = set()
            for remaining in pending:
                linking.update(remaining.attributes)
            joined = source.attributes if rel is None else rel.joined_attributes(source)
            kept_attrs = [a for a in joined if a in keep or a in linking]
            if rel is None:
                materialized(len(source))
                rel = source.project(kept_attrs, dedup=True, meter=self.meter)
            else:
                rel = rel.join_project(
                    source, kept_attrs, meter=self.meter, on_joined=materialized
                )
            lines.append(
                f"node {node.node_id}: fold {source.name or 'child'} "
                f"-> {len(rel)} tuples"
            )
        return rel


def evaluate_qhd(
    decomposition: Hypertree,
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    meter: WorkMeter = NULL_METER,
    spill: Optional[SpillModel] = None,
) -> Relation:
    """Convenience wrapper: run the q-hypertree evaluator once."""
    return QHDEvaluator(decomposition, query, meter, spill).evaluate(relations)


# ---------------------------------------------------------------------------
# Decompositions through the semijoin program: classic S₂′ + S₂″, Boolean
# ---------------------------------------------------------------------------


def evaluate_hd_classic(
    decomposition: Hypertree,
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    meter: WorkMeter = NULL_METER,
    spill: Optional[SpillModel] = None,
) -> Relation:
    """The two-step evaluation of §3.2: materialize, then full Yannakakis.

    Step S₂′ joins each node's λ atoms and projects onto χ(p), producing an
    acyclic instance whose join tree is the decomposition tree itself; step
    S₂″ runs the three-phase Yannakakis algorithm on it.  Used as the
    baseline that q-hypertree evaluation (single pass, no steps (ii)/(iii))
    improves upon.
    """
    output = list(query.output)
    if not _constant_atoms_satisfiable(query, relations):
        return Relation(output, [])
    rels = _materialize_nodes(decomposition, relations, meter, spill)
    return _yannakakis(
        [decomposition.root], rels, lambda node: node.chi, output, meter, spill
    )


def evaluate_hd_boolean(
    decomposition: Hypertree,
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    meter: WorkMeter = NULL_METER,
) -> bool:
    """Boolean evaluation over a decomposition: S₂′ + upward semijoins.

    The pure semijoin program of §3.2 — no intermediate join is computed,
    which gives the O((m−1)·|r_max|^k · log|r_max|) bound the paper quotes.

    Args:
        decomposition: any decomposition whose λ labels include every atom
            (run :func:`repro.core.qhd.assign_atoms` first when unsure).
        query: the (Boolean or not) conjunctive query — the head is ignored.
        relations: atom name → variable-named relation.

    Returns:
        True iff the query body is satisfiable on the given relations; the
        upward pass stops at the first node it leaves empty.
    """
    if not _constant_atoms_satisfiable(query, relations):
        return False
    rels = _materialize_nodes(decomposition, relations, meter)
    return _semijoin_upward([decomposition.root], rels, meter, stop_on_empty=True)

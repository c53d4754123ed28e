"""Algorithm q-HypertreeDecomp (Fig. 4 of the paper).

Pipeline:

1. compute a minimal (cost-weighted) normal-form hypertree decomposition
   whose root χ covers out(Q) — :mod:`repro.core.costkdecomp` with
   ``required_root_cover=out(Q)``;
2. **assign atoms**: make sure every query atom occurs in some λ label, so
   every relation's predicate is applied during evaluation (a decomposition
   guarantees χ-*coverage* of each hyperedge, which is weaker);
3. run **Procedure Optimize**: delete an atom ``a`` from λ(p) whenever some
   child q carries an atom ``b`` with ``a ∩ χ(p) ⊆ b ∩ χ(q)`` — the child
   bounds a's variables, so joining a at p is wasted work.  The deleting
   node records q as the *guard*; the evaluator joins guard children first
   (the paper's topological-order caveat, end of §4.1).

Soundness guard: Optimize never deletes the **last** λ-occurrence of an
atom across the whole tree.  The paper's procedure implicitly preserves one
occurrence (its normal-form decompositions repeat atoms to satisfy
χ ⊆ var(λ)); making the guard explicit keeps arbitrary inputs sound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import DecompositionError, DecompositionNotFound
from repro.hypergraph.hypergraph import Hypergraph
from repro.metering import NULL_METER, WorkMeter
from repro.obs.tracing import current_tracer
from repro.query.conjunctive import ConjunctiveQuery
from repro.resilience.context import current_context
from repro.core.costkdecomp import cost_k_decomp
from repro.core.costmodel import DecompositionCostModel
from repro.core.detkdecomp import det_k_decomp
from repro.core.hypertree import Hypertree, HypertreeNode


def assign_atoms(decomposition: Hypertree, query: ConjunctiveQuery) -> int:
    """Ensure every query atom occurs in some λ label (in place).

    Every hyperedge is χ-covered by some node (condition 1); for each atom
    missing from all λ labels, append it to the λ of a covering node —
    preferring the node with the smallest χ, a proxy for the cheapest join
    site.  Appending an atom whose variables are inside χ(p) does not grow
    χ, so all decomposition conditions are preserved; the reported *width*
    may grow, which is the price Definition 2 accepts (see Example 4).

    Returns the number of atoms newly assigned to a λ label.
    """
    context = current_context()
    assigned = 0
    present = set()
    for node in decomposition.root.walk():
        present.update(node.lam)
    hypergraph = decomposition.hypergraph
    for atom in query.atoms:
        context.checkpoint("decompose.assign")
        if atom.name in present:
            continue
        if not hypergraph.has_edge(atom.name):
            # Atoms with no variables (pure constant filters) have no edge;
            # they are applied on base scans, not in the decomposition.
            if not atom.variables:
                continue
            raise DecompositionError(
                f"atom {atom.name!r} has no hyperedge in the decomposition's "
                "hypergraph; was the decomposition built for this query?"
            )
        vertices = hypergraph.edge(atom.name).vertices
        candidates = [
            node for node in decomposition.root.walk() if vertices <= node.chi
        ]
        if not candidates:
            raise DecompositionError(
                f"hyperedge {atom.name!r} is not covered by any χ label — "
                "not a valid decomposition for this query"
            )
        target = min(candidates, key=lambda n: (len(n.chi), n.node_id))
        target.lam = target.lam + (atom.name,)
        present.add(atom.name)
        assigned += 1
    return assigned


def procedure_optimize(decomposition: Hypertree) -> int:
    """Procedure Optimize of Fig. 4 (in place); returns number of deletions.

    Walks the tree from the root.  For each node p and atom a ∈ λ(p): if
    there is a child q and an atom b ∈ λ(q) with a ∩ χ(p) ⊆ b ∩ χ(q), the
    occurrence of a at p is redundant — remove it and record q as its
    guard.  The last remaining occurrence of an atom in the whole tree is
    never removed (soundness; see module docstring).
    """
    context = current_context()
    hypergraph = decomposition.hypergraph
    occurrences: Dict[str, int] = {}
    for node in decomposition.root.walk():
        for name in node.lam:
            occurrences[name] = occurrences.get(name, 0) + 1

    removed = 0
    # Pre-order: a node's λ is settled before its children are visited.
    for node in decomposition.root.walk():
        context.checkpoint("decompose.optimize")
        kept: List[str] = []
        for atom_name in node.lam:
            guard = _find_guard(hypergraph, node, atom_name)
            if guard is not None and occurrences[atom_name] > 1:
                node.guards[atom_name] = guard
                occurrences[atom_name] -= 1
                removed += 1
            else:
                kept.append(atom_name)
        node.lam = tuple(kept)
    return removed


def _find_guard(
    hypergraph: Hypergraph, node: HypertreeNode, atom_name: str
) -> Optional[HypertreeNode]:
    """The child whose λ subsumes ``atom_name``'s bounding role at ``node``."""
    bound_here = hypergraph.edge(atom_name).vertices & node.chi
    for child in node.children:
        for other in child.lam:
            if other == atom_name:
                continue
            if bound_here <= (hypergraph.edge(other).vertices & child.chi):
                return child
        # An occurrence of the very same atom in the child also guards it.
        if atom_name in child.lam and bound_here <= (
            hypergraph.edge(atom_name).vertices & child.chi
        ):
            return child
    return None


def q_hypertree_decomp(
    query: ConjunctiveQuery,
    k: int,
    cost_model: Optional[DecompositionCostModel] = None,
    optimize: bool = True,
    output_weight: float = 0.0,
    meter: WorkMeter = NULL_METER,
) -> Hypertree:
    """Algorithm q-HypertreeDecomp: a *good* q-hypertree decomposition of Q.

    Args:
        query: the conjunctive query (its head defines the root cover).
        k: width bound (the paper suggests k = 4 for database queries).
        cost_model: statistics weighting; defaults to the uniform
            (purely structural) model.
        optimize: run Procedure Optimize (Fig. 4).  Disable to measure its
            impact — the paper's Fig. 10 ablation.
        output_weight: weight of the aggregate term in the cost model (the
            paper's future-work extension; 0 disables it).
        meter: charged ``"plan"`` work units by the cost-k-decomp search —
            the deterministic planning-effort measure the serving layer's
            plan cache amortizes.

    Returns:
        A rooted :class:`Hypertree` whose root χ covers out(Q), with every
        atom assigned to a λ label and (optionally) Optimize applied.

    Raises:
        DecompositionNotFound: no width-≤k decomposition of H(Q) satisfies
            condition 2 of Definition 2 ("Failure" in Fig. 4).
    """
    hypergraph = query.hypergraph()
    if len(hypergraph) == 0:
        # No atom has a variable: one node with χ = λ = ∅, whose answer is
        # the empty join {()} once the variable-free atoms are satisfied.
        return Hypertree(HypertreeNode((), ()), hypergraph)
    tracer = current_tracer()
    with tracer.span(
        "decompose.qhd", meter=meter, k=k, atoms=len(query.atoms)
    ) as qhd_span:
        model = cost_model or DecompositionCostModel.uniform(query)
        result = cost_k_decomp(
            hypergraph,
            k,
            model,
            required_root_cover=query.output_variables,
            output_weight=output_weight,
            meter=meter,
        )
        if result is None:
            raise DecompositionNotFound(
                f"no hypertree decomposition of width ≤ {k} covers the output "
                f"variables {sorted(query.output_variables)} at one node",
                width=k,
            )
        decomposition, _cost = result
        with tracer.span("decompose.assign", meter=meter) as span:
            assigned = assign_atoms(decomposition, query)
            span.tag(assigned=assigned)
        if optimize:
            with tracer.span("decompose.optimize", meter=meter) as span:
                lambda_before = sum(
                    len(node.lam) for node in decomposition.root.walk()
                )
                removed = procedure_optimize(decomposition)
                span.tag(
                    removed=removed,
                    lambda_before=lambda_before,
                    lambda_after=lambda_before - removed,
                )
        qhd_span.tag(width=decomposition.width, nodes=len(decomposition))
    return decomposition

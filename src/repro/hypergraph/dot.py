"""Graphviz DOT export for hypergraphs and decompositions.

The paper's Figure 1 draws H(Q5) as a hypergraph diagram and Figures 2/3
draw decomposition trees; these exporters produce the same pictures for any
query.  Hypergraphs use the standard bipartite convention (variable nodes ∘,
edge nodes ▭, incidence arcs); decompositions are rendered as trees with
χ/λ labels per node.  Output renders with ``dot -Tsvg``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hypergraph.hypergraph import Hypergraph


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def hypergraph_to_dot(
    hypergraph: Hypergraph,
    name: str = "H",
    highlight_vertices: Optional[set] = None,
) -> str:
    """Bipartite incidence drawing of a hypergraph.

    Args:
        highlight_vertices: optionally emphasized variables (e.g. out(Q)).
    """
    highlight = highlight_vertices or set()
    lines: List[str] = [f"graph {_quote(name)} {{"]
    lines.append("  layout=neato; overlap=false; splines=true;")
    lines.append('  node [fontname="Helvetica", fontsize=10];')
    for vertex in sorted(hypergraph.vertices):
        style = ', style=filled, fillcolor="#ffd27f"' if vertex in highlight else ""
        lines.append(
            f"  {_quote('v:' + vertex)} [label={_quote(vertex)}, shape=ellipse{style}];"
        )
    for edge in hypergraph:
        lines.append(
            f"  {_quote('e:' + edge.name)} "
            f"[label={_quote(edge.name)}, shape=box, style=filled, fillcolor=\"#d8e8ff\"];"
        )
        for vertex in sorted(edge.vertices):
            lines.append(f"  {_quote('e:' + edge.name)} -- {_quote('v:' + vertex)};")
    lines.append("}")
    return "\n".join(lines)


def decomposition_to_dot(decomposition, name: str = "HD") -> str:
    """Tree drawing of a hypertree decomposition with χ/λ labels.

    Accepts a :class:`repro.core.hypertree.Hypertree` (duck-typed: needs
    ``root`` with ``walk()``, ``chi``, ``lam``, ``children``).
    """
    lines: List[str] = [f"digraph {_quote(name)} {{"]
    lines.append('  node [fontname="Helvetica", fontsize=10, shape=box];')
    for node in decomposition.root.walk():
        lam = ", ".join(node.lam) if node.lam else "∅"
        chi = ", ".join(sorted(node.chi))
        label = f"λ: {{{lam}}}\\nχ: {{{chi}}}"
        guard_note = ""
        if getattr(node, "guards", None):
            removed = ", ".join(sorted(node.guards))
            guard_note = f"\\n(removed: {removed})"
        lines.append(f"  n{node.node_id} [label={_quote(label + guard_note)}];")
    for node in decomposition.root.walk():
        guard_ids = {id(child) for child in getattr(node, "guards", {}).values()}
        for child in node.children:
            style = ' [style=bold, color="#cc5500"]' if id(child) in guard_ids else ""
            lines.append(f"  n{node.node_id} -> n{child.node_id}{style};")
    lines.append("}")
    return "\n".join(lines)


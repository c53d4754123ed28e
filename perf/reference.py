"""An evaluator and a digest that share no code with the program.

The correctness oracle for line and chain queries: the built-in planner
does not finish the larger ones (acyclic n=10 at cardinality 1000 needs
more than 10^8 work units — the paper's point), and a digest taken from the
q-HD path would only compare the code under test with itself.  This module
imports nothing from ``repro``; it works on the plain tables of
``datagen``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from perf.datagen import Table


@dataclass(frozen=True)
class PathQuery:
    """``SELECT first.x, first.y`` over ``y_i = x_{i+1}`` joins.

    ``relations`` names binary tables in join order; ``cyclic`` adds
    ``y_last = x_first``; ``floor``, when set, is ``(position, bound)``:
    only rows of ``relations[position]`` with ``x >= bound`` take part.
    """

    relations: Tuple[str, ...]
    cyclic: bool
    floor: Optional[Tuple[int, int]] = None


def path_answer(tables: Dict[str, Table], query: PathQuery) -> Set[Tuple[int, int]]:
    """The answer of ``query`` as a set of ``(x, y)`` rows of its first relation."""
    rows: List[List[Tuple[int, int]]] = [tables[name][1] for name in query.relations]
    if query.floor is not None:
        position, bound = query.floor
        rows[position] = [row for row in rows[position] if row[0] >= bound]
    first, rest = rows[0], rows[1:]
    if not query.cyclic:
        # Right-to-left: the x values from which the rest of the line completes.
        alive: Optional[Set[int]] = None
        for relation in reversed(rest):
            alive = {x for x, y in relation if alive is None or y in alive}
        return {(x, y) for x, y in first if alive is None or y in alive}
    successors: List[Dict[int, Set[int]]] = []
    for relation in rest:
        step: Dict[int, Set[int]] = {}
        for x, y in relation:
            step.setdefault(x, set()).add(y)
        successors.append(step)
    reached: Dict[int, Set[int]] = {}
    answer = set()
    for x0, y0 in set(first):
        if y0 not in reached:
            frontier = {y0}
            for step in successors:
                frontier = set().union(*(step.get(v, ()) for v in frontier))
            reached[y0] = frontier
        if x0 in reached[y0]:
            answer.add((x0, y0))
    return answer


def _canonical(value: object) -> str:
    # Aggregates are float sums whose last digits depend on the order rows
    # were added in, which differs between plans; six significant digits
    # are far coarser than that noise and far finer than a wrong answer.
    if isinstance(value, float):
        return format(value, ".6g")
    return repr(value)


def digest(attributes: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """sha256 over the attribute names and the sorted multiset of rows."""
    lines = sorted("\x1f".join(map(_canonical, row)) for row in rows)
    payload = "\x1e".join(["\x1f".join(attributes)] + lines)
    return hashlib.sha256(payload.encode()).hexdigest()

"""Every public name in ``src/repro`` has a reader outside ``tests/``.

A top-level function or class, or a method of a top-level class, whose name
is referenced only by the tests is a path that no command, example, script
or benchmark reaches: give it a reader or delete it.  References are counted
by name (an identifier or an attribute) in ``src/``, ``scripts/``,
``examples/`` and ``perf/``, outside the name's own definition, import lines
and ``__all__``.  Matching by name over-counts (two methods called ``run``
read each other) and never under-counts, so a failure here is real.

``ALLOWED`` exempts what tests need and nothing else reads, each with its
reason; an entry that gains a reader or loses its definition fails too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
READERS = ("src", "scripts", "examples", "perf")

_ORACLE = "test oracle: a condition or algorithm of the paper that results are checked by"
_GENERATOR = "generator of the hypergraph or workload families tests draw from"
_CLUSTER = "probe of a live shard cluster that the chaos and supervisor tests kill or watch"
_WITNESS = "the lock witness's test-session hooks (conftest checks every test)"
_UNDECIDED = "data-model accessor with a unit test only; undecided under 7(e)"

ALLOWED = {
    "Hypertree.is_hypertree_decomposition": _ORACLE,
    "Hypertree.is_q_hypertree_decomposition": _ORACLE,
    "Hypertree.output_cover_node": _ORACLE,
    "Hypertree.atom_occurrences": _ORACLE,
    "make_node": "builds hand-made decompositions for the oracle tests",
    "is_normal_form": _ORACLE,
    "verify_join_tree": _ORACLE,
    "ValidationReport.by_condition": _ORACLE,
    "yannakakis_acyclic": _ORACLE,
    "yannakakis_boolean": _ORACLE,
    "subtree_signature": "oracle for the evaluator's in-tree aliasing",
    "ConjunctiveQueryBuilder": "builds conjunctive queries in a dozen test files",
    "clique_hypergraph": _GENERATOR,
    "grid_hypergraph": _GENERATOR,
    "random_hypergraph": _GENERATOR,
    "generate_star_database": _GENERATOR,
    "star_query_sql": _GENERATOR,
    "ShardRouter.shard_pids": _CLUSTER,
    "ShardRouter.live_shards": _CLUSTER,
    "ShardRouter.ring_epoch": _CLUSTER,
    "SupervisorMetrics.worker_deaths": _CLUSTER,
    "SupervisorMetrics.breaker_opens": _CLUSTER,
    "LockWitness.assert_clean": _WITNESS,
    "LockWitness.reset": _WITNESS,
    "Hyperedge.intersects": _UNDECIDED,
    "Hypergraph.induced": _UNDECIDED,
    "Hypergraph.degree": _UNDECIDED,
    "ConjunctiveQuery.rename": _UNDECIDED,
    "Relation.rename": _UNDECIDED,
    "StatisticsCatalog.require": _UNDECIDED,
    "ConsistentHashRing.distribution": _UNDECIDED,
}


def _is_dispatched(name):
    """``ast.NodeVisitor`` calls ``visit_<Node>`` methods by name."""
    return name.startswith("visit_")


def public_definitions(modules):
    """Qualified name → bare name of every public top-level definition."""
    found = {}
    for module in modules:
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not member.name.startswith("_"):
                            found[f"{node.name}.{member.name}"] = member.name
    return found


class _References(ast.NodeVisitor):
    """Names read anywhere except inside a definition of the same name."""

    def __init__(self):
        self.names = set()
        self._enclosing = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)


@pytest.fixture(scope="module")
def program():
    """(qualified → bare name of each public definition, names read)."""
    trees = {
        path: ast.parse(path.read_text())
        for directory in READERS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    package = ROOT / "src" / "repro"
    visitor = _References()
    for tree in trees.values():
        visitor.visit(tree)
    sources = [tree for path, tree in trees.items() if package in path.parents]
    return public_definitions(sources), visitor.names


def test_every_public_name_has_a_reader_outside_tests(program):
    definitions, read = program
    unread = sorted(
        qualified
        for qualified, name in definitions.items()
        if name not in read and qualified not in ALLOWED and not _is_dispatched(name)
    )
    assert not unread, (
        "reached only by tests (give each a reader or delete it): " + ", ".join(unread)
    )


def test_allow_list_is_current(program):
    definitions, read = program
    stale = sorted(
        qualified
        for qualified in ALLOWED
        if qualified not in definitions or definitions[qualified] in read
    )
    assert not stale, "allow-list entries now read or gone: " + ", ".join(stale)

"""Core abstractions of the static-analysis pass.

Every rule has one protocol: :meth:`Rule.check` takes the
:class:`~repro.analysis.interproc.model.ProgramModel` — whose module
table holds each file parsed once as a :class:`FileSource` — and returns
:class:`Finding` records.  A rule that reads the call graph or the
tracked value flow asks for it (:func:`~repro.analysis.interproc.model.
resolve_program`, idempotent), so that step runs only when a selected
rule needs it.  :class:`FileRule` is the base for rules that look at one
file at a time: they are *scoped* to package subpaths
(``repro/engine/``, ``repro/service/``, …), so a rule about
physical-operator row loops never fires on, say, the CLI.

Suppressions follow the familiar inline-comment convention::

    meter.charge(1, "probe")  # hdqo: ignore[checkpoint-coverage]

suppresses the named rule(s) on that line; ``# hdqo: ignore`` (no bracket)
suppresses every rule on the line, and a ``# hdqo: ignore-file[rule-id]``
comment anywhere in the file suppresses the rule for the whole file.
Suppressed findings are counted (reported in the summary) but do not fail
the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.analysis.interproc.model import ProgramModel

ERROR = "error"
WARNING = "warning"

_SUPPRESS_RE = re.compile(
    r"#\s*hdqo:\s*ignore(?P<file>-file)?(?:\[(?P<rules>[a-z0-9_,\- ]+)\])?",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        rule_id: the violated rule (``checkpoint-coverage``, …).
        severity: :data:`ERROR` or :data:`WARNING`.
        path: file the finding is in.
        line: 1-based line number.
        column: 0-based column offset.
        message: human-readable description of the violation.
    """

    rule_id: str
    severity: str
    path: str
    line: int
    column: int
    message: str
    #: Stable identity of the finding, independent of line numbers.
    key: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "key": self.key,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.severity}[{self.rule_id}] {self.message}"
        )


@dataclass
class FileSource:
    """One parsed file plus its suppression table.

    Attributes:
        path: the file path as given to the driver.
        posix_path: the path with forward slashes (rule scopes match on it).
        text: raw source text.
        tree: the parsed module.
        line_suppressions: line → suppressed rule ids (``None`` = all).
        file_suppressions: rule ids suppressed for the whole file.
    """

    path: str
    posix_path: str
    text: str
    tree: ast.Module
    line_suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    file_suppressions: FrozenSet[str] = frozenset()

    @classmethod
    def parse(cls, path: str, text: str) -> "FileSource":
        """Parse source text; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(text, filename=path)
        line_suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
        file_rules: List[str] = []
        for number, line in enumerate(text.splitlines(), 1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            names = (
                frozenset(part.strip() for part in rules.split(",") if part.strip())
                if rules is not None
                else None
            )
            if match.group("file"):
                file_rules.extend(names or ())
            else:
                previous = line_suppressions.get(number, frozenset())
                if names is None or previous is None:
                    line_suppressions[number] = None
                else:
                    line_suppressions[number] = previous | names
        return cls(
            path=path,
            posix_path=path.replace("\\", "/"),
            text=text,
            tree=tree,
            line_suppressions=line_suppressions,
            file_suppressions=frozenset(file_rules),
        )

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Is ``rule_id`` suppressed at ``line`` (inline or file-wide)?"""
        if rule_id in self.file_suppressions:
            return True
        if line in self.line_suppressions:
            rules = self.line_suppressions[line]
            return rules is None or rule_id in rules
        return False


class Rule:
    """One static-analysis rule: ``check(model)`` returns its findings.

    Subclasses set :attr:`rule_id`, :attr:`severity` and
    :attr:`description`, and implement :meth:`check`.
    """

    rule_id: str = "rule"
    severity: str = ERROR
    description: str = ""
    def check(self, model: "ProgramModel") -> List[Finding]:
        raise NotImplementedError


class FileRule(Rule):
    """A rule that inspects one parsed file at a time.

    Subclasses set :attr:`scopes` and implement :meth:`check_file`;
    :meth:`check` applies it to every in-scope module of the model.
    """

    #: Substrings of the forward-slash path this rule applies to.
    scopes: Tuple[str, ...] = ("repro/",)

    def applies_to(self, posix_path: str) -> bool:
        return any(scope in posix_path for scope in self.scopes)

    def check_file(self, source: FileSource) -> List[Finding]:
        raise NotImplementedError

    def check(self, model: "ProgramModel") -> List[Finding]:
        findings: List[Finding] = []
        for name, module in model.modules.items():
            source = module.source
            if not self.applies_to(source.posix_path):
                continue
            for finding in self.check_file(source):
                # Baseline identity: module, enclosing def and the flagged
                # line's text — it survives edits that only move the line,
                # and accepts that line in that function only.
                scope = enclosing_scope(source.tree, finding.line)
                text = source.text.splitlines()[finding.line - 1].strip()
                findings.append(replace(finding, key=f"{name}:{scope}:{text}"))
        return findings

    def finding(
        self, source: FileSource, node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=source.path,
            line=int(getattr(node, "lineno", 1)),
            column=int(getattr(node, "col_offset", 0)),
            message=message,
        )


def enclosing_scope(tree: ast.Module, line: int) -> str:
    """Dotted name of the innermost def/class spanning ``line``
    (``Class.method``), or ``<module>`` for top-level code."""
    names: List[str] = []
    body: List[ast.AST] = list(tree.body)
    while body:
        node = body.pop()
        start = getattr(node, "lineno", None)
        if start is None:  # ``arguments``, ``match_case``, …: look inside
            body.extend(ast.iter_child_nodes(node))
            continue
        if not start <= line <= (getattr(node, "end_lineno", None) or start):
            continue
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.append(node.name)
        body = list(ast.iter_child_nodes(node))
    return ".".join(names) or "<module>"


def attr_chain(node: ast.expr) -> Optional[List[str]]:
    """The dotted-name chain of an expression, or None.

    ``self.stats.misses`` → ``["self", "stats", "misses"]``; anything that
    is not a pure ``Name``/``Attribute`` chain (calls, subscripts) yields
    ``None``.
    """
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


def assign_targets(node: ast.AST) -> List[ast.expr]:
    """Target expressions of an assignment statement (``[]`` for others)."""
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def call_method_name(node: ast.Call) -> Optional[str]:
    """The attribute name of a method-style call (``x.y.charge(…)`` → ``charge``)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def iter_scope_nodes(root: ast.AST) -> List[ast.AST]:
    """Children of ``root``'s scope: every node except nested function /
    class / lambda bodies (their control flow is independent)."""
    collected: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        collected.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return collected


def scope_calls(root: ast.AST) -> List[ast.Call]:
    """Every call in ``root``'s own scope (nested defs excluded)."""
    return [n for n in iter_scope_nodes(root) if isinstance(n, ast.Call)]


def iter_functions(tree: ast.Module) -> List[ast.AST]:
    """All function definitions in a module, nested ones included, plus the
    module itself (for top-level code)."""
    functions: List[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
    return functions


def exception_names(handler_type: Optional[ast.expr]) -> List[str]:
    """Terminal names of an ``except`` clause type (tuples flattened)."""
    if handler_type is None:
        return []
    nodes: Sequence[ast.expr]
    if isinstance(handler_type, ast.Tuple):
        nodes = handler_type.elts
    else:
        nodes = [handler_type]
    names: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names

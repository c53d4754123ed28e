"""Codec-completeness analysis: every error type must cross the wire.

The shard boundary reconstructs typed errors from plain data via the
codec tables in ``repro.shard.messages``: ``_ERROR_FIELDS`` (structured
constructors, encoded attribute-by-attribute) and ``_MESSAGE_ONLY``
(constructors taking just a message).  An error class missing from both
tables still *works* — it degrades to a generic ``ShardError`` carrying
the original type name — but the caller silently loses the type and its
structured payload, which breaks typed ``except`` clauses across the
process boundary.

This analysis enumerates every ``ReproError`` subclass in the program
(the class hierarchy is resolved statically, so new error modules are
picked up automatically) and verifies against the statically-parsed
tables:

* **registration** — every concrete subclass appears in one table;
* **signature** — ``_ERROR_FIELDS`` tuples are passed *positionally* to
  the constructor on decode, so each field must name the parameter at
  its position (``args0`` stands for the leading message), the tuple
  must cover every non-defaulted parameter, and each encoded field must
  be stored as an instance attribute (``self.<field> = …``) somewhere in
  the ``__init__`` chain — otherwise ``encode_error`` ships ``None``;
* **losslessness** — a ``_MESSAGE_ONLY`` class whose own constructor
  takes structured parameters beyond the message would drop them in the
  round-trip; it belongs in ``_ERROR_FIELDS`` instead;
* **liveness** — table entries naming no known error class are flagged
  as stale (they mask nothing and rot silently).

If the analyzed paths contain no codec tables (e.g. linting a subtree),
the analysis is a no-op rather than a wall of false positives.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import WARNING, Finding, Rule, assign_targets
from repro.analysis.interproc.model import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProgramModel,
)

RULE_ID = "interproc-codec"

#: The root of the error hierarchy the codec must cover.
ERROR_ROOT = "ReproError"


class CodecTables:
    """The statically-parsed codec tables of one module."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.fields: Dict[str, Tuple[str, ...]] = {}
        self.message_only: Set[str] = set()
        #: Line of each table entry / table, for anchored findings.
        self.entry_lines: Dict[str, int] = {}
        self.table_line = 1

    @property
    def registered(self) -> Set[str]:
        return set(self.fields) | self.message_only


def find_codec_tables(model: ProgramModel) -> Optional[CodecTables]:
    """Locate and parse ``_ERROR_FIELDS`` / ``_MESSAGE_ONLY`` literals."""
    for module in model.modules.values():
        tables = _parse_tables(module)
        if tables is not None:
            return tables
    return None


def _parse_tables(module: ModuleInfo) -> Optional[CodecTables]:
    tables = CodecTables(module)
    found_fields = False
    found_message_only = False
    for node in module.source.tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        for target in assign_targets(node):
            if not isinstance(target, ast.Name) or value is None:
                continue
            if target.id == "_ERROR_FIELDS" and isinstance(value, ast.Dict):
                found_fields = True
                tables.table_line = node.lineno
                for key_node, value_node in zip(value.keys, value.values):
                    name = _const_str(key_node)
                    if name is None:
                        continue
                    fields = _str_tuple(value_node)
                    if fields is not None:
                        tables.fields[name] = fields
                        tables.entry_lines[name] = int(
                            getattr(key_node, "lineno", node.lineno)
                        )
            elif target.id == "_MESSAGE_ONLY":
                names = _str_collection(value)
                if names is not None:
                    found_message_only = True
                    for name in names:
                        tables.message_only.add(name)
                        tables.entry_lines.setdefault(name, node.lineno)
    if found_fields and found_message_only:
        return tables
    return None


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _str_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        values = [_const_str(element) for element in node.elts]
        if all(value is not None for value in values):
            return tuple(value for value in values if value is not None)
    return None


def _str_collection(node: ast.expr) -> Optional[List[str]]:
    # ``frozenset({...})`` / ``frozenset([...])`` / a set literal.
    inner: Optional[ast.expr] = None
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"frozenset", "set"}
        and len(node.args) == 1
    ):
        inner = node.args[0]
    elif isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        inner = node
    if inner is None or not isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
        return None
    values = [_const_str(element) for element in inner.elts]
    if all(value is not None for value in values):
        return [value for value in values if value is not None]
    return None


class _Constructor:
    """The resolved ``__init__`` signature of an error class."""

    def __init__(
        self,
        params: List[str],
        required: List[str],
        own: bool,
        stored: Set[str],
    ) -> None:
        self.params = params  # positional params after self, in order
        self.required = required  # the ones without defaults
        self.own = own  # defined by the class itself (not inherited)
        self.stored = stored  # attributes assigned in the __init__ chain


def _constructor_of(model: ProgramModel, info: ClassInfo) -> _Constructor:
    params: List[str] = []
    required: List[str] = []
    own = False
    stored: Set[str] = set()
    signature_taken = False
    for ancestor in model.mro(info.qualname):
        init_qualname = ancestor.methods.get("__init__")
        if init_qualname is None:
            continue
        fn = model.functions.get(init_qualname)
        if fn is None:
            continue
        stored |= _self_assignments(fn)
        if not signature_taken:
            signature_taken = True
            own = ancestor.qualname == info.qualname
            args = fn.node.args
            positional = [arg.arg for arg in args.args]
            if positional[:1] == ["self"]:
                positional = positional[1:]
            params = positional
            defaults = len(args.defaults)
            required = positional[: len(positional) - defaults]
    return _Constructor(params, required, own, stored)


def _self_assignments(fn: FunctionInfo) -> Set[str]:
    stored: Set[str] = set()
    for node in ast.walk(fn.node):
        for target in assign_targets(node):
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                stored.add(target.attr)
    return stored


class CodecCompletenessAnalysis(Rule):
    """Verify the shard error codec covers the whole error hierarchy.

    Reads only what indexing declares (class hierarchy, constructor
    signatures, module-level literals) — never the call graph.
    """

    rule_id = RULE_ID
    description = (
        "every ReproError subclass must round-trip through the shard "
        "codec without degrading to a generic ShardError"
    )

    def check(self, model: ProgramModel) -> List[Finding]:
        tables = find_codec_tables(model)
        error_classes = {
            info.name: info for info in model.subclasses_of(ERROR_ROOT)
        }
        if tables is None or not error_classes:
            return []
        findings: List[Finding] = []
        for name in sorted(error_classes):
            info = error_classes[name]
            if name not in tables.registered:
                findings.append(
                    _finding_at_class(
                        self, info,
                        key=f"codec-unregistered:{name}",
                        message=(
                            f"{name} is not registered in the shard error "
                            f"codec ({tables.module.path}: _ERROR_FIELDS / "
                            f"_MESSAGE_ONLY); it will cross the process "
                            f"boundary as a degraded ShardError"
                        ),
                    )
                )
                continue
            constructor = _constructor_of(model, info)
            if name in tables.fields:
                findings.extend(
                    self._check_fields(
                        tables, info, constructor, tables.fields[name]
                    )
                )
            elif name in tables.message_only and constructor.own:
                extra = [p for p in constructor.params[1:]]
                if extra:
                    findings.append(
                        _finding_at_class(
                            self, info,
                            key=f"codec-lossy:{name}",
                            message=(
                                f"{name} is registered _MESSAGE_ONLY but its "
                                f"constructor carries structured state "
                                f"({', '.join(extra)}); the round-trip "
                                f"silently drops it — register it in "
                                f"_ERROR_FIELDS instead"
                            ),
                        )
                    )
        for name in sorted(tables.registered):
            if name != ERROR_ROOT and name not in error_classes:
                findings.append(
                    Finding(
                        rule_id=self.rule_id,
                        severity=WARNING,
                        path=tables.module.source.path,
                        line=tables.entry_lines.get(name, tables.table_line),
                        column=0,
                        message=(
                            f"codec entry {name!r} matches no known "
                            f"ReproError subclass (stale or misspelled)"
                        ),
                        key=f"codec-stale:{name}",
                    )
                )
        findings.sort(key=Finding.sort_key)
        return findings

    def _check_fields(
        self,
        tables: CodecTables,
        info: ClassInfo,
        constructor: _Constructor,
        fields: Tuple[str, ...],
    ) -> List[Finding]:
        problems: List[str] = []
        if len(fields) > len(constructor.params):
            problems.append(
                f"{len(fields)} encoded fields but the constructor takes "
                f"{len(constructor.params)}"
            )
        for position, field_name in enumerate(fields):
            if position >= len(constructor.params):
                break
            param = constructor.params[position]
            if field_name == "args0":
                if position != 0:
                    problems.append("args0 must be the first field")
                continue
            if field_name != param:
                problems.append(
                    f"field {position} is {field_name!r} but the "
                    f"constructor parameter there is {param!r} "
                    f"(decode passes fields positionally)"
                )
            if field_name not in constructor.stored:
                problems.append(
                    f"{field_name!r} is never stored as an instance "
                    f"attribute, so encode_error would ship None"
                )
        for param in constructor.required[len(fields):]:
            problems.append(
                f"required constructor parameter {param!r} is not encoded; "
                f"decode would raise TypeError and degrade to ShardError"
            )
        if not problems:
            return []
        return [
            Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=tables.module.source.path,
                line=tables.entry_lines.get(info.name, tables.table_line),
                column=0,
                message=(
                    f"_ERROR_FIELDS[{info.name!r}] does not match the "
                    f"constructor: " + "; ".join(problems)
                ),
                key=f"codec-signature:{info.name}",
            )
        ]


def _finding_at_class(
    analysis: CodecCompletenessAnalysis,
    info: ClassInfo,
    key: str,
    message: str,
) -> Finding:
    return Finding(
        rule_id=analysis.rule_id,
        severity=analysis.severity,
        path=info.source.path,
        line=int(info.node.lineno),
        column=int(info.node.col_offset),
        message=message,
        key=key,
    )


__all__ = [
    "CodecCompletenessAnalysis",
    "CodecTables",
    "ERROR_ROOT",
    "RULE_ID",
    "find_codec_tables",
]

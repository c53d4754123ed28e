"""Whole-program model: modules, classes, functions, and the call graph.

Every rule checks one :class:`ProgramModel`.  :func:`index_program`
parses each file once into the module table (what the per-file rules
iterate) and declares classes and functions; :func:`resolve_program`
adds what the whole-program analyses read: which function calls which,
which attribute holds an instance of which class, which locks a callee
may acquire, which functions run on worker threads.  The second step is
idempotent and runs on first request, so an invocation whose selected
rules never ask for it pays for parsing only.

Resolution is heuristic but sound *in the direction the analyses need*:

* **names** resolve through module-level defs and imports (absolute and
  relative);
* **``self.m()``** resolves through the enclosing class and its in-program
  bases (a method lookup over the static MRO);
* **``self.x.m()`` / ``v.m()``** resolve through *tracked value flow*:
  ``self.x = ClassName(...)`` and ``v = ClassName(...)`` record the
  instance type, so the method lookup has a receiver class;
* **declared return types** add the program classes they name
  (``-> Union[Tracer, NullTracer]``, ``Optional[A]``, ``"A"``) to what a
  call returns, covering what value flow cannot see (``getattr`` on a
  thread-local, a ``global`` rebound in another function);
* **callbacks** resolve one call-site deep: a function reference passed
  as an argument binds to the receiving parameter (positional or
  keyword, keyword-only included), so a callee invoking
  ``param(...)`` gains edges to every function its callers pass in (the
  plan cache's single-flight builder, the executor pool's submitted
  tasks); a parameter stored into ``self.x`` flows into the attribute;
* **thread/process roots** are functions passed as ``Thread(target=…)``
  / ``Process(target=…)`` or submitted to a pool (``submit`` /
  ``submit_blocking`` / ``submit_node``) — the entry points from which
  shared-state reachability starts.

What deliberately does *not* resolve — calls through data structures,
``getattr``, re-exported aliases — is recorded as an unresolved call so
the lock-order analysis can report (not silently ignore) indirect calls
made while a lock is held.  The dynamic witness-subgraph test in the
suite keeps the model honest: every acquired-after edge the runtime
witness observes must be present in the static graph.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.base import (
    ERROR,
    FileSource,
    Finding,
    assign_targets,
    attr_chain,
)

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".pytest_cache"})

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Callables recognised as lock factories (the witness factory and the
#: stdlib constructors it wraps).
_LOCK_FACTORIES = frozenset({"make_lock", "checked_lock"})
_RAW_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
_CONDITION_FACTORIES = frozenset({"Condition"})

#: Pool-submission method names whose first callable argument runs on a
#: worker thread.
_SUBMIT_METHODS = frozenset({"submit", "submit_blocking", "submit_node"})

#: set-typed builtin constructors / method names (for the determinism
#: analysis's value tracking).
_SET_CALLS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"difference", "union", "intersection", "symmetric_difference", "copy"}
)
_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


@dataclass
class ValueSet:
    """What an expression may evaluate to, as far as the model can tell."""

    classes: Set[str] = field(default_factory=set)  # instance-of these
    funcs: Set[str] = field(default_factory=set)  # these functions
    locks: Set[str] = field(default_factory=set)  # a lock with these names
    is_set: bool = False  # a set/frozenset value

    def merge(self, other: "ValueSet") -> None:
        self.classes |= other.classes
        self.funcs |= other.funcs
        self.locks |= other.locks
        self.is_set = self.is_set or other.is_set

    def empty(self) -> bool:
        return not (self.classes or self.funcs or self.locks or self.is_set)


@dataclass
class CallSite:
    """One call expression inside a function, with resolved targets."""

    caller: str
    node: ast.Call
    targets: Set[str] = field(default_factory=set)
    #: Diagnostic name for unresolved calls (``.snapshot`` → "snapshot").
    name: str = ""
    resolved: bool = False


@dataclass
class FunctionInfo:
    """One function / method / lambda in the program."""

    qualname: str
    module: str
    name: str
    node: FunctionNode
    source: FileSource
    cls: Optional[str] = None  # enclosing class qualname
    parent: Optional[str] = None  # enclosing function qualname
    params: List[str] = field(default_factory=list)
    #: Local name → tracked value (assignments scanned flow-insensitively).
    env: Dict[str, ValueSet] = field(default_factory=dict)
    #: Values this function may return.
    returns: ValueSet = field(default_factory=ValueSet)
    #: Lock names acquired directly (``with`` items) in this body.
    acquires: Set[str] = field(default_factory=set)
    calls: List[CallSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        return int(getattr(self.node, "lineno", 1))


@dataclass
class ClassInfo:
    """One class: methods, base classes, and tracked attribute values."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    source: FileSource
    bases: List[str] = field(default_factory=list)  # qualnames or raw names
    methods: Dict[str, str] = field(default_factory=dict)  # name → qualname
    attr_locks: Dict[str, str] = field(default_factory=dict)  # attr → lock
    attr_values: Dict[str, ValueSet] = field(default_factory=dict)
    #: Attributes written under one of the class's locks somewhere.
    guarded: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One module: its parsed source, imports, and top-level bindings."""

    name: str
    path: str
    source: FileSource
    is_package: bool = False  # an ``__init__.py``
    imports: Dict[str, str] = field(default_factory=dict)  # local → qualified
    env: Dict[str, ValueSet] = field(default_factory=dict)  # module globals


class ProgramModel:
    """The resolved whole-program view the analyses consume."""

    def __init__(self) -> None:
        #: The resolver that built the call graph (set by
        #: :func:`resolve_program`; ``None`` on an index-only model).
        self.resolver: Optional["_Resolver"] = None
        #: module name → parsed module; every file is parsed exactly once.
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname → callee qualnames (the call graph).
        self.callees: Dict[str, Set[str]] = {}
        #: Functions that run on worker threads / processes.
        self.thread_roots: Set[str] = set()
        #: (callee qualname, param name) → values bound at call sites
        #: (functions, class instances, locks — closures see them all).
        self.param_funcs: Dict[Tuple[str, str], ValueSet] = {}
        #: One ``syntax-error`` finding per file that could not be parsed.
        self.unparsed: List[Finding] = []

    # -- lookups --------------------------------------------------------

    def mro(self, cls: str) -> List[ClassInfo]:
        """The class and its in-program ancestors, nearest first."""
        ordered: List[ClassInfo] = []
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            name = queue.pop(0)
            info = self.classes.get(name)
            if info is None or info.qualname in seen:
                continue
            seen.add(info.qualname)
            ordered.append(info)
            queue.extend(info.bases)
        return ordered

    def lookup_method(self, cls: str, method: str) -> Optional[str]:
        """Resolve ``method`` over ``cls`` and its in-program bases."""
        for info in self.mro(cls):
            qualname = info.methods.get(method)
            if qualname is not None:
                return qualname
        return None

    def reachable_from(self, roots: Set[str]) -> Set[str]:
        """Call-graph closure of ``roots``."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.functions]
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            queue.extend(self.callees.get(name, ()))
        return seen


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def _module_name(path: str, root: str) -> str:
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(part for part in parts if part)


def _package_root(path: str) -> str:
    """The directory module names are relative to.

    Walks up while ``__init__.py`` marks package directories, so linting
    ``src/repro`` names modules ``repro.…`` and a fixture package in a
    tmp directory names them after its own top-level package.
    """
    current = os.path.abspath(path)
    if os.path.isfile(current):
        current = os.path.dirname(current)
    while os.path.exists(os.path.join(current, "__init__.py")):
        parent = os.path.dirname(current)
        if parent == current:
            break
        current = parent
    return current


class _ModuleIndexer(ast.NodeVisitor):
    """First pass over one module: declare classes and functions."""

    def __init__(self, model: ProgramModel, module: ModuleInfo) -> None:
        self.model = model
        self.module = module
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[FunctionInfo] = []

    # -- scope bookkeeping ---------------------------------------------

    def _qualify(self, name: str) -> str:
        if self._func_stack:
            return f"{self._func_stack[-1].qualname}.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1].qualname}.{name}"
        return f"{self.module.name}.{name}"

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.module.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # Relative import: resolve against this module's package.
            package = self.module.name.split(".")
            # level 1 = the containing package: a plain module drops its
            # own name; an ``__init__`` *is* the package already.
            drop = node.level - 1 if self.module.is_package else node.level
            if drop:
                package = package[: len(package) - drop]
            base = ".".join(package + ([node.module] if node.module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            self.module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # -- declarations ---------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualify(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
            source=self.module.source,
        )
        for base in node.bases:
            chain = attr_chain(base)
            if chain is None:
                continue
            info.bases.append(self._resolve_dotted(chain))
        self.model.classes[qualname] = info
        if not self._func_stack and not self._class_stack:
            self.module.env.setdefault(node.name, ValueSet()).classes.add(
                qualname
            )
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _resolve_dotted(self, chain: List[str]) -> str:
        head = chain[0]
        if head in self.module.imports:
            return ".".join([self.module.imports[head]] + chain[1:])
        local = f"{self.module.name}.{'.'.join(chain)}"
        return local

    def _declare_function(self, node: FunctionNode, name: str) -> None:
        qualname = self._qualify(name)
        cls = (
            self._class_stack[-1].qualname
            if self._class_stack and not self._func_stack
            else (self._func_stack[-1].cls if self._func_stack else None)
        )
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=name,
            node=node,
            source=self.module.source,
            cls=cls,
            parent=self._func_stack[-1].qualname if self._func_stack else None,
            # Keyword-only parameters too: call sites bind them by name.
            params=[
                arg.arg
                for arg in (
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                )
            ],
        )
        self.model.functions[qualname] = info
        if self._class_stack and not self._func_stack:
            self._class_stack[-1].methods[name] = qualname
        self._func_stack.append(info)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._declare_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._declare_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._declare_function(node, f"<lambda@{node.lineno}>")


def _own_statements(node: FunctionNode) -> Iterator[ast.AST]:
    """Nodes of a function's own body, nested defs/classes excluded."""
    body: Sequence[ast.AST]
    if isinstance(node, ast.Lambda):
        body = [node.body]
    else:
        body = node.body
    stack: List[ast.AST] = list(body)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))


class _Resolver:
    """Second pass: value flow, call-graph edges, roots (iterated)."""

    def __init__(self, model: ProgramModel) -> None:
        self.model = model

    # -- expression evaluation -----------------------------------------

    def eval_expr(self, expr: ast.expr, fn: FunctionInfo) -> ValueSet:
        out = ValueSet()
        if isinstance(expr, ast.Name):
            self._eval_name(expr.id, fn, out)
        elif isinstance(expr, ast.Attribute):
            self._eval_attribute(expr, fn, out)
        elif isinstance(expr, ast.Lambda):
            qual = f"{fn.qualname}.<lambda@{expr.lineno}>"
            if qual in self.model.functions:
                out.funcs.add(qual)
        elif isinstance(expr, (ast.Set, ast.SetComp)):
            out.is_set = True
        elif isinstance(expr, ast.Call):
            self._eval_call(expr, fn, out)
        elif isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self.eval_expr(expr.left, fn)
            right = self.eval_expr(expr.right, fn)
            out.is_set = left.is_set or right.is_set
        elif isinstance(expr, ast.IfExp):
            out.merge(self.eval_expr(expr.body, fn))
            out.merge(self.eval_expr(expr.orelse, fn))
        return out

    def _eval_name(self, name: str, fn: FunctionInfo, out: ValueSet) -> None:
        # Walk the lexical chain: locals, enclosing functions, module.
        current: Optional[FunctionInfo] = fn
        while current is not None:
            bound = current.env.get(name)
            if bound is not None:
                out.merge(bound)
                return
            bound_param = self.model.param_funcs.get((current.qualname, name))
            if bound_param is not None and name in current.params:
                out.merge(bound_param)
                return
            # Sibling / enclosing nested defs and classes bind their name
            # in the frame that declares them.
            candidate = f"{current.qualname}.{name}"
            if candidate in self.model.functions:
                out.funcs.add(candidate)
                return
            if candidate in self.model.classes:
                out.classes.add(candidate)
                return
            if name in current.params:
                return  # an untracked parameter shadows outer scopes
            current = (
                self.model.functions.get(current.parent)
                if current.parent
                else None
            )
        module = self.model.modules.get(fn.module)
        if module is None:
            return
        bound = module.env.get(name)
        if bound is not None:
            out.merge(bound)
            return
        target = module.imports.get(name)
        if target is not None:
            self._merge_qualified(target, out)

    def _merge_qualified(self, qualname: str, out: ValueSet) -> None:
        if qualname in self.model.classes:
            out.classes.add(qualname)  # a class object; calls construct it
        elif qualname in self.model.functions:
            out.funcs.add(qualname)
        else:
            module = self.model.modules.get(
                ".".join(qualname.split(".")[:-1])
            )
            if module is not None:
                bound = module.env.get(qualname.split(".")[-1])
                if bound is not None:
                    out.merge(bound)

    def _eval_attribute(
        self, expr: ast.Attribute, fn: FunctionInfo, out: ValueSet
    ) -> None:
        chain = attr_chain(expr)
        if (
            chain is not None
            and chain[0] == "self"
            and fn.cls is not None
            and len(chain) == 2
        ):
            self._merge_instance_attr(fn.cls, chain[1], out)
            return
        # Typed receiver (a parameter, local, or closure binding holding a
        # known class instance): same attribute lookup as ``self``.
        receiver = self.eval_expr(expr.value, fn)
        for cls in receiver.classes:
            self._merge_instance_attr(cls, expr.attr, out)
        if not out.empty():
            return
        # Module attribute (``mod.func`` / ``pkg.mod.Class``).
        if chain is None:
            return
        module = self.model.modules.get(fn.module)
        if module is None:
            return
        head = chain[0]
        target = module.imports.get(head)
        if target is not None:
            self._merge_qualified(".".join([target] + chain[1:]), out)

    def _merge_instance_attr(self, cls: str, attr: str, out: ValueSet) -> None:
        for info in self.model.mro(cls):
            if attr in info.attr_locks:
                out.locks.add(info.attr_locks[attr])
            bound = info.attr_values.get(attr)
            if bound is not None:
                out.merge(bound)
            method = info.methods.get(attr)
            if method is not None:
                out.funcs.add(method)

    def _eval_call(
        self, call: ast.Call, fn: FunctionInfo, out: ValueSet
    ) -> None:
        func = call.func
        name = _terminal_name(func)
        if name in _LOCK_FACTORIES:
            lock_name = _literal_str_arg(call)
            if lock_name is not None:
                out.locks.add(lock_name)
            return
        if name in _RAW_LOCK_FACTORIES:
            out.locks.add(f"<{fn.module}:{call.lineno}:{name}>")
            return
        if name in _CONDITION_FACTORIES:
            # Condition(lock) aliases the wrapped lock; a bare Condition()
            # wraps a private RLock (its own role).
            if call.args:
                out.merge(self.eval_expr(call.args[0], fn))
            else:
                out.locks.add(f"<{fn.module}:{call.lineno}:Condition>")
            return
        if name in _SET_CALLS:
            out.is_set = True
            return
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and self.eval_expr(func.value, fn).is_set
        ):
            out.is_set = True
            return
        callee = self.eval_expr(func, fn)
        for cls in callee.classes:
            out.classes.add(cls)  # constructor call → instance
        for target in callee.funcs:
            target_fn = self.model.functions.get(target)
            if target_fn is not None:
                out.merge(target_fn.returns)

    # -- per-function resolution ---------------------------------------

    def scan_function(self, fn: FunctionInfo) -> None:
        """(Re)build one function's env, returns, and call sites."""
        fn.env = {}
        fn.returns = ValueSet()
        fn.calls = []
        fn.acquires = set()
        # Assignments first (flow-insensitive), so later calls resolve
        # through locals regardless of statement order.
        for node in _own_statements(fn.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if node.value is not None:
                    evaluated = self.eval_expr(node.value, fn)
                    for target in assign_targets(node):
                        if isinstance(target, ast.Name):
                            slot = fn.env.setdefault(target.id, ValueSet())
                            slot.merge(evaluated)
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _is_set_annotation(node.annotation):
                        fn.env.setdefault(
                            node.target.id, ValueSet()
                        ).is_set = True
        for arg in _annotated_args(fn.node):
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                fn.env.setdefault(arg.arg, ValueSet()).is_set = True
        for node in _own_statements(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                fn.returns.merge(self.eval_expr(node.value, fn))
            elif isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
                for item in node.items:
                    fn.acquires |= self.lock_names_of(item.context_expr, fn)
            elif isinstance(node, ast.Call):
                self._resolve_call(node, fn)
        if isinstance(fn.node, ast.Lambda):
            fn.returns.merge(self.eval_expr(fn.node.body, fn))
        elif fn.node.returns is not None:
            fn.returns.is_set |= _is_set_annotation(fn.node.returns)
            # A declared return type covers what the body hides from value
            # flow: ``current_context()`` reads a thread-local through
            # ``getattr``, and ``set_tracer`` rebinds ``current_tracer()``'s
            # global.
            fn.returns.classes |= self._annotated_classes(
                fn.node.returns, fn
            )

    def _annotated_classes(
        self, annotation: ast.expr, fn: FunctionInfo
    ) -> Set[str]:
        """Program classes an annotation names: ``A``, ``"A"``,
        ``Optional[A]``, ``Union[A, B]``, ``A | B``."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return set()
        parts: List[ast.expr] = []
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            parts = [annotation.left, annotation.right]
        elif isinstance(annotation, ast.Subscript) and _terminal_name(
            annotation.value
        ) in {"Optional", "Union"}:
            inner = annotation.slice
            parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        elif isinstance(annotation, (ast.Name, ast.Attribute)):
            return self.eval_expr(annotation, fn).classes
        classes: Set[str] = set()
        for part in parts:
            classes |= self._annotated_classes(part, fn)
        return classes

    def lock_names_of(self, expr: ast.expr, fn: FunctionInfo) -> Set[str]:
        """Lock names an expression used as a ``with`` item may denote."""
        value = self.eval_expr(expr, fn)
        if value.locks:
            return set(value.locks)
        if isinstance(expr, ast.Call):
            callee = self.eval_expr(expr.func, fn)
            locks: Set[str] = set()
            for target in callee.funcs:
                target_fn = self.model.functions.get(target)
                if target_fn is not None:
                    locks |= target_fn.returns.locks
            return locks
        return set()

    def _resolve_call(self, call: ast.Call, fn: FunctionInfo) -> None:
        func = call.func
        site = CallSite(caller=fn.qualname, node=call, name=_terminal_name(func) or "")
        # ``super().m()``.
        is_super = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and _terminal_name(func.value.func) == "super"
            and fn.cls is not None
        )
        if is_super and isinstance(func, ast.Attribute) and fn.cls is not None:
            cls_info = self.model.classes.get(fn.cls)
            for base in cls_info.bases if cls_info is not None else []:
                method = self.model.lookup_method(base, func.attr)
                if method is not None:
                    site.targets.add(method)
        else:
            callee = self.eval_expr(func, fn)
            site.targets |= {
                target for target in callee.funcs
                if target in self.model.functions
            }
            for cls in callee.classes:
                init = self.model.lookup_method(cls, "__init__")
                if init is not None:
                    site.targets.add(init)
            if (
                not site.targets
                and isinstance(func, ast.Attribute)
            ):
                receiver = self.eval_expr(func.value, fn)
                for cls in receiver.classes:
                    method = self.model.lookup_method(cls, func.attr)
                    if method is not None:
                        site.targets.add(method)
        site.resolved = bool(site.targets)
        fn.calls.append(site)
        self._bind_arguments(call, site, fn)

    def _bind_arguments(
        self, call: ast.Call, site: CallSite, fn: FunctionInfo
    ) -> None:
        """Bind argument values (functions, instances) to parameters."""
        arg_values: List[Tuple[Optional[str], ValueSet]] = []
        for arg in call.args:
            arg_values.append((None, self.eval_expr(arg, fn)))
        for keyword in call.keywords:
            arg_values.append((keyword.arg, self.eval_expr(keyword.value, fn)))
        callee_name = _terminal_name(call.func)
        # Thread / process construction: the target runs concurrently.
        if callee_name in {"Thread", "Process"}:
            for key, value in arg_values:
                if key == "target":
                    self.model.thread_roots |= value.funcs
        # Pool submission: the callable runs on a worker thread.
        if callee_name in _SUBMIT_METHODS:
            for key, value in arg_values:
                if key is None and value.funcs:
                    self.model.thread_roots |= value.funcs
                    break
        # Generic parameter binding, one call-site deep.
        for target in site.targets:
            target_fn = self.model.functions.get(target)
            if target_fn is None:
                continue
            params = target_fn.params
            offset = 1 if params[:1] == ["self"] else 0
            position = 0
            for key, value in arg_values:
                if value.empty():
                    if key is None:
                        position += 1
                    continue
                if key is None:
                    index = position + offset
                    position += 1
                    if index >= len(params):
                        continue
                    param = params[index]
                else:
                    if key not in params:
                        continue
                    param = key
                self.model.param_funcs.setdefault(
                    (target, param), ValueSet()
                ).merge(value)

    # -- class summaries -----------------------------------------------

    def summarize_class(self, info: ClassInfo) -> None:
        info.attr_locks = {}
        info.attr_values = {}
        info.guarded = set()
        methods = [
            self.model.functions[qual]
            for qual in info.methods.values()
            if qual in self.model.functions
        ]
        # Two rounds so ``Condition(self._lock)`` aliases resolve after
        # ``self._lock = make_lock(…)`` has been recorded.
        for _ in range(2):
            for fn in methods:
                for node in _own_statements(fn.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    value = node.value
                    if value is None:
                        continue
                    for target in assign_targets(node):
                        chain = attr_chain(target)
                        if (
                            chain is None
                            or len(chain) != 2
                            or chain[0] != "self"
                        ):
                            continue
                        attr = chain[1]
                        evaluated = self.eval_expr(value, fn)
                        if evaluated.locks:
                            # One name per lock attribute: first wins
                            # (re-assignment keeps the role).
                            info.attr_locks.setdefault(
                                attr, sorted(evaluated.locks)[0]
                            )
                        if not evaluated.empty():
                            info.attr_values.setdefault(
                                attr, ValueSet()
                            ).merge(evaluated)
        # Param-valued attributes (``self.x = handler``): the call-site
        # bindings of the parameter flow into the attribute.
        for fn in methods:
            for node in _own_statements(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue
                param = node.value.id
                if param not in fn.params:
                    continue
                bound = self.model.param_funcs.get((fn.qualname, param))
                if bound is None or bound.empty():
                    continue
                for target in node.targets:
                    chain = attr_chain(target)
                    if chain and len(chain) == 2 and chain[0] == "self":
                        info.attr_values.setdefault(
                            chain[1], ValueSet()
                        ).merge(bound)

    def summarize_guarded(self, info: ClassInfo) -> None:
        """Attributes written while one of the class's locks — its own or
        an ancestor's — is held."""
        lock_attrs: Dict[str, str] = {}
        for ancestor in reversed(self.model.mro(info.qualname)):
            lock_attrs.update(ancestor.attr_locks)  # nearest class wins
        lock_names = set(lock_attrs.values())
        if not lock_names:
            return
        for qual in info.methods.values():
            fn = self.model.functions.get(qual)
            if fn is None:
                continue
            for event in iter_held_events(self, fn):
                if event[0] != "access" or not event[3]:
                    continue
                attr, held = event[2], event[4]
                assert isinstance(attr, str) and isinstance(held, set)
                if attr not in lock_attrs and held & lock_names:
                    info.guarded.add(attr)

    # -- module env -----------------------------------------------------

    def scan_module_env(self, module: ModuleInfo) -> None:
        holder = FunctionInfo(
            qualname=module.name,
            module=module.name,
            name="<module>",
            node=_EMPTY_FN,
            source=module.source,
        )
        for node in module.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                if qualname in self.model.functions:
                    module.env.setdefault(node.name, ValueSet()).funcs.add(
                        qualname
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                if node.value is None:
                    continue
                evaluated = self.eval_expr(node.value, holder)
                for target in assign_targets(node):
                    if isinstance(target, ast.Name):
                        module.env.setdefault(
                            target.id, ValueSet()
                        ).merge(evaluated)


_EMPTY_FN = ast.Lambda(
    args=ast.arguments(
        posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
        kw_defaults=[], kwarg=None, defaults=[],
    ),
    body=ast.Constant(value=None),
)


#: One event from :func:`iter_held_events`:
#: ``("acquire", node, acquired-locks, held-before)`` for a ``with`` item,
#: ``("call", CallSite, held)`` for every call expression, and
#: ``("access", node, attr, is_write, held)`` for every ``self.<attr>`` —
#: a write when it is, or is the root of, an assignment target:
#: ``self.n = 0``, ``self.stats.misses += 1``, ``self._counts[k] = v``.
HeldEvent = Tuple[str, object, object, object, object]


def iter_held_events(
    resolver: _Resolver, fn: FunctionInfo
) -> Iterator[HeldEvent]:
    """Walk ``fn``'s own body tracking which locks are held where.

    The single traversal both lock-order and race analysis consume:
    ``with`` items are evaluated progressively (item *n+1* sees item *n*'s
    locks as held, matching runtime order), nested function bodies are
    excluded (they acquire on their own behalf, connected via the call
    graph), and every call / ``self.<attr>`` access is reported together
    with the set of lock names held at that point.
    """
    sites = {id(site.node): site for site in fn.calls}
    written: Set[int] = set()  # id() of ``self.<attr>`` nodes assigned through

    def walk(node: ast.AST, held: Set[str]) -> Iterator[HeldEvent]:
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            current = set(held)
            for item in node.items:
                yield from walk(item.context_expr, current)
                acquired = resolver.lock_names_of(item.context_expr, fn)
                yield ("acquire", item.context_expr, acquired, set(current), None)
                current |= acquired
            for stmt in node.body:
                yield from walk(stmt, current)
            return
        if isinstance(node, ast.Call):
            site = sites.get(id(node))
            if site is not None:
                yield ("call", site, set(held), None, None)
        written.update(map(id, _self_write_roots(node)))
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                is_write = (
                    isinstance(node.ctx, (ast.Store, ast.Del))
                    or id(node) in written
                )
                yield ("access", node, node.attr, is_write, set(held))
        for child in ast.iter_child_nodes(node):
            yield from walk(child, held)

    body: Sequence[ast.AST] = (
        [fn.node.body] if isinstance(fn.node, ast.Lambda) else fn.node.body
    )
    for stmt in body:
        yield from walk(stmt, set())


def _self_write_roots(node: ast.AST) -> List[ast.Attribute]:
    """The ``self.<attr>`` node under each target of an assignment
    statement: subscripts are stripped and dotted chains followed to
    their root, so container and nested-path mutations count."""
    roots: List[ast.Attribute] = []
    queue = assign_targets(node)
    while queue:
        target = queue.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            queue.extend(target.elts)
            continue
        while isinstance(target, ast.Subscript):
            target = target.value
        while isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                roots.append(target)
            target = target.value
    return roots


def _terminal_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _literal_str_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def _is_set_annotation(annotation: ast.expr) -> bool:
    base: ast.expr = annotation
    if isinstance(base, ast.Subscript):
        base = base.value
    name = _terminal_name(base)
    return name in _SET_ANNOTATIONS


def _annotated_args(node: FunctionNode) -> List[ast.arg]:
    args = list(node.args.args)
    args.extend(node.args.kwonlyargs)
    args.extend(node.args.posonlyargs)
    return args


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    collected.append(os.path.join(dirpath, name))
    return sorted(set(collected))


def index_program(paths: Sequence[str]) -> ProgramModel:
    """Parse every file under ``paths`` once and declare what it defines.

    A file that fails to parse becomes a ``syntax-error`` finding in
    :attr:`ProgramModel.unparsed` rather than aborting the run.
    """
    model = ProgramModel()
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = FileSource.parse(path, handle.read())
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            model.unparsed.append(
                Finding(
                    rule_id="syntax-error",
                    severity=ERROR,
                    path=path,
                    line=int(getattr(exc, "lineno", None) or 1),
                    column=0,
                    message=f"file could not be analysed: {exc}",
                )
            )
            continue
        name = _module_name(path, _package_root(path))
        if name in model.modules:
            name = source.posix_path  # same-named loose files stay distinct
        module = ModuleInfo(
            name=name,
            path=source.posix_path,
            source=source,
            is_package=os.path.basename(path) == "__init__.py",
        )
        model.modules[name] = module
        _ModuleIndexer(model, module).visit(source.tree)
    return model


def resolve_program(model: ProgramModel) -> "_Resolver":
    """Resolve value flow, the call graph and thread roots (idempotent)."""
    if model.resolver is not None:
        return model.resolver
    resolver = _Resolver(model)
    for module in model.modules.values():
        resolver.scan_module_env(module)
    # Iterate resolution to a (practical) fixpoint: class summaries feed
    # call resolution, call-site bindings feed parameter/attribute flow,
    # which feeds the next round.  Three rounds close every chain the
    # repo exhibits (callback → attribute → call); the loop exits early
    # when the call graph stops changing.
    previous_edges = -1
    for _ in range(4):
        for info in model.classes.values():
            resolver.summarize_class(info)
        for fn in model.functions.values():
            resolver.scan_function(fn)
        model.callees = {
            fn.qualname: {
                target for site in fn.calls for target in site.targets
            }
            for fn in model.functions.values()
        }
        edge_count = sum(len(v) for v in model.callees.values())
        if edge_count == previous_edges:
            break
        previous_edges = edge_count
    for info in model.classes.values():
        resolver.summarize_guarded(info)
    model.resolver = resolver
    return resolver


__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramModel",
    "ValueSet",
    "index_program",
    "iter_held_events",
    "iter_python_files",
    "resolve_program",
]

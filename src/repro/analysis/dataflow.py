"""Intraprocedural def-use summaries for the whole-program rules.

For each function the symbol table indexes, :func:`summarize` computes a
:class:`DataflowSummary`: which names the function binds locally, which
``self`` attributes it reads, and simple local type bindings
(``x = ClassName(...)``) that the call-graph builder uses to resolve
method receivers.

The pass is deliberately flow-insensitive — a single set union over the
function body — because the call graph built on it needs
reachability-grade answers, not path-sensitive proofs.  Nested function and
lambda bodies are *excluded* from their parent's summary: each nested
scope is its own symbol-table entry, and closures are linked through
:attr:`DataflowSummary.captured` instead.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "write",
    "writelines",
    "appendleft",
    "popleft",
}

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class DataflowSummary:
    """Flow-insensitive def-use facts for one function scope."""

    #: names bound in this scope (params, assignments, nested defs, ...)
    bound: frozenset[str] = frozenset()
    #: attributes read from ``self``
    self_reads: frozenset[str] = frozenset()
    #: local name -> bare class name from ``x = ClassName(...)`` bindings
    local_types: dict[str, str] = field(default_factory=dict)
    #: names of functions/lambdas defined in this scope
    nested: frozenset[str] = frozenset()
    #: free names of nested scopes that this scope binds (closure links)
    captured: frozenset[str] = frozenset()


def _attr_root(node: ast.expr) -> str | None:
    """Root name of an attribute chain, if rooted at a Name.

    ``self._shards[k].x`` -> "self"; ``conn.send`` -> "conn"; anything
    not rooted at a plain name -> None.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


class _ScopeVisitor(ast.NodeVisitor):
    """Single-scope walker: does not descend into nested function bodies."""

    def __init__(self, root: ast.AST) -> None:
        self.root = root
        self.bound: set[str] = set()
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.mutations: set[str] = set()
        self.self_reads: set[str] = set()
        self.globals_decl: set[str] = set()
        self.local_types: dict[str, str] = {}
        self.nested: set[str] = set()
        self.nested_nodes: list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda] = []

    # -- scope boundaries ---------------------------------------------- #

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.root:
            self.generic_visit(node)
        else:
            self.bound.add(node.name)
            self.nested.add(node.name)
            self.nested_nodes.append(node)
            for decorator in node.decorator_list:
                self.visit(decorator)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is self.root:
            self.generic_visit(node)
        else:
            self.bound.add(node.name)
            self.nested.add(node.name)
            self.nested_nodes.append(node)
            for decorator in node.decorator_list:
                self.visit(decorator)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if node is self.root:
            self.generic_visit(node)
        else:
            self.nested_nodes.append(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bound.add(node.name)
        for base in node.bases:
            self.visit(base)

    # -- bindings ------------------------------------------------------ #

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_decl.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.globals_decl.update(node.names)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.bound.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.bound.add(alias.asname or alias.name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.id in self.globals_decl:
                self.writes.add(node.id)
            else:
                self.bound.add(node.id)
        else:
            self.reads.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            self.self_reads.add(node.attr)
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._mutate_target(node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._mutate_target(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl or target.id not in self.bound:
                self.writes.add(target.id)
            self.bound.add(target.id)
        else:
            self._mutate_target(target)
        self.visit(node.value)
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self.visit(target.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_local_type(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_local_type([node.target], node.value)
        self.generic_visit(node)

    def _record_local_type(
        self, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name and name[0].isupper():
                self.local_types[targets[0].id] = name

    def _mutate_target(self, node: ast.expr) -> None:
        root = _attr_root(node)
        if root is not None and root != "self":
            self.mutations.add(root)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            self._mutate_target(func.value)
        self.generic_visit(node)


def _scope_params(node: ast.AST) -> set[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return set()
    args = node.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


def free_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Free (unbound) names a function scope references, nested scopes
    included — the closure footprint of a nested scope."""
    visitor = _ScopeVisitor(node)
    visitor.visit(node)
    bound = visitor.bound | _scope_params(node)
    free = (visitor.reads | visitor.writes | visitor.mutations) - bound
    for nested in visitor.nested_nodes:
        free |= free_names(nested) - bound
    return {name for name in free if name not in _BUILTIN_NAMES}


def summarize(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> DataflowSummary:
    """Compute the def-use summary of one function scope."""
    visitor = _ScopeVisitor(node)
    visitor.visit(node)
    bound = visitor.bound | _scope_params(node)
    captured: set[str] = set()
    for nested in visitor.nested_nodes:
        captured |= free_names(nested) & bound
    return DataflowSummary(
        bound=frozenset(bound),
        self_reads=frozenset(visitor.self_reads),
        local_types=dict(visitor.local_types),
        nested=frozenset(visitor.nested),
        captured=frozenset(captured),
    )

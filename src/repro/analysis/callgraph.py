"""Best-effort whole-program call graph over a :class:`SymbolTable`.

Call sites are resolved statically, without executing imports:

* plain names — nested functions, module-level functions, classes
  (edges land on ``__init__``) and imported names;
* ``self.method(...)`` — method lookup through the project-resolvable
  base-class chain, plus *virtual* edges to every subclass override
  (a durable entry point that calls ``self.save()`` must reach the
  override that actually writes);
* ``self.attr.method(...)`` and ``local.method(...)`` — receiver types
  recovered from ``self.attr: X`` annotations, ``x = ClassName(...)``
  bindings, parameter annotations and project return annotations;
* ``alias.func(...)`` — the module's import table;
* a unique-name fallback: a method name implemented exactly once in the
  whole project resolves to that implementation.

Unresolvable sites stay in the graph with no targets — the
interprocedural rules treat them as "no edge" (under-approximate,
so whole-program findings never rest on a guessed edge).

:class:`Project` bundles the symbol table, the call graph and a cache
of dataflow summaries; it is the object every ``ProjectRule`` receives.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis import dataflow
from repro.analysis.dataflow import DataflowSummary
from repro.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    annotation_class_name,
)


@dataclass
class CallSite:
    """One call expression inside a function scope."""

    caller: str  # qualname of the enclosing function
    node: ast.Call
    name: str  # rightmost identifier of the callee expression
    targets: tuple[str, ...] = ()  # resolved callee qualnames (may be empty)

    @property
    def line(self) -> int:
        return self.node.lineno


class _SiteCollector(ast.NodeVisitor):
    """Collect the calls of one scope, skipping nested function bodies."""

    def __init__(self, root: ast.AST) -> None:
        self.root = root
        self.calls: list[ast.Call] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.root:
            self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is self.root:
            self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if node is self.root:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)


def _rightmost_name(expr: ast.expr) -> str:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _attr_chain(expr: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when not a pure name chain."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return parts[::-1]
    return None


class CallGraph:
    """Resolved call sites, indexed both ways."""

    def __init__(self) -> None:
        self.sites: dict[str, list[CallSite]] = {}
        self.callers: dict[str, set[str]] = {}

    def add(self, site: CallSite) -> None:
        """Record one call site and index its resolved targets."""
        self.sites.setdefault(site.caller, []).append(site)
        for target in site.targets:
            self.callers.setdefault(target, set()).add(site.caller)

    def callees(self, qualname: str) -> set[str]:
        """Every resolved callee qualname of ``qualname``'s call sites."""
        return {
            target
            for site in self.sites.get(qualname, [])
            for target in site.targets
        }

    @property
    def node_count(self) -> int:
        nodes = set(self.sites)
        nodes.update(self.callers)
        return len(nodes)

    @property
    def edge_count(self) -> int:
        return sum(
            len(site.targets)
            for sites in self.sites.values()
            for site in sites
        )


class Project:
    """Symbol table + call graph + dataflow cache for one analysis run."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        self.graph = CallGraph()
        self._summaries: dict[str, DataflowSummary] = {}
        self._local_types: dict[str, dict[str, str]] = {}
        for fn in list(symbols.functions.values()):
            self._build_sites(fn)

    # ------------------------------------------------------------------ #
    # Dataflow access
    # ------------------------------------------------------------------ #

    def summary(self, qualname: str) -> DataflowSummary | None:
        """Cached dataflow summary of a function, by qualname."""
        if qualname in self._summaries:
            return self._summaries[qualname]
        fn = self.symbols.functions.get(qualname)
        if fn is None:
            return None
        summary = dataflow.summarize(fn.node)
        self._summaries[qualname] = summary
        return summary

    def module_of(self, fn: FunctionInfo) -> ModuleInfo | None:
        """The :class:`ModuleInfo` a function was indexed from."""
        return self.symbols.modules.get(fn.module)

    # ------------------------------------------------------------------ #
    # Call-site construction
    # ------------------------------------------------------------------ #

    def _build_sites(self, fn: FunctionInfo) -> None:
        collector = _SiteCollector(fn.node)
        collector.visit(fn.node)
        local_types = self._infer_local_types(fn)
        for call in collector.calls:
            targets = self._resolve_call(fn, call.func, local_types)
            self.graph.add(
                CallSite(
                    caller=fn.qualname,
                    node=call,
                    name=_rightmost_name(call.func),
                    targets=tuple(target.qualname for target in targets),
                )
            )

    def _infer_local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Local name -> bare class name, from annotations and bindings."""
        cached = self._local_types.get(fn.qualname)
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotated = annotation_class_name(arg.annotation)
                if annotated is not None:
                    types[arg.arg] = annotated
        summary = self.summary(fn.qualname)
        if summary is not None:
            types.update(summary.local_types)
        # x = self.helper() where helper's return annotation names a class
        collector = _SiteCollector(fn.node)
        collector.visit(fn.node)
        for stmt in ast.walk(fn.node):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            resolved = self._resolve_call(fn, stmt.value.func, types)
            for target in resolved:
                node2 = target.node
                if isinstance(node2, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    annotated = annotation_class_name(node2.returns)
                    if annotated is not None:
                        types[stmt.targets[0].id] = annotated
                        break
        self._local_types[fn.qualname] = types
        return types

    def _class_of(self, fn: FunctionInfo) -> ClassInfo | None:
        if fn.cls is None:
            return None
        return self.symbols.classes.get(fn.cls)

    def _resolve_in_class(
        self, cls: ClassInfo, method: str, virtual: bool
    ) -> list[FunctionInfo]:
        found = self.symbols.mro_method(cls, method)
        targets = [found] if found is not None else []
        if virtual:
            targets.extend(self.symbols.overrides(cls, method))
        # Dedupe, stable order.
        seen: set[str] = set()
        out: list[FunctionInfo] = []
        for target in targets:
            if target.qualname not in seen:
                seen.add(target.qualname)
                out.append(target)
        return out

    def _expand_class_target(
        self, target: FunctionInfo | ClassInfo
    ) -> list[FunctionInfo]:
        if isinstance(target, FunctionInfo):
            return [target]
        init = self.symbols.mro_method(target, "__init__")
        return [init] if init is not None else []

    def _resolve_name(
        self, fn: FunctionInfo, name: str
    ) -> list[FunctionInfo]:
        # Nested function defined in this (or an enclosing) scope.
        scope: FunctionInfo | None = fn
        while scope is not None:
            nested = self.symbols.functions.get(f"{scope.qualname}.{name}")
            if nested is not None:
                return [nested]
            scope = (
                self.symbols.functions.get(scope.parent)
                if scope.parent is not None
                else None
            )
        module = self.module_of(fn)
        if module is None:
            return []
        if name in module.functions:
            return [module.functions[name]]
        if name in module.classes:
            return self._expand_class_target(module.classes[name])
        target = module.imports.get(name)
        if target is not None:
            resolved = self.symbols.resolve_dotted(target)
            if resolved is not None:
                return self._expand_class_target(resolved)
        return []

    def _resolve_call(
        self,
        fn: FunctionInfo,
        expr: ast.expr,
        local_types: dict[str, str],
    ) -> list[FunctionInfo]:
        if isinstance(expr, ast.Name):
            return self._resolve_name(fn, expr.id)
        chain = _attr_chain(expr)
        if chain is None or len(chain) < 2:
            return []
        module = self.module_of(fn)
        if module is None:
            return []
        root, *attrs = chain
        method = attrs[-1]
        # self.method(...) / self.attr.method(...)
        if root == "self":
            cls = self._class_of(fn)
            if cls is not None:
                if len(attrs) == 1:
                    found = self._resolve_in_class(cls, method, virtual=True)
                    if found:
                        return found
                elif len(attrs) == 2:
                    attr_cls_name = cls.attr_types.get(attrs[0])
                    if attr_cls_name is not None:
                        attr_cls = self.symbols.resolve_class(
                            module, attr_cls_name
                        )
                        if attr_cls is not None:
                            found = self._resolve_in_class(
                                attr_cls, method, virtual=True
                            )
                            if found:
                                return found
            return self._unique_method(method)
        # typed local receiver: x = ClassName(...); x.method(...) or
        # x.attr.method(...) through the receiver's attribute types.
        if root in local_types:
            receiver = self.symbols.resolve_class(module, local_types[root])
            if receiver is not None:
                if len(attrs) == 1:
                    found = self._resolve_in_class(receiver, method, virtual=True)
                    if found:
                        return found
                elif len(attrs) == 2:
                    attr_cls_name = receiver.attr_types.get(attrs[0])
                    receiver_module = self.symbols.modules.get(receiver.module)
                    if attr_cls_name is not None and receiver_module is not None:
                        attr_cls = self.symbols.resolve_class(
                            receiver_module, attr_cls_name
                        )
                        if attr_cls is not None:
                            found = self._resolve_in_class(
                                attr_cls, method, virtual=True
                            )
                            if found:
                                return found
        # imported module / imported name: alias.b.c(...)
        target = module.imports.get(root)
        if target is not None:
            dotted = ".".join([target, *attrs])
            resolved = self.symbols.resolve_dotted(dotted)
            if resolved is not None:
                return self._expand_class_target(resolved)
            # alias resolved to a class: Class.method / instance import
            base = self.symbols.resolve_dotted(target)
            if isinstance(base, ClassInfo) and len(attrs) == 1:
                found = self._resolve_in_class(base, method, virtual=False)
                if found:
                    return found
        # same-module class attribute access: Class.method(...)
        if root in module.classes and len(attrs) == 1:
            found = self._resolve_in_class(
                module.classes[root], method, virtual=False
            )
            if found:
                return found
        return self._unique_method(method)

    def _unique_method(self, method: str) -> list[FunctionInfo]:
        candidates = self.symbols.method_index.get(method, [])
        if len(candidates) == 1:
            return [candidates[0]]
        return []

    # ------------------------------------------------------------------ #
    # Reachability
    # ------------------------------------------------------------------ #

    def reachable(
        self,
        starts: Iterable[str],
        stop: frozenset[str] | set[str] = frozenset(),
    ) -> dict[str, str | None]:
        """BFS over call edges from ``starts``.

        Returns ``{reached qualname: parent qualname}`` (parents allow
        path reconstruction for diagnostics).  Functions in ``stop`` are
        reached but not expanded — how guard-aware traversals model
        "the path is protected below this point".
        """
        parents: dict[str, str | None] = {}
        queue: deque[str] = deque()
        for start in starts:
            if start not in parents:
                parents[start] = None
                queue.append(start)
        while queue:
            current = queue.popleft()
            if current in stop:
                continue
            for callee in self.graph.callees(current):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    @staticmethod
    def path_to(
        parents: dict[str, str | None], qualname: str, limit: int = 6
    ) -> list[str]:
        """Reconstruct the BFS path to ``qualname`` (entry first)."""
        path = [qualname]
        seen = {qualname}
        while True:
            parent = parents.get(path[-1])
            if parent is None or parent in seen or len(path) >= limit:
                break
            path.append(parent)
            seen.add(parent)
        return path[::-1]


def build_project(modules: list[tuple[str, str, ast.Module]]) -> Project:
    """Symbol-table + call-graph construction over parsed modules."""
    from repro.analysis.symbols import build_symbol_table

    return Project(build_symbol_table(modules))

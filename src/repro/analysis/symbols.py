"""Project symbol table: modules, functions, classes, imports.

The whole-program half of sketchlint starts here.  A
:class:`SymbolTable` indexes every parsed module of an analysis run —
module-level functions, classes and their methods (including nested
functions and lambdas), and the import alias table of each module.
The call-graph builder
(:mod:`repro.analysis.callgraph`) resolves call sites against this
table; the dataflow pass (:mod:`repro.analysis.dataflow`) summarizes
the function bodies it indexes.

Everything is stdlib :mod:`ast`; no imports are executed, so the table
is safe to build over untrusted or broken trees (modules that fail to
parse are simply absent).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath

def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a (POSIX) file path.

    Everything up to and including the last ``src`` component is
    stripped (``src/repro/store/store.py`` -> ``repro.store.store``);
    paths outside a ``src`` tree keep all their components
    (``tests/test_x.py`` -> ``tests.test_x``).  ``__init__.py`` maps to
    its package name.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    parts = [part for part in parts if part not in ("/", "")]
    return ".".join(parts) if parts else "<module>"


def decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    """Rightmost dotted names of every decorator on ``node``."""
    names = []
    for decorator in node.decorator_list:
        expr = decorator
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Attribute):
            names.append(expr.attr)
        elif isinstance(expr, ast.Name):
            names.append(expr.id)
    return tuple(names)


@dataclass
class FunctionInfo:
    """One function, method, nested function or lambda."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    cls: str | None = None  # owning class qualname for methods
    parent: str | None = None  # enclosing function qualname for nested defs
    decorators: tuple[str, ...] = ()

    @property
    def is_public(self) -> bool:
        """Public-API name: no leading underscore anywhere on the chain."""
        return not self.name.startswith("_") and self.parent is None

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    @property
    def param_names(self) -> tuple[str, ...]:
        args = self.node.args
        return tuple(
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassInfo:
    """One class definition with its direct methods and base names."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()  # rightmost dotted names of base exprs
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` annotations seen in the class body / ``__init__``
    #: (attribute name -> annotated class name, rightmost identifier).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its local name bindings."""

    path: str
    name: str
    tree: ast.Module
    source: str
    #: local alias -> dotted target ("np" -> "numpy",
    #: "atomic_write_text" -> "repro.io.atomic.atomic_write_text").
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _resolve_relative(module: str, target: str | None, level: int) -> str:
    """Resolve a ``from ..x import y`` module reference to a dotted name."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    # level 1 = current package: drop the module's own leaf name.
    base = parts[: len(parts) - level] if len(parts) >= level else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def annotation_class_name(node: ast.expr | None) -> str | None:
    """Rightmost plain class identifier in an annotation expression.

    Unwraps ``X | None``, ``Optional[X]``, string annotations and
    attribute chains; returns ``None`` for containers of several
    distinct classes or non-name annotations.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_class_name(node.left)
        right = annotation_class_name(node.right)
        if left and right and left != right:
            return None
        return left or right
    if isinstance(node, ast.Subscript):
        value = node.value
        head = value.attr if isinstance(value, ast.Attribute) else (
            value.id if isinstance(value, ast.Name) else ""
        )
        if head == "Optional":
            return annotation_class_name(node.slice)
        return None
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        if node.id == "None":
            return None
        return node.id
    if isinstance(node, ast.Constant) and node.value is None:
        return None
    return None


def _inferred_class_name(
    value: ast.expr, param_types: dict[str, str]
) -> str | None:
    """Class name implied by an ``__init__`` attribute binding value."""
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name and name[0].isupper():
            return name
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    return None


class SymbolTable:
    """Whole-program index over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: bare method name -> every method with that name (virtual fallback)
        self.method_index: dict[str, list[FunctionInfo]] = {}
        #: class bare name -> every class with that name
        self.class_index: dict[str, list[ClassInfo]] = {}
        #: class qualname -> direct subclasses' qualnames
        self.subclasses: dict[str, list[str]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_module(self, path: str, source: str, tree: ast.Module) -> ModuleInfo:
        """Index one parsed module (idempotent per path)."""
        name = module_name_for_path(path)
        info = ModuleInfo(path=path, name=name, tree=tree, source=source)
        self.modules[name] = info
        self._collect_imports(info)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, cls=None, parent=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(info, stmt)
        return info

    def link(self) -> None:
        """Resolve base-class edges after every module is indexed."""
        self.subclasses = {}
        for cls in self.classes.values():
            module = self.modules[cls.module]
            for base in cls.bases:
                resolved = self._resolve_class_name(module, base)
                if resolved is not None:
                    self.subclasses.setdefault(
                        resolved.qualname, []
                    ).append(cls.qualname)

    def _collect_imports(self, info: ModuleInfo) -> None:
        for stmt in ast.walk(info.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imports[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                base = _resolve_relative(info.name, stmt.module, stmt.level)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def _add_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
        parent: FunctionInfo | None,
    ) -> FunctionInfo:
        if parent is not None:
            qualname = f"{parent.qualname}.{node.name}"
        elif cls is not None:
            qualname = f"{cls.qualname}.{node.name}"
        else:
            qualname = f"{info.name}.{node.name}"
        fn = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=info.name,
            path=info.path,
            node=node,
            cls=cls.qualname if cls is not None else None,
            parent=parent.qualname if parent is not None else None,
            decorators=decorator_names(node),
        )
        self.functions[qualname] = fn
        if cls is not None and parent is None:
            cls.methods[node.name] = fn
            self.method_index.setdefault(node.name, []).append(fn)
        elif parent is None:
            info.functions[node.name] = fn
        self._index_nested(info, node, cls, fn)
        return fn

    def _index_nested(
        self,
        info: ModuleInfo,
        node: ast.AST,
        cls: ClassInfo | None,
        parent: FunctionInfo,
    ) -> None:
        """Index nested defs and lambdas one scope below ``node``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, child, cls, parent)
            elif isinstance(child, ast.Lambda):
                qualname = f"{parent.qualname}.<lambda:{child.lineno}>"
                fn = FunctionInfo(
                    qualname=qualname,
                    name="<lambda>",
                    module=info.name,
                    path=info.path,
                    node=child,
                    cls=cls.qualname if cls is not None else None,
                    parent=parent.qualname,
                )
                self.functions[qualname] = fn
                self._index_nested(info, child, cls, fn)
            else:
                self._index_nested(info, child, cls, parent)

    def _add_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{info.name}.{node.name}"
        bases = []
        for base in node.bases:
            expr = base
            if isinstance(expr, ast.Subscript):  # Generic[...]
                expr = expr.value
            if isinstance(expr, ast.Attribute):
                bases.append(expr.attr)
            elif isinstance(expr, ast.Name):
                bases.append(expr.id)
        cls = ClassInfo(
            qualname=qualname,
            name=node.name,
            module=info.name,
            path=info.path,
            node=node,
            bases=tuple(bases),
        )
        self.classes[qualname] = cls
        self.class_index.setdefault(node.name, []).append(cls)
        info.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, cls, None)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                annotated = annotation_class_name(stmt.annotation)
                if annotated is not None:
                    cls.attr_types[stmt.target.id] = annotated
        # self.<attr>: X = ... annotations inside __init__ bind attribute
        # types too (the common dataclass-free idiom in this repo), as do
        # constructor bindings (self.x = ClassName(...)) and stored
        # annotated parameters (self.x = param with param: ClassName).
        init = cls.methods.get("__init__")
        if init is not None and isinstance(
            init.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            args = init.node.args
            param_types: dict[str, str] = {}
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotated = annotation_class_name(arg.annotation)
                if annotated is not None:
                    param_types[arg.arg] = annotated
            inferred: dict[str, str | None] = {}
            for stmt2 in ast.walk(init.node):
                if (
                    isinstance(stmt2, ast.AnnAssign)
                    and isinstance(stmt2.target, ast.Attribute)
                    and isinstance(stmt2.target.value, ast.Name)
                    and stmt2.target.value.id == "self"
                ):
                    annotated = annotation_class_name(stmt2.annotation)
                    if annotated is not None:
                        cls.attr_types[stmt2.target.attr] = annotated
                elif (
                    isinstance(stmt2, ast.Assign)
                    and len(stmt2.targets) == 1
                    and isinstance(stmt2.targets[0], ast.Attribute)
                    and isinstance(stmt2.targets[0].value, ast.Name)
                    and stmt2.targets[0].value.id == "self"
                ):
                    attr = stmt2.targets[0].attr
                    name = _inferred_class_name(stmt2.value, param_types)
                    if name is None:
                        continue
                    # Conflicting branch assignments: give up on the attr.
                    if attr in inferred and inferred[attr] != name:
                        inferred[attr] = None
                    else:
                        inferred[attr] = name
            for attr, name in inferred.items():
                if name is not None and attr not in cls.attr_types:
                    cls.attr_types[attr] = name

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def resolve_dotted(self, dotted: str) -> FunctionInfo | ClassInfo | None:
        """Exact lookup of a dotted name as a function or class."""
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        return None

    def _resolve_class_name(
        self, module: ModuleInfo, name: str
    ) -> ClassInfo | None:
        """Resolve a bare class name seen inside ``module``."""
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name)
        if target is not None and target in self.classes:
            return self.classes[target]
        candidates = self.class_index.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_class(self, module: ModuleInfo, name: str) -> ClassInfo | None:
        """Public wrapper for class-name resolution within a module."""
        return self._resolve_class_name(module, name)

    def mro_method(
        self, cls: ClassInfo, method: str
    ) -> FunctionInfo | None:
        """Find ``method`` on ``cls`` or its (project-resolvable) bases."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self._resolve_class_name(module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def overrides(self, cls: ClassInfo, method: str) -> list[FunctionInfo]:
        """``method`` implementations on every (transitive) subclass."""
        found: list[FunctionInfo] = []
        seen: set[str] = set()
        queue = list(self.subclasses.get(cls.qualname, []))
        while queue:
            qualname = queue.pop(0)
            if qualname in seen:
                continue
            seen.add(qualname)
            sub = self.classes.get(qualname)
            if sub is None:
                continue
            if method in sub.methods:
                found.append(sub.methods[method])
            queue.extend(self.subclasses.get(qualname, []))
        return found


def build_symbol_table(
    modules: list[tuple[str, str, ast.Module]]
) -> SymbolTable:
    """Build and link a table from ``(path, source, tree)`` triples."""
    table = SymbolTable()
    for path, source, tree in modules:
        table.add_module(path, source, tree)
    table.link()
    return table

"""The per-module sketchlint rule set (SL001–SL007, SL010).

Each rule is a small visitor encoding one invariant of the paper's
analysis or of disciplined reproduction engineering.  Rules are scoped
with ``applies_to`` (POSIX path) so library-only rules stay quiet on
benchmarks and examples.  ``docs/static-analysis.md`` documents every
rule with its paper-level rationale.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from repro.analysis.sketchlint import Rule, register

#: Parameter names treated as a stream timestamp by SL014.
TIME_PARAMS = {"t", "time", "timestamp", "tick", "when"}

#: Ingest-style method names SL014 inspects.
INGEST_VERBS = {
    "feed",
    "update",
    "offer",
    "observe",
    "ingest",
    "append",
    "push",
    "record",
    "insert",
}


def _parts(path: str) -> tuple[str, ...]:
    return PurePosixPath(path).parts


def _in_library(path: str) -> bool:
    """Library code = anything under a ``src`` tree."""
    return "src" in _parts(path)


def _is_stub_body(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Docstring-only / ``pass`` / ``...`` bodies (abstract or protocol)."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _decorator_name(node: ast.expr) -> str:
    """Rightmost dotted name of a decorator expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@register
class UnseededRandomRule(Rule):
    """SL001: module-global or unseeded RNG in library code.

    The unbiasedness of the compensated history-list read (Equation (1))
    and every seeded experiment depend on all randomness flowing through
    an explicitly seeded generator owned by the sketch.  Calls into the
    process-global ``random`` / ``numpy.random`` state, or ``Random()`` /
    ``default_rng()`` constructed without a seed, silently break
    reproducibility and cross-sketch independence assumptions.
    """

    code = "SL001"
    summary = "module-global or unseeded RNG use in library code"
    rationale = (
        "Equation (1) unbiasedness and experiment reproducibility require "
        "explicitly seeded, sketch-owned generators."
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        # The stream generators are the sanctioned seed frontier.
        return not path.endswith("streams/generators.py")

    def visit_Call(self, node: ast.Call) -> None:
        """Flag global-state and unseeded RNG constructions."""
        func = node.func
        unseeded = not node.args and not node.keywords
        if isinstance(func, ast.Name):
            if func.id in ("Random", "default_rng") and unseeded:
                self.report(node, f"{func.id}() constructed without a seed")
        elif isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name) and owner.id == "random":
                if func.attr == "Random":
                    if unseeded:
                        self.report(
                            node, "random.Random() constructed without a seed"
                        )
                elif func.attr != "SystemRandom":
                    self.report(
                        node,
                        f"call to module-global random.{func.attr}(); use a "
                        "seeded random.Random instance",
                    )
            elif (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
            ):
                if func.attr == "default_rng":
                    if unseeded:
                        self.report(
                            node, "default_rng() constructed without a seed"
                        )
                else:
                    self.report(
                        node,
                        f"call to module-global numpy.random.{func.attr}(); "
                        "use a seeded Generator from default_rng(seed)",
                    )
            elif func.attr == "default_rng" and unseeded:
                self.report(node, "default_rng() constructed without a seed")
        self.generic_visit(node)


def _floatish(node: ast.expr) -> bool:
    """Heuristic: expression very likely produces a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Div) or (
            _floatish(node.left) or _floatish(node.right)
        )
    return False


@register
class FloatEqualityRule(Rule):
    """SL002: ``==`` / ``!=`` against float-valued expressions.

    Counter reconstructions, PLA slopes and error bounds are floats;
    exact equality on them turns floating-point noise into control-flow
    divergence (e.g. a segment-boundary test that passes on one platform
    and fails on another).  Compare with a tolerance instead, or restate
    the predicate on the integer inputs.
    """

    code = "SL002"
    summary = "float equality comparison in sketch/PLA math"
    rationale = (
        "Exact float equality makes segment and estimate logic "
        "platform-dependent; use tolerances or integer predicates."
    )

    def visit_Compare(self, node: ast.Compare) -> None:
        """Flag ``==`` / ``!=`` with a float-looking operand."""
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _floatish(left) or _floatish(right)
            ):
                self.report(
                    node,
                    "float == / != comparison; use an explicit tolerance",
                )
                break
        self.generic_visit(node)


@register
class MutableDefaultRule(Rule):
    """SL003: mutable default argument values.

    A mutable default is evaluated once and shared across calls — for
    sketch constructors that means shared counter arrays or history
    lists across supposedly independent instances, corrupting estimates
    silently.
    """

    code = "SL003"
    summary = "mutable default argument"
    rationale = (
        "Shared-by-default state across sketch instances silently "
        "correlates estimators that the analysis assumes independent."
    )

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (
                    ast.List,
                    ast.Dict,
                    ast.Set,
                    ast.ListComp,
                    ast.DictComp,
                    ast.SetComp,
                ),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            )
            if mutable:
                self.report(
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and create inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check one function definition."""
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Check one async function definition."""
        self._check(node)
        self.generic_visit(node)


@register
class BroadExceptRule(Rule):
    """SL004: bare or over-broad exception handlers.

    Swallowing ``Exception`` hides the very invariant violations
    (non-monotone timestamps, malformed archives) this layer exists to
    surface.  Handlers that re-raise unconditionally are allowed.
    """

    code = "SL004"
    summary = "bare or over-broad except clause"
    rationale = (
        "Catch-alls mask invariant violations; catch the narrowest "
        "exception type or re-raise."
    )

    _BROAD = {"Exception", "BaseException"}

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        """Flag bare/broad handlers that do not re-raise."""
        broad: str | None = None
        if node.type is None:
            broad = "bare except:"
        else:
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for type_node in types:
                if isinstance(type_node, ast.Name) and type_node.id in self._BROAD:
                    broad = f"except {type_node.id}:"
                    break
        if broad is not None:
            reraises = any(
                isinstance(inner, ast.Raise) and inner.exc is None
                for inner in ast.walk(node)
            )
            if not reraises:
                self.report(node, f"{broad} without re-raise")
        self.generic_visit(node)


@register
class AssertInLibraryRule(Rule):
    """SL005: ``assert`` used for validation in library code.

    ``python -O`` strips asserts, so any input or state validation done
    with them disappears in optimized deployments — exactly where a
    silent invariant violation is most expensive.  Raise ``ValueError``
    / ``RuntimeError`` (or a contract from
    :mod:`repro.analysis.contracts`) instead; asserts remain fine in
    tests and benchmarks.
    """

    code = "SL005"
    summary = "assert used for validation in library code"
    rationale = (
        "Asserts vanish under python -O, turning enforced invariants "
        "into silent corruption."
    )

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _in_library(path)

    def visit_Assert(self, node: ast.Assert) -> None:
        """Flag the assert statement."""
        self.report(
            node,
            "assert is stripped under python -O; raise an explicit error",
        )
        self.generic_visit(node)


@register
class MissingFutureAnnotationsRule(Rule):
    """SL006: module lacks ``from __future__ import annotations``.

    The repo supports Python 3.10 while using PEP 604 unions in
    annotations; the future import keeps all annotations lazy and
    uniform so the typed islands can grow without version-dependent
    surprises (and it is required for the contract decorators to stay
    cheap at import time).
    """

    code = "SL006"
    summary = "missing `from __future__ import annotations`"
    rationale = (
        "Lazy annotations keep 3.10 compatibility with modern syntax "
        "and make module import cost independent of typing detail."
    )

    def check_module(self, tree: ast.Module, source: str) -> None:
        if not tree.body:
            return
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.ImportFrom)
                and stmt.module == "__future__"
                and any(alias.name == "annotations" for alias in stmt.names)
            ):
                return
        self.report(
            tree.body[0],
            "module should start with `from __future__ import annotations`",
        )


@register
class UntypedPublicApiRule(Rule):
    """SL007: public API functions missing type annotations.

    Applies to the ``core/``, ``sketch/`` and ``persistence/`` packages —
    the layers other code composes against and the target of the strict
    mypy islands.  Every public function parameter (except
    ``self``/``cls``) and return type must be annotated (``__init__`` is
    exempt from the return annotation).
    """

    code = "SL007"
    summary = "public API function lacking type annotations"
    rationale = (
        "The strict-typing islands (pla/, persistence/, and the core "
        "query surface) only hold if public signatures stay annotated."
    )

    _SCOPES = {"core", "sketch", "persistence"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return bool(cls._SCOPES & set(_parts(path)))

    def check_module(self, tree: ast.Module, source: str) -> None:
        self._scan(tree.body)

    def _scan(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                if not stmt.name.startswith("_"):
                    self._scan(stmt.body)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check(stmt)

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        name = node.name
        if name.startswith("_") and name != "__init__":
            return
        args = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        if args and args[0].arg in ("self", "cls"):
            args = args[1:]
        for arg in args:
            if arg.annotation is None:
                self.report(
                    node,
                    f"parameter '{arg.arg}' of public {name}() lacks a "
                    "type annotation",
                )
        for vararg in (node.args.vararg, node.args.kwarg):
            if vararg is not None and vararg.annotation is None:
                self.report(
                    node,
                    f"parameter '{vararg.arg}' of public {name}() lacks a "
                    "type annotation",
                )
        if node.returns is None and name != "__init__":
            self.report(
                node, f"public {name}() lacks a return type annotation"
            )


@register
class ScalarHotLoopRule(Rule):
    """SL010: per-record scalar loop on an ingest hot path.

    The columnar batch pipeline gives every hot-path primitive a
    vectorized counterpart — ``buckets_many``/``signs_many`` for the
    hash families, ``update_many`` for the ephemeral sketches,
    ``ingest_batch``/``feed_many`` for the persistent layers — all
    bit-identical to their scalar forms.  Inside ``core/`` and
    ``sketch/``, a ``for`` loop that walks stream columns
    (``zip(times, items, counts)``-style) or calls ``.buckets()`` /
    ``.signs()`` per record is therefore either dead weight (throughput
    measured in Python interpreter overhead) or a scalar *reference*
    implementation — the latter opts out with a per-line suppression.
    """

    code = "SL010"
    summary = "per-record scalar loop on a hot path with a *_many counterpart"
    rationale = (
        "Hot-path primitives have bit-identical vectorized counterparts; "
        "per-record Python loops in core/ and sketch/ forfeit the "
        "columnar pipeline's throughput (suppress scalar references)."
    )

    _SCOPES = {"core", "sketch"}
    _COLUMN_NAMES = {"times", "items", "counts"}
    _SCALAR_HASH = {"buckets": "buckets_many", "signs": "signs_many"}

    @classmethod
    def applies_to(cls, path: str) -> bool:
        return _in_library(path) and bool(cls._SCOPES & set(_parts(path)))

    def check_module(self, tree: ast.Module, source: str) -> None:
        self._loop_depth = 0
        self.visit(tree)

    @staticmethod
    def _unwrap_enumerate(node: ast.expr) -> ast.expr:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "enumerate"
            and node.args
        ):
            return node.args[0]
        return node

    def _mentions_stream_column(self, node: ast.expr) -> bool:
        for part in ast.walk(node):
            if isinstance(part, ast.Name) and part.id in self._COLUMN_NAMES:
                return True
            if (
                isinstance(part, ast.Attribute)
                and part.attr in self._COLUMN_NAMES
            ):
                return True
        return False

    def visit_For(self, node: ast.For) -> None:
        """Flag per-record walks over materialized stream columns."""
        iterated = self._unwrap_enumerate(node.iter)
        if (
            isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Name)
            and iterated.func.id == "zip"
            and any(
                self._mentions_stream_column(arg) for arg in iterated.args
            )
        ):
            self.report(
                node,
                "per-record zip loop over stream columns; use the "
                "columnar ingest_batch/update_many path (suppress for "
                "scalar reference implementations)",
            )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        """Track loop nesting for the per-record hash-call check."""
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        """Flag scalar hash evaluation inside a loop."""
        func = node.func
        if (
            self._loop_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr in self._SCALAR_HASH
        ):
            many = self._SCALAR_HASH[func.attr]
            self.report(
                node,
                f".{func.attr}() evaluated per record inside a loop; "
                f"hoist the batch through the vectorized .{many}()",
            )
        self.generic_visit(node)

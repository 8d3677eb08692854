"""Interprocedural sketchlint rules (SL012, SL014, SL016, SL018).

These rules run on a :class:`~repro.analysis.callgraph.Project` — symbol
table, call graph and dataflow summaries — so they see through the
helper wrappers that defeat the per-module rules:

* **SL012** durability escape: a non-atomic write (``write_text`` /
  ``write_bytes`` / raw write-mode ``open``) in, or reachable from, any
  ``store/`` / ``io/`` / ``runtime/`` code, wherever the write itself
  lives.
* **SL014** contract-coverage gap: an ingest-verb time-parameter
  function reachable from public API with no monotonicity guard
  anywhere on the call path.
* **SL016** swallowed durability error: an ``except OSError`` /
  ``except Exception`` handler on a durability-reachable path that
  neither re-raises, nor routes the failure into a health transition
  (degrade / quarantine / fail), nor stores the exception for a later
  raise — the I/O failure silently disappears and the runtime keeps
  acknowledging writes it may not be able to replay.
* **SL018** buffer-tier bypass: a call that feeds a sketch's
  below-buffer apply layer (``_ingest`` / ``_ingest_batch`` /
  ``_apply_batch``) from outside the dispatch module that owns the
  update buffer — staged records would be reordered around it — and,
  dually, a public sketch query/freeze method whose resolved call tree
  reads per-counter history (``value_at``) with no
  buffer-flushing verb anywhere on the path, which would serve answers
  that lag the absorbed stream.

All four under-approximate: an unresolvable call contributes no edge,
so every finding rests on an actual resolved path, which is quoted in
the message (``entry -> wrapper -> sink``).
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import Project
from repro.analysis.rules import (
    INGEST_VERBS,
    TIME_PARAMS,
    _decorator_name,
    _is_stub_body,
    _parts,
)
from repro.analysis.sketchlint import ProjectRule, register_project
from repro.analysis.symbols import FunctionInfo

#: Packages whose call trees constitute the durability layer.
_DURABILITY_SCOPES = {"store", "io", "runtime"}

#: Modules that implement the sanctioned atomic-write protocol; their
#: raw file handles are the mechanism, not an escape.
_SANCTIONED_WRITERS = {"repro.io.atomic"}

def _in_durability_scope(path: str) -> bool:
    parts = set(_parts(path))
    return "src" in parts and bool(_DURABILITY_SCOPES & parts)


def _arrow(path: list[str]) -> str:
    """Render a call path for a finding message."""
    return " -> ".join(path)


def _open_write_mode(call: ast.Call) -> str | None:
    """The write-ish mode string of an ``open()`` call, if any."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    if name != "open":
        return None
    mode_node: ast.expr | None = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not (isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str)):
        return None
    mode = mode_node.value
    if any(flag in mode for flag in ("w", "a", "x", "+")):
        return mode
    return None


def _scope_calls(root: ast.AST) -> list[ast.Call]:
    """Call expressions lexically inside ``root``'s own scope."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # nested scopes are their own symbol-table entries
            if isinstance(child, ast.Call):
                calls.append(child)
            stack.append(child)
    return calls


def _calls_in_scope(fn: FunctionInfo) -> list[ast.Call]:
    """Call expressions lexically inside ``fn``'s own scope."""
    return _scope_calls(fn.node)


def _nonatomic_write(call: ast.Call) -> str | None:
    """How ``call`` writes a final path non-atomically, if it does."""
    mode = _open_write_mode(call)
    if mode is not None:
        return f'raw open(..., "{mode}")'
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in (
        "write_text",
        "write_bytes",
    ):
        return f".{func.attr}()"
    return None


@register_project
class DurabilityEscapeRule(ProjectRule):
    """SL012: non-atomic write in or reachable from the durability layer.

    A syntactic check of ``store/`` / ``io/`` / ``runtime/`` alone is
    defeated by moving the write into a helper module.  This rule walks
    the call graph from every function in those packages and flags any
    reachable non-atomic write — raw write-mode ``open()``,
    ``write_text`` or ``write_bytes``, wherever it lives — quoting the
    call path that reaches it.  Module-level statements of those
    packages are checked directly.  :mod:`repro.io.atomic` is the
    sanctioned implementation and is exempt.
    """

    code = "SL012"
    summary = "non-atomic write reachable from the durability layer"
    rationale = (
        "Crash-atomicity is a whole-call-tree property: a helper that "
        "writes a final path non-atomically tears checkpoints no matter "
        "which module it lives in.  All durable writes must funnel "
        "through repro.io.atomic (tmp + fsync + rename)."
    )

    def check_project(self, project: Project) -> None:
        for module in project.symbols.modules.values():
            if module.name in _SANCTIONED_WRITERS or not _in_durability_scope(
                module.path
            ):
                continue
            for call in _scope_calls(module.tree):
                finding_kind = _nonatomic_write(call)
                if finding_kind is not None:
                    self.report(
                        module.path,
                        call,
                        f"{finding_kind} at module level of {module.name} "
                        "writes non-atomically; write via repro.io.atomic "
                        "(tmp + fsync + rename)",
                    )
        entries = [
            fn.qualname
            for fn in project.symbols.functions.values()
            if _in_durability_scope(fn.path)
        ]
        if not entries:
            return
        parents = project.reachable(entries)
        reported: set[tuple[str, int]] = set()
        for qualname in parents:
            fn = project.symbols.functions.get(qualname)
            if fn is None or fn.module in _SANCTIONED_WRITERS:
                continue
            for call in _calls_in_scope(fn):
                finding_kind = _nonatomic_write(call)
                if finding_kind is None:
                    continue
                key = (fn.path, call.lineno)
                if key in reported:
                    continue
                reported.add(key)
                route = _arrow(Project.path_to(parents, qualname))
                self.report(
                    fn.path,
                    call,
                    f"{finding_kind} in {fn.qualname} is reachable from "
                    f"the durability layer ({route}); write via "
                    "repro.io.atomic (tmp + fsync + rename)",
                )


def _has_inline_guard(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.If) and any(
            isinstance(part, ast.Compare) for part in ast.walk(inner.test)
        ):
            if any(isinstance(part, ast.Raise) for part in ast.walk(inner)):
                return True
    return False


def _is_protected(fn: FunctionInfo) -> bool:
    """Monotonicity guard visible on this function itself."""
    node = fn.node
    if isinstance(node, ast.Lambda):
        return False
    for decorator in node.decorator_list:
        if _decorator_name(decorator) in ("monotone_timestamps", "abstractmethod"):
            return True
    return _has_inline_guard(node)


def _is_ingest_target(fn: FunctionInfo) -> bool:
    node = fn.node
    if isinstance(node, ast.Lambda) or fn.parent is not None:
        return False
    if fn.name not in INGEST_VERBS or _is_stub_body(node):
        return False
    args = node.args
    names = {
        arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    return bool(names & TIME_PARAMS)


def _is_public_entry(project: Project, fn: FunctionInfo) -> bool:
    """Part of the public API surface: importable without underscores."""
    if fn.parent is not None or fn.name.startswith("_"):
        return False
    if fn.cls is not None:
        cls = project.symbols.classes.get(fn.cls)
        if cls is None or cls.name.startswith("_"):
            return False
    return True


@register_project
class ContractCoverageRule(ProjectRule):
    """SL014: monotone-timestamp contract gap along a public call path.

    A guard demanded *in* every ingest-verb function would both
    over-report (a public façade that delegates to a guarded tracker
    is safe) and under-report (a private worker method is unguarded,
    and only the public wrapper that exposes it makes that matter).
    This rule checks the property the repo actually needs: every path from
    the public API to a timestamp-consuming ingest function passes a
    monotonicity guard.  A target passes if it carries a guard itself,
    if it delegates to a guarded ingest function, or if every public
    route to it goes through a guarded function.
    """

    code = "SL014"
    summary = "timestamp ingest path from public API lacks monotonicity guard"
    rationale = (
        "PLA feasibility and predecessor reads assume strictly "
        "increasing time; the guard must sit somewhere on every public "
        "call path, not necessarily in every function."
    )

    def check_project(self, project: Project) -> None:
        functions = project.symbols.functions
        protected = {
            qualname for qualname, fn in functions.items() if _is_protected(fn)
        }
        entries = [
            qualname
            for qualname, fn in functions.items()
            if _is_public_entry(project, fn) and qualname not in protected
        ]
        # Everything on an unguarded path from the public surface.
        exposed = project.reachable(entries, stop=frozenset(protected))
        for qualname, fn in functions.items():
            if not _is_ingest_target(fn) or qualname in protected:
                continue
            if qualname not in exposed:
                continue  # only reachable through guarded wrappers
            if self._delegates_to_guard(project, qualname, protected):
                continue
            route = _arrow(Project.path_to(exposed, qualname))
            self.report(
                fn.path,
                fn.node,
                f"{fn.name}() consumes a timestamp and is reachable from "
                f"the public API without a monotonicity guard ({route}); "
                "raise behind a comparison or use "
                "@contracts.monotone_timestamps on the path",
            )

    @staticmethod
    def _delegates_to_guard(
        project: Project, qualname: str, protected: set[str]
    ) -> bool:
        """The target hands its timestamps to a guarded ingest function."""
        reached = project.reachable([qualname])
        for callee in reached:
            if callee == qualname or callee not in protected:
                continue
            fn = project.symbols.functions.get(callee)
            if fn is not None and _is_ingest_target(fn):
                return True
        return False


#: Exception names whose handlers can hide durability failures.
_SWALLOWABLE = {"OSError", "IOError", "Exception", "BaseException"}

#: Call-name substrings that count as routing a failure into the
#: supervision machinery rather than swallowing it: health transitions,
#: quarantine/dead-letter moves, verdict recording and typed rejection.
_FAILURE_ROUTES = (
    "quarantine",
    "degrade",
    "fail",
    "transition",
    "verdict",
    "reject",
    "heal",
)


def _caught_durability_type(handler: ast.ExceptHandler) -> str | None:
    """The swallowable exception name the handler catches, if any."""
    if handler.type is None:
        return "bare except"
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for type_node in types:
        if isinstance(type_node, ast.Name) and type_node.id in _SWALLOWABLE:
            return type_node.id
    return None


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _handler_swallows(
    handler: ast.ExceptHandler, fn_node: ast.AST
) -> bool:
    """Whether the handler hides the failure rather than handling it.

    A handler *handles* a durability error when it raises (anything —
    re-raise, typed ``DegradedError``, wrapped cause), when it calls
    into the supervision machinery (a call whose name mentions
    quarantine / degrade / fail / transition / verdict / reject /
    heal), or when it stores the bound exception for a later raise
    (the ``last = exc`` retry-loop idiom).  Anything else swallows.
    """
    for inner in ast.walk(handler):
        if isinstance(inner, ast.Raise):
            return False
        if isinstance(inner, ast.Call) and any(
            route in _call_name(inner).lower() for route in _FAILURE_ROUTES
        ):
            return False
    bound = handler.name
    if bound is not None:
        for inner in ast.walk(handler):
            targets: list[ast.expr] = []
            if isinstance(inner, ast.Assign):
                targets = inner.targets
            elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                targets = [inner.target]
            if not targets:
                continue
            uses_bound = any(
                isinstance(part, ast.Name) and part.id == bound
                for value in ([inner.value] if inner.value else [])
                for part in ast.walk(value)
            )
            if not uses_bound:
                continue
            # The exception escapes the handler into a named slot; if
            # any raise in the enclosing function mentions that slot,
            # the failure still surfaces (bounded-retry idiom).
            names = {
                target.id
                for target in targets
                if isinstance(target, ast.Name)
            }
            for part in ast.walk(fn_node):
                if isinstance(part, ast.Raise) and any(
                    isinstance(sub, ast.Name) and sub.id in names
                    for node in filter(None, (part.exc, part.cause))
                    for sub in ast.walk(node)
                ):
                    return False
    return True


@register_project
class SwallowedDurabilityErrorRule(ProjectRule):
    """SL016: durability-reachable handler swallows an I/O failure.

    SL004 flags broad handlers syntactically, everywhere, and says
    nothing about ``except OSError`` — which is *narrow* in general
    code but load-bearing on the durability paths: an ``OSError``
    swallowed between ``wal.append_many`` and the acknowledgement means
    the caller believes a record is durable that was never written.  This
    rule walks the call graph from every ``store/`` / ``io/`` /
    ``runtime/`` function and flags any reachable handler that catches
    ``OSError`` / ``Exception`` / bare and neither re-raises, nor
    routes the failure into the health machinery (degrade, quarantine,
    fail, reject, verdict, transition), nor stores it for a later
    raise.  :mod:`repro.io.atomic` is exempt (its best-effort cleanup
    handlers run *after* the durable rename).
    """

    code = "SL016"
    summary = "durability-reachable except swallows an I/O failure"
    rationale = (
        "A swallowed OSError on the WAL/checkpoint path silently "
        "acknowledges writes that were never made durable; failures "
        "must re-raise, degrade the runtime, or feed a bounded retry "
        "that eventually raises."
    )

    def check_project(self, project: Project) -> None:
        entries = [
            fn.qualname
            for fn in project.symbols.functions.values()
            if _in_durability_scope(fn.path)
        ]
        if not entries:
            return
        parents = project.reachable(entries)
        reported: set[tuple[str, int]] = set()
        for qualname in parents:
            fn = project.symbols.functions.get(qualname)
            if fn is None or fn.module in _SANCTIONED_WRITERS:
                continue
            for handler in self._handlers_in_scope(fn):
                caught = _caught_durability_type(handler)
                if caught is None or not _handler_swallows(handler, fn.node):
                    continue
                key = (fn.path, handler.lineno)
                if key in reported:
                    continue
                reported.add(key)
                route = _arrow(Project.path_to(parents, qualname))
                self.report(
                    fn.path,
                    handler,
                    f"{caught} swallowed in {fn.qualname} on a "
                    f"durability-reachable path ({route}); re-raise, "
                    "degrade the runtime, or store the failure for a "
                    "bounded-retry raise",
                )

    @staticmethod
    def _handlers_in_scope(fn: FunctionInfo) -> list[ast.ExceptHandler]:
        """Except handlers lexically inside ``fn``'s own scope."""
        handlers: list[ast.ExceptHandler] = []
        stack: list[ast.AST] = [fn.node]
        while stack:
            node = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ) and child is not fn.node:
                    continue
                if isinstance(child, ast.ExceptHandler):
                    handlers.append(child)
                stack.append(child)
        return handlers


#: Below-buffer apply verbs: the dispatch layer the update buffer
#: stages in front of.  Calling one directly slips a record stream
#: underneath whatever the buffer still holds.
_BUFFER_BYPASS_VERBS = {
    "_ingest",
    "_ingest_batch",
    "_apply_batch",
}

#: The module that owns the buffer tier: absorption, flush and the
#: below-buffer dispatch all live here, so its internal calls are the
#: sanctioned mechanism rather than a bypass.
_BUFFER_DISPATCH_MODULES = {"repro.core.base"}

#: Call names whose execution flushes the buffer tier before state is
#: read: the flush itself, the store-wide flush, and finalize, which
#: calls into it.
_FLUSH_VERBS = {"flush_buffer", "flush_buffers", "finalize"}

#: Call names that read per-counter history state.
_TRACKER_READS = {"value_at"}

#: Root class of the buffered sketch hierarchy.
_SKETCH_ROOTS = {"PersistentSketch"}


def _sketch_classes(project: Project) -> set[str]:
    """Qualnames of every class in the ``PersistentSketch`` hierarchy."""
    symbols = project.symbols
    roots = [
        cls.qualname
        for cls in symbols.classes.values()
        if cls.name in _SKETCH_ROOTS
    ]
    members = set(roots)
    stack = list(roots)
    while stack:
        qualname = stack.pop()
        for sub in symbols.subclasses.get(qualname, []):
            if sub not in members:
                members.add(sub)
                stack.append(sub)
    return members


@register_project
class BufferBypassRule(ProjectRule):
    """SL018: the two-stage update buffer is skipped or left unflushed.

    The buffer tier (:mod:`repro.core.buffer`) is correct only while
    two whole-program properties hold, and both are invisible to
    per-module rules:

    * every update enters through the absorbing entry points
      (``update`` / ``ingest_batch``), never through the below-buffer
      apply verbs — a direct ``_ingest_batch`` call lands its records
      *underneath* whatever the buffer still stages, reordering the
      stream the flush later replays;
    * every public query/freeze path that reads per-counter history
      passes a flushing verb first — otherwise buffered-but-unflushed
      updates are silently missing from the answer, breaking the
      exact-mode bit-equality contract.

    The first check flags any call to a below-buffer verb outside the
    owning dispatch module (``repro.core.base``).  The second walks the
    resolved call tree of every public method of every
    ``PersistentSketch`` subclass and flags trees that contain a
    history read (``value_at``) but no flush verb;
    an unresolvable delegation contributes neither, so every finding
    rests on an actually-visible unflushed read, quoted as a call path.
    """

    code = "SL018"
    summary = "update-buffer tier bypassed or read without a flush"
    rationale = (
        "Exact-mode buffering is bit-identical only when every update "
        "is absorbed through the buffer and every history read is "
        "preceded by a flush; a bypassed feed reorders the stream and "
        "an unflushed read serves answers that lag it."
    )

    def check_project(self, project: Project) -> None:
        self._check_bypass_feeds(project)
        self._check_unflushed_reads(project)

    def _check_bypass_feeds(self, project: Project) -> None:
        for fn in list(project.symbols.functions.values()):
            if fn.module in _BUFFER_DISPATCH_MODULES:
                continue
            for call in _calls_in_scope(fn):
                name = _call_name(call)
                if name not in _BUFFER_BYPASS_VERBS:
                    continue
                self.report(
                    fn.path,
                    call,
                    f"{fn.qualname} calls the below-buffer apply verb "
                    f"{name}() directly, bypassing the update-buffer "
                    "tier; feed through update()/ingest_batch() so "
                    "staged records cannot be reordered around it",
                )

    def _check_unflushed_reads(self, project: Project) -> None:
        sketch_classes = _sketch_classes(project)
        if not sketch_classes:
            return
        for qualname, fn in project.symbols.functions.items():
            if (
                fn.cls not in sketch_classes
                or fn.name.startswith("_")
                or fn.parent is not None
                or isinstance(fn.node, ast.Lambda)
                or _is_stub_body(fn.node)
            ):
                continue
            reached = project.reachable([qualname])
            flushed = any(
                site.name in _FLUSH_VERBS
                for node in reached
                for site in project.graph.sites.get(node, [])
            )
            if flushed:
                continue
            culprit = self._history_reader(project, reached)
            if culprit is None:
                continue
            route = _arrow(Project.path_to(reached, culprit))
            self.report(
                fn.path,
                fn.node,
                f"{fn.qualname}() reads per-counter history in {culprit} "
                f"({route}) with no buffer flush on the path; call "
                "flush_buffer() before reading, or the "
                "answer lags buffered updates",
            )

    @staticmethod
    def _history_reader(
        project: Project, reached: dict[str, str | None]
    ) -> str | None:
        for qualname in reached:
            for site in project.graph.sites.get(qualname, []):
                if site.name in _TRACKER_READS:
                    return qualname
        return None

"""Interprocedural sketchlint rules (SL012–SL018).

These rules run on a :class:`~repro.analysis.callgraph.Project` — symbol
table, call graph and dataflow summaries — so they see through the
helper wrappers that defeat the per-module rules:

* **SL012** durability escape: a non-atomic write (``write_text`` /
  ``write_bytes`` / raw write-mode ``open``) in, or reachable from, any
  ``store/`` / ``io/`` / ``runtime/`` code, wherever the write itself
  lives.
* **SL013** fork-shared mutable state: a callable shipped to
  ``WorkerPool`` / ``Process`` / a ``pool.map``-style submit that reads
  or mutates state which exists on both sides of the fork — module
  globals, closures, bound instance attributes.
* **SL014** contract-coverage gap: an ingest-verb time-parameter
  function reachable from public API with no monotonicity guard
  anywhere on the call path.
* **SL015** unpropagated RNG state: forked work while an RNG is in play
  and no determinism plan (pre-draw, spawn, state transplant) is
  visible — either the dispatching function itself touches a
  generator, or the shipped callables' *callee chain* consumes one.
* **SL016** swallowed durability error: an ``except OSError`` /
  ``except Exception`` handler on a durability-reachable path that
  neither re-raises, nor routes the failure into a health transition
  (degrade / quarantine / fail), nor stores the exception for a later
  raise — the I/O failure silently disappears and the runtime keeps
  acknowledging writes it may not be able to replay.
* **SL017** unpaired memory mapping: a ``SharedMemory`` / ``mmap``
  construction (or a project subclass of either) whose handle is not
  guaranteed a ``close()`` / ``unlink()`` / ``release()`` on every
  path — ``finally`` blocks and ``with`` statements satisfy it, a
  straight-line close that an exception can skip does not, and
  handles stored on ``self`` or handed to a resolvable helper are
  checked for cleanup where they end up.
* **SL018** buffer-tier bypass: a call that feeds a sketch's
  below-buffer apply layer (``_ingest`` / ``_ingest_batch`` /
  ``_apply_batch``) from outside the dispatch module that owns the
  update buffer — staged records would be reordered around it — and,
  dually, a public sketch query/freeze method whose resolved call tree
  reads per-counter history (``value_at`` / ``export_arrays``) with no
  buffer-flushing verb anywhere on the path, which would serve answers
  that lag the absorbed stream.

All seven under-approximate: an unresolvable call contributes no edge,
so every finding rests on an actual resolved path, which is quoted in
the message (``entry -> wrapper -> sink``).
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import Project
from repro.analysis.dataflow import DataflowSummary
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

#: Constructors / launchers that move work into a forked child.
_FORK_LAUNCHERS = {"Process", "WorkerPool", "ProcessPoolExecutor", "Pool", "fork"}
#: Methods that submit payloads to an already-forked pool; only counted
#: when called on a pool-like receiver (``pool.feed`` yes,
#: ``tracker.feed`` no).
_POOL_SUBMITS = {"feed", "submit", "map", "apply_async"}
#: Calls that constitute an explicit per-worker determinism plan.
_MITIGATIONS = {
    "bulk_uniforms",
    "spawn",
    "jumped",
    "SeedSequence",
    "seed",
    "getstate",
    "setstate",
    "bit_generator",
}


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


def _is_fork_dispatch(call: ast.Call) -> bool:
    """A fork launcher, or a submit on a pool-like receiver."""
    func = call.func
    name = _call_name(call)
    return name in _FORK_LAUNCHERS or (
        name in _POOL_SUBMITS
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and "pool" in func.value.id.lower()
    )


def _mentions_rng(node: ast.AST) -> bool:
    """Whether any name or attribute under ``node`` looks like an RNG."""
    for part in ast.walk(node):
        name = None
        if isinstance(part, ast.Name):
            name = part.id
        elif isinstance(part, ast.Attribute):
            name = part.attr
        if name is not None and "rng" in name.lower():
            return True
    return False


def _lexical_rng_dispatch(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ast.Call | None:
    """First fork dispatch of a function (nested scopes included) that
    itself touches an RNG with no determinism plan in sight."""
    dispatch: ast.Call | None = None
    for part in ast.walk(fn):
        if not isinstance(part, ast.Call):
            continue
        if _call_name(part) in _MITIGATIONS:
            return None
        if dispatch is None and _is_fork_dispatch(part):
            dispatch = part
    if dispatch is None or not _mentions_rng(fn):
        return None
    return dispatch


def _dispatch_sites(
    project: Project, fn: FunctionInfo
) -> list[tuple[ast.Call, list[FunctionInfo]]]:
    """Fork-dispatch calls in ``fn`` with the callables they ship."""
    sites: list[tuple[ast.Call, list[FunctionInfo]]] = []
    for call in _calls_in_scope(fn):
        if not _is_fork_dispatch(call):
            continue
        shipped: list[FunctionInfo] = []
        for arg in (*call.args, *(kw.value for kw in call.keywords)):
            shipped.extend(project.resolve_callable(fn, arg))
        sites.append((call, shipped))
    return sites


@register_project
class ForkSharedStateRule(ProjectRule):
    """SL013: mutable state shared across a fork boundary.

    A callable shipped to a fork launcher executes in a child process;
    any state that already existed at fork time — module globals, the
    dispatcher's locals captured by closure, ``self`` of a bound method
    — exists as an independent copy on each side.  Reads of mutable
    globals silently diverge once either side writes; writes never
    propagate back.  The rule resolves each shipped callable and flags
    it when it (or anything it calls) rebinds or mutates free state, or
    when the callable itself reads a module-level mutable global or
    mutates bound instance attributes.  Deliberate copy-on-write
    ownership schemes opt out with a justified per-line suppression at
    the dispatch site.
    """

    code = "SL013"
    summary = "fork-shipped callable touches pre-fork mutable state"
    rationale = (
        "After fork, parent and child hold independent copies of every "
        "pre-existing object: mutating or reading shared mutable state "
        "from a worker silently diverges from the serial reference the "
        "bit-equality contract pins."
    )

    def check_project(self, project: Project) -> None:
        for fn in list(project.symbols.functions.values()):
            for call, shipped in _dispatch_sites(project, fn):
                for worker in shipped:
                    hazard = self._hazard(project, worker)
                    if hazard is None:
                        continue
                    self.report(
                        fn.path,
                        call,
                        f"{worker.qualname} is shipped across a fork and "
                        f"{hazard}; pass immutable snapshots or create the "
                        "state inside the worker",
                    )

    def _hazard(self, project: Project, worker: FunctionInfo) -> str | None:
        direct = project.summary(worker.qualname)
        if direct is None:
            return None
        module = project.symbols.modules.get(worker.module)
        mutable_globals = module.mutable_globals() if module is not None else set()
        shared_reads = direct.free_reads & mutable_globals
        if shared_reads:
            names = ", ".join(sorted(shared_reads))
            return f"reads module-level mutable global(s) {names}"
        # A shipped constructor builds its instance *inside* the child:
        # its self-mutations initialize a post-fork object, not shared
        # state (free/global hazards below still apply to it).
        if worker.name == "__init__":
            return self._transitive_hazard(project, worker)
        if worker.is_method and direct.self_mutations:
            names = ", ".join(sorted(direct.self_mutations))
            return (
                f"mutates bound instance attribute(s) {names} of a "
                "pre-fork object"
            )
        return self._transitive_hazard(project, worker)

    @staticmethod
    def _transitive_hazard(
        project: Project, worker: FunctionInfo
    ) -> str | None:
        """The worker or anything it calls rebinds/mutates free state."""
        parents = project.reachable([worker.qualname])
        for qualname in parents:
            summary = project.summary(qualname)
            if summary is None:
                continue
            mutated = summary.free_writes | summary.free_mutations
            if mutated:
                names = ", ".join(sorted(mutated))
                via = ""
                if qualname != worker.qualname:
                    via = f" (via {_arrow(Project.path_to(parents, qualname))})"
                return f"rebinds/mutates free state {names}{via}"
        return None


def _rng_named(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return "rng" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "rng" in expr.attr.lower() or _rng_named(expr.value)
    return False


def _assigns_rng(node: ast.AST) -> bool:
    """Any assignment whose target names an RNG (state transplant)."""
    for part in ast.walk(node):
        targets: list[ast.expr] = []
        if isinstance(part, ast.Assign):
            targets = part.targets
        elif isinstance(part, (ast.AnnAssign, ast.AugAssign)):
            targets = [part.target]
        if any(_rng_named(target) for target in targets):
            return True
    return False


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


@register_project
class UnpropagatedRNGRule(ProjectRule):
    """SL015: forked work reaches RNG state with no determinism plan.

    Two cases, one finding per dispatch site:

    * *lexical*: the dispatching function (nested scopes included)
      itself touches an RNG and shows no mitigation call
      (``bulk_uniforms``, ``spawn``, ``jumped``, ``SeedSequence``,
      ``seed``, ``getstate``/``setstate``, ``bit_generator``);
    * *transitive*: the dispatcher never names an RNG, but a resolved
      fork-shipped callable reaches a function that consumes one, and
      no mitigation is visible in the dispatcher, the workers, or
      anything they reach.  Hiding the draw one call deep (the worker
      calls a helper that draws) does not defeat this.

    A dispatcher that names an RNG is judged by the lexical case alone,
    so a mitigated dispatch is never reported through its workers.
    """

    code = "SL015"
    summary = "fork-shipped call chain consumes RNG without a per-worker plan"
    rationale = (
        "Fork duplicates generator state: a worker that draws through "
        "any helper chain replays its siblings' sequence and never "
        "advances the master's generator, breaking parallel == serial "
        "bit-equality."
    )

    def check_project(self, project: Project) -> None:
        reported: set[tuple[str, int, int]] = set()
        for module in project.symbols.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                call = _lexical_rng_dispatch(node)
                if call is None:
                    continue
                key = (module.path, call.lineno, call.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                self.report(
                    module.path,
                    call,
                    "RNG state visible in a function that dispatches forked "
                    "work, with no per-worker determinism plan (pre-draw with "
                    "bulk_uniforms, spawn/seed per-worker generators, or "
                    "manage state explicitly)",
                )
        for fn in list(project.symbols.functions.values()):
            for call, shipped in _dispatch_sites(project, fn):
                if not shipped:
                    continue
                if (
                    _mentions_rng(fn.node)
                    or (fn.path, call.lineno, call.col_offset) in reported
                ):
                    continue  # judged by the lexical case above
                scope = project.reachable(
                    [fn.qualname, *(worker.qualname for worker in shipped)]
                )
                if self._mitigated(project, scope):
                    continue
                culprit = self._rng_consumer(project, shipped, scope)
                if culprit is None:
                    continue
                route = _arrow(Project.path_to(scope, culprit))
                self.report(
                    fn.path,
                    call,
                    f"forked work reaches RNG consumption in {culprit} "
                    f"({route}) with no per-worker determinism plan "
                    "(pre-draw with bulk_uniforms, spawn/seed per-worker "
                    "generators, or transplant state explicitly)",
                )

    @staticmethod
    def _mitigated(project: Project, scope: dict[str, str | None]) -> bool:
        for qualname in scope:
            for site in project.graph.sites.get(qualname, []):
                if site.name in _MITIGATIONS:
                    return True
            # A state transplant can be an assignment rather than a
            # call: ``history._rng = self._rng`` / ``rng.state = ...``
            # rewires generator identity explicitly and counts as a
            # determinism plan.
            fn = project.symbols.functions.get(qualname)
            if fn is not None and _assigns_rng(fn.node):
                return True
        return False

    @staticmethod
    def _rng_consumer(
        project: Project,
        shipped: list[FunctionInfo],
        scope: dict[str, str | None],
    ) -> str | None:
        worker_reached: set[str] = set()
        for worker in shipped:
            worker_reached.update(project.reachable([worker.qualname]))
        for qualname in scope:
            if qualname not in worker_reached:
                continue  # master-side RNG use is the lexical case
            summary: DataflowSummary | None = project.summary(qualname)
            if summary is not None and summary.touches_rng:
                return qualname
        return None


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
    swallowed between ``wal.append`` and the acknowledgement means the
    caller believes a record is durable that was never written.  This
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


#: Call names that construct an OS-backed memory mapping.  Project
#: classes deriving from one are folded in per run via their base
#: names.
_MAPPING_FACTORIES = {"SharedMemory", "mmap"}

#: Methods that detach or destroy a mapping; any one of them counts as
#: cleanup for SL017 (``release`` is the ShmSegment close+unlink verb).
_MAPPING_CLEANUP = {"close", "unlink", "release"}


def _finally_and_handler_nodes(
    scope: ast.AST,
) -> tuple[set[int], set[int]]:
    """Identity sets of every node inside a finalbody / except handler."""
    in_finally: set[int] = set()
    in_handler: set[int] = set()
    for part in ast.walk(scope):
        if not isinstance(part, ast.Try):
            continue
        for stmt in part.finalbody:
            in_finally.update(id(sub) for sub in ast.walk(stmt))
        for handler in part.handlers:
            in_handler.update(id(sub) for sub in ast.walk(handler))
    return in_finally, in_handler


def _mentions_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(part, ast.Name) and part.id == name
        for part in ast.walk(node)
    )


def _hands_off_handle(value: ast.expr, name: str) -> bool:
    """Whether returning/yielding ``value`` transfers the handle itself.

    ``return segment`` (or a tuple/list containing the bare name) hands
    ownership to the caller; ``return segment.name`` returns derived
    data and the handle still needs local cleanup.
    """
    if isinstance(value, ast.Name) and value.id == name:
        return True
    if isinstance(value, (ast.Tuple, ast.List)):
        return any(
            isinstance(elt, ast.Name) and elt.id == name
            for elt in value.elts
        )
    return False


def _self_attr(expr: ast.expr) -> str | None:
    """``self.<attr>`` -> attr; anything else -> None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


@register_project
class UnpairedMappingRule(ProjectRule):
    """SL017: mapping created without a guaranteed close/unlink.

    A ``SharedMemory`` segment or ``mmap`` leaks a file descriptor —
    and, for an owner, a ``/dev/shm`` entry — on any path that skips
    its ``close()`` / ``unlink()``.  The rule finds every construction
    of a mapping (including project subclasses of either) and demands
    cleanup on *all* paths:

    * a ``with`` statement over the handle, or cleanup inside a
      ``finally`` block, always satisfies it;
    * a straight-line ``close()`` alone does not — an exception
      between construction and close leaks the mapping — unless an
      except handler also cleans up the error path;
    * a handle stored on ``self`` is satisfied by cleanup of that
      attribute in any method of the same class (the handle-object
      idiom: ``__init__`` binds, ``close()`` releases);
    * a handle passed to another function is checked
      interprocedurally: the resolved callee's call tree must contain
      a cleanup verb (unresolvable callees contribute no claim).

    Deliberate leak-until-exit schemes opt out with a justified
    per-line suppression at the construction site.
    """

    code = "SL017"
    summary = "memory mapping lacks a guaranteed close()/unlink() path"
    rationale = (
        "A SharedMemory or mmap handle that misses cleanup on an "
        "exception path leaks fds per call and, owner-side, orphans "
        "/dev/shm entries that survive the process; lifecycle must be "
        "finally/with-guaranteed, not straight-line."
    )

    def check_project(self, project: Project) -> None:
        factories = set(_MAPPING_FACTORIES)
        for cls in project.symbols.classes.values():
            if _MAPPING_FACTORIES & set(cls.bases):
                factories.add(cls.name)
        for fn in list(project.symbols.functions.values()):
            creations = [
                call
                for call in _calls_in_scope(fn)
                if _call_name(call) in factories
            ]
            if not creations:
                continue
            parent_of: dict[int, ast.AST] = {}
            for parent in ast.walk(fn.node):
                for child in ast.iter_child_nodes(parent):
                    parent_of[id(child)] = parent
            for call in creations:
                problem = self._site_problem(project, fn, call, parent_of)
                if problem is not None:
                    self.report(
                        fn.path,
                        call,
                        f"{_call_name(call)}(...) in {fn.qualname} "
                        f"{problem}; guarantee close()/unlink() with "
                        "try/finally or a with block",
                    )

    def _site_problem(
        self,
        project: Project,
        fn: FunctionInfo,
        call: ast.Call,
        parent_of: dict[int, ast.AST],
    ) -> str | None:
        """Why this construction site leaks, or None when it is safe."""
        parent = parent_of.get(id(call))
        if isinstance(parent, ast.withitem) and parent.context_expr is call:
            return None  # context manager guarantees __exit__
        if isinstance(parent, ast.Call) and call is not parent.func:
            return self._delegation_problem(project, fn, parent)
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return None  # ownership transfers to the caller
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                return self._binding_problem(project, fn, target.id)
            attr = _self_attr(target)
            if attr is not None:
                return self._attribute_problem(project, fn, attr)
            return None  # container/subscript stores park ownership elsewhere
        if isinstance(parent, ast.Expr):
            return "is discarded immediately and never closed"
        return None  # other expression contexts: no claim

    @staticmethod
    def _delegation_problem(
        project: Project, fn: FunctionInfo, consumer: ast.Call
    ) -> str | None:
        """A freshly built mapping handed straight to another call."""
        targets = project.resolve_callable(fn, consumer.func)
        if not targets:
            return None  # unresolvable: no edge, no claim
        reachable = project.reachable(
            [target.qualname for target in targets]
        )
        for qualname in reachable:
            for site in project.graph.sites.get(qualname, []):
                if site.name in _MAPPING_CLEANUP:
                    return None
        route = _arrow([fn.qualname, targets[0].qualname])
        return (
            f"is handed to {targets[0].qualname} whose call tree never "
            f"closes or unlinks it ({route})"
        )

    def _binding_problem(
        self, project: Project, fn: FunctionInfo, name: str
    ) -> str | None:
        """A mapping bound to a local: demand all-paths cleanup."""
        scope = fn.node
        in_finally, in_handler = _finally_and_handler_nodes(scope)
        guaranteed = on_error = plain = False
        for other in _calls_in_scope(fn):
            func = other.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _MAPPING_CLEANUP
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                continue
            if id(other) in in_finally:
                guaranteed = True
            elif id(other) in in_handler:
                on_error = True
            else:
                plain = True
        if guaranteed or (on_error and plain):
            return None
        for part in ast.walk(scope):
            if isinstance(part, ast.withitem) and _mentions_name(
                part.context_expr, name
            ):
                return None  # with <handle> / with closing(<handle>)
            if isinstance(part, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(part, "value", None)
                if value is not None and _hands_off_handle(value, name):
                    return None  # the handle itself escapes to the caller
            if isinstance(part, ast.Assign) and _mentions_name(
                part.value, name
            ):
                for target in part.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        return self._attribute_problem(project, fn, attr)
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        return None  # parked in longer-lived storage
        for other in _calls_in_scope(fn):
            consumed = any(
                _mentions_name(arg, name)
                for arg in (
                    *other.args,
                    *(kw.value for kw in other.keywords),
                )
            )
            if consumed and not (
                isinstance(other.func, ast.Attribute)
                and isinstance(other.func.value, ast.Name)
                and other.func.value.id == name
            ):
                return self._delegation_problem(project, fn, other)
        if plain:
            return (
                f"closes {name!r} only on the straight-line path — an "
                "exception before the close leaks the mapping"
            )
        return f"binds {name!r} but no path ever closes or unlinks it"

    @staticmethod
    def _attribute_problem(
        project: Project, fn: FunctionInfo, attr: str
    ) -> str | None:
        """A mapping stored on ``self``: some method must clean it up."""
        if fn.cls is None:
            return None  # "self" outside a class: no instance to inspect
        for other in project.symbols.functions.values():
            if other.cls != fn.cls:
                continue
            for call in _calls_in_scope(other):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MAPPING_CLEANUP
                    and _self_attr(func.value) == attr
                ):
                    return None
        return (
            f"is stored on self.{attr} but no method of {fn.cls} ever "
            "closes or unlinks that attribute"
        )


#: Below-buffer apply verbs: the serial-or-pool dispatch layer the
#: update buffer stages in front of.  Calling one directly slips a
#: record stream underneath whatever the buffer still holds.
_BUFFER_BYPASS_VERBS = {
    "_ingest",
    "_ingest_batch",
    "_ingest_batch_via_pool",
    "_apply_batch",
}

#: The module that owns the buffer tier: absorption, flush and the
#: below-buffer dispatch all live here, so its internal calls are the
#: sanctioned mechanism rather than a bypass.
_BUFFER_DISPATCH_MODULES = {"repro.core.base"}

#: Call names whose execution flushes the buffer tier before state is
#: read: the flush itself, the sync funnel every query passes through,
#: and the drain/finalize verbs that call into it.
_FLUSH_VERBS = {
    "flush_buffer",
    "flush_buffers",
    "_ensure_synced",
    "detach_workers",
    "drain_workers",
    "finalize",
}

#: Call names that read per-counter history state.
_TRACKER_READS = {"value_at", "export_arrays"}

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
    history read (``value_at`` / ``export_arrays``) but no flush verb;
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
                "_ensure_synced()/flush_buffer() before reading, or the "
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

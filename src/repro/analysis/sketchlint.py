"""sketchlint — the repo's invariant-aware static analyzer.

Two engines share one driver:

* **Module rules** (:class:`Rule`, registered in
  :mod:`repro.analysis.rules`) — per-file AST visitors; each encodes an
  invariant the paper's correctness argument relies on (seeded RNG
  discipline, monotone timestamps into the PLA, no float equality in
  sketch math) rather than generic style.
* **Project rules** (:class:`ProjectRule`, registered in
  :mod:`repro.analysis.interproc`) — whole-program passes over a symbol
  table, call graph and dataflow summaries
  (:mod:`repro.analysis.symbols` / :mod:`~repro.analysis.callgraph` /
  :mod:`~repro.analysis.dataflow`), which see through helper wrappers
  and across modules: durability escapes, contract-coverage gaps,
  swallowed durability errors, update-buffer bypasses.

Suppression is per line::

    value = random.random()  # sketchlint: disable=SL001
    other = bad() or worse()  # sketchlint: disable=SL001,SL002
    anything = goes()  # sketchlint: disable=all

Exit codes: 0 clean, 1 findings, 2 operational errors (unreadable or
unparsable file, unknown rule selector, exceeded time budget).
``--warn-only`` reports findings but still exits 0; ``--baseline``
turns the gate into a ratchet (fail on *new* findings only).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import pickle
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import IO, Iterable, Sequence

from repro.analysis.callgraph import Project
from repro.analysis.symbols import build_symbol_table

#: Per-line suppression marker.  The comma-separated list may name rule
#: codes (``SL001``) or ``all``.
_SUPPRESS_RE = re.compile(r"#\s*sketchlint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Version tag for the on-disk parse cache (bump on AST-affecting changes).
_CACHE_FORMAT = 1


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: CODE message`` (text output)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form used by ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def baseline_key(self) -> str:
        """Ratchet identity: one counter per ``path::code`` pair."""
        return f"{self.path}::{self.code}"


class Rule(ast.NodeVisitor):
    """Base class for per-module sketchlint rules.

    Subclasses set :attr:`code` (``SLxxx``), :attr:`summary` (one line,
    shown by ``--list-rules``) and :attr:`rationale` (why the repo cares;
    surfaced in docs), override visitor methods, and are registered with
    :func:`register`.  Override :meth:`applies_to` to scope a rule to a
    subtree (paths are compared in POSIX form) and :meth:`check_module`
    for whole-module checks that do not fit the visitor pattern.
    """

    code: str = "SL000"
    summary: str = ""
    rationale: str = ""

    def __init__(self, path: str, findings: list[Finding]) -> None:
        self.path = path
        self.findings = findings

    @classmethod
    def applies_to(cls, path: str) -> bool:
        """Whether the rule runs on ``path`` (POSIX-normalized)."""
        return True

    def check_module(self, tree: ast.Module, source: str) -> None:
        """Run the rule over one parsed module (default: visit the AST)."""
        self.visit(tree)

    def report(self, node: ast.AST, message: str | None = None) -> None:
        """Record a finding at ``node`` (defaults to the rule summary)."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message if message is not None else self.summary,
            )
        )


class ProjectRule:
    """Base class for whole-program (interprocedural) rules.

    Subclasses set :attr:`code` / :attr:`summary` / :attr:`rationale`,
    implement :meth:`check_project`, and are registered with
    :func:`register_project`.  Findings are reported against the file
    that contains the offending node, wherever the analysis entered
    from — that keeps per-line suppressions working unchanged.
    """

    code: str = "SL000"
    summary: str = ""
    rationale: str = ""

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = findings

    def check_project(self, project: Project) -> None:
        """Run the rule over the whole program."""
        raise NotImplementedError

    def report(
        self, path: str, node: ast.AST, message: str | None = None
    ) -> None:
        """Record a finding at ``node`` inside ``path``."""
        self.findings.append(
            Finding(
                path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message if message is not None else self.summary,
            )
        )


#: Module-rule table: code -> rule class.  Populated by :func:`register`.
RULES: dict[str, type[Rule]] = {}

#: Project-rule table: code -> rule class (:func:`register_project`).
PROJECT_RULES: dict[str, type[ProjectRule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a module rule to :data:`RULES`."""
    if cls.code in RULES or cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to :data:`PROJECT_RULES`."""
    if cls.code in RULES or cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    PROJECT_RULES[cls.code] = cls
    return cls


def all_rules() -> dict[str, type[Rule] | type[ProjectRule]]:
    """Merged rule table (module + project), sorted by code."""
    merged: dict[str, type[Rule] | type[ProjectRule]] = {}
    merged.update(RULES)
    merged.update(PROJECT_RULES)
    return dict(sorted(merged.items()))


class TimeBudgetExceeded(RuntimeError):
    """The analysis ran past its hard wall-clock budget."""

    def __init__(self, phase: str, elapsed: float, budget: float) -> None:
        super().__init__(
            f"analysis time budget exceeded: {elapsed:.1f}s spent "
            f"(budget {budget:.1f}s) during {phase}; raise --time-budget, "
            "narrow the target paths, or enable --cache"
        )
        self.phase = phase
        self.elapsed = elapsed
        self.budget = budget


class _Budget:
    """Monotonic wall-clock budget checked at phase boundaries."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds if seconds and seconds > 0 else None
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self, phase: str) -> None:
        if self.seconds is not None and self.elapsed() > self.seconds:
            raise TimeBudgetExceeded(phase, self.elapsed(), self.seconds)


@dataclass
class AnalysisStats:
    """``--stats`` payload: sizes and wall-clock of one analysis run."""

    files: int = 0
    functions: int = 0
    classes: int = 0
    callgraph_nodes: int = 0
    callgraph_edges: int = 0
    parse_seconds: float = 0.0
    module_rule_seconds: float = 0.0
    project_rule_seconds: float = 0.0
    total_seconds: float = 0.0
    cache_hits: int = 0
    findings_by_rule: dict[str, int] = field(default_factory=dict)
    findings_by_file: dict[str, int] = field(default_factory=dict)

    def record(self, findings: list[Finding]) -> None:
        """Tally per-rule / per-file finding counts into the stats."""
        by_rule: dict[str, int] = {}
        by_file: dict[str, int] = {}
        for finding in findings:
            by_rule[finding.code] = by_rule.get(finding.code, 0) + 1
            by_file[finding.path] = by_file.get(finding.path, 0) + 1
        self.findings_by_rule = dict(sorted(by_rule.items()))
        self.findings_by_file = dict(
            sorted(by_file.items(), key=lambda kv: (-kv[1], kv[0]))
        )

    def render(self) -> str:
        """Human-readable ``--stats`` block."""
        lines = [
            "sketchlint stats:",
            f"  files analyzed      {self.files}"
            + (f" ({self.cache_hits} from cache)" if self.cache_hits else ""),
            f"  symbols             {self.functions} functions, "
            f"{self.classes} classes",
            f"  call graph          {self.callgraph_nodes} nodes, "
            f"{self.callgraph_edges} edges",
            f"  wall time           {self.total_seconds:.2f}s "
            f"(parse {self.parse_seconds:.2f}s, module rules "
            f"{self.module_rule_seconds:.2f}s, project rules "
            f"{self.project_rule_seconds:.2f}s)",
        ]
        if self.findings_by_rule:
            per_rule = ", ".join(
                f"{code}={count}"
                for code, count in self.findings_by_rule.items()
            )
            lines.append(f"  findings by rule    {per_rule}")
            top = list(self.findings_by_file.items())[:5]
            per_file = ", ".join(f"{path}={count}" for path, count in top)
            lines.append(f"  findings by file    {per_file}")
        else:
            lines.append("  findings            none")
        return "\n".join(lines)


def _suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> set of suppressed rule codes (upper-cased)."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            out[lineno] = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
    return out


def _apply_suppressions(
    findings: list[Finding], suppressed_by_path: dict[str, dict[int, set[str]]]
) -> list[Finding]:
    kept = []
    for finding in findings:
        suppressed = suppressed_by_path.get(finding.path, {})
        codes = suppressed.get(finding.line)
        if codes is not None and (finding.code in codes or "ALL" in codes):
            continue
        kept.append(finding)
    return kept


def _resolve_select(select: Iterable[str] | None) -> set[str] | None:
    if select is None:
        return None
    codes = {code.strip().upper() for code in select if code.strip()}
    unknown = codes - set(RULES) - set(PROJECT_RULES)
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return codes


def _active_module_rules(codes: set[str] | None) -> list[type[Rule]]:
    return [
        cls
        for code, cls in sorted(RULES.items())
        if codes is None or code in codes
    ]


def _active_project_rules(codes: set[str] | None) -> list[type[ProjectRule]]:
    return [
        cls
        for code, cls in sorted(PROJECT_RULES.items())
        if codes is None or code in codes
    ]


def _run_module_rules(
    tree: ast.Module,
    source: str,
    norm: str,
    rules: list[type[Rule]],
    findings: list[Finding],
) -> None:
    for cls in rules:
        if not cls.applies_to(norm):
            continue
        cls(norm, findings).check_module(tree, source)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one module given as source text.

    Runs both engines: the per-module rules, and the project rules over
    a single-module program (so interprocedural fixtures and snippets
    can be checked without touching the filesystem).  ``path``
    participates in rule scoping (e.g. SL005 only applies under
    ``src/``), so tests pass representative fake paths.  Raises
    :class:`SyntaxError` when the module does not parse.
    """
    codes = _resolve_select(select)
    norm = PurePosixPath(path).as_posix()
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    _run_module_rules(tree, source, norm, _active_module_rules(codes), findings)
    project_rules = _active_project_rules(codes)
    if project_rules:
        project = Project(build_symbol_table([(norm, source, tree)]))
        for cls in project_rules:
            cls(findings).check_project(project)
    findings = [f for f in findings if f.path == norm]
    kept = _apply_suppressions(findings, {norm: _suppressions(source)})
    return sorted(kept, key=lambda f: (f.line, f.col, f.code))


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


class _ParseCache:
    """Content-addressed cache of parsed module ASTs.

    One pickle file per cache directory, mapping path -> (sha256, tree).
    CI caches the directory between steps, so the symbol-table build of
    the second analyzer invocation skips re-parsing unchanged files.
    """

    def __init__(self, directory: str | Path) -> None:
        self.path = Path(directory) / "sketchlint-cache.pkl"
        self.entries: dict[str, tuple[str, ast.Module]] = {}
        self.hits = 0
        self._dirty = False
        try:
            with open(self.path, "rb") as handle:
                payload = pickle.load(handle)
            if payload.get("format") == _CACHE_FORMAT:
                self.entries = payload["entries"]
        except (OSError, pickle.PickleError, EOFError, KeyError):
            self.entries = {}

    def parse(self, path: str, source: str) -> ast.Module:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        cached = self.entries.get(path)
        if cached is not None and cached[0] == digest:
            self.hits += 1
            return cached[1]
        tree = ast.parse(source, filename=path)
        self.entries[path] = (digest, tree)
        self._dirty = True
        return tree

    def save(self) -> None:
        if not self._dirty:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as handle:
                pickle.dump(
                    {"format": _CACHE_FORMAT, "entries": self.entries},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
        except OSError:
            pass  # caching is best-effort; analysis results are unaffected


def analyze_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    time_budget: float | None = None,
    cache_dir: str | Path | None = None,
) -> tuple[list[Finding], list[str], AnalysisStats]:
    """Full two-engine analysis of files and directories.

    Returns ``(findings, errors, stats)`` where ``errors`` are
    operational problems (missing file, syntax error) that map to exit
    code 2.  Raises :class:`TimeBudgetExceeded` when ``time_budget``
    seconds of wall clock are spent before the run completes.
    """
    codes = _resolve_select(select)
    budget = _Budget(time_budget)
    stats = AnalysisStats()
    cache = _ParseCache(cache_dir) if cache_dir is not None else None

    findings: list[Finding] = []
    errors: list[str] = []
    modules: list[tuple[str, str, ast.Module]] = []
    suppressed_by_path: dict[str, dict[int, set[str]]] = {}

    parse_start = time.monotonic()
    for path in iter_python_files(paths):
        budget.check(f"parsing {path}")
        norm = PurePosixPath(path).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{path}: unreadable: {exc}")
            continue
        try:
            if cache is not None:
                tree = cache.parse(norm, source)
            else:
                tree = ast.parse(source, filename=norm)
        except SyntaxError as exc:
            errors.append(f"{path}: syntax error: {exc.msg} (line {exc.lineno})")
            continue
        modules.append((norm, source, tree))
        suppressed_by_path[norm] = _suppressions(source)
    stats.parse_seconds = time.monotonic() - parse_start
    stats.files = len(modules)
    if cache is not None:
        stats.cache_hits = cache.hits
        cache.save()

    module_start = time.monotonic()
    module_rules = _active_module_rules(codes)
    for norm, source, tree in modules:
        budget.check(f"module rules on {norm}")
        _run_module_rules(tree, source, norm, module_rules, findings)
    stats.module_rule_seconds = time.monotonic() - module_start

    project_rules = _active_project_rules(codes)
    project_start = time.monotonic()
    if project_rules and modules:
        budget.check("symbol table construction")
        project = Project(build_symbol_table(modules))
        stats.functions = len(project.symbols.functions)
        stats.classes = len(project.symbols.classes)
        stats.callgraph_nodes = project.graph.node_count
        stats.callgraph_edges = project.graph.edge_count
        for cls in project_rules:
            budget.check(f"project rule {cls.code}")
            cls(findings).check_project(project)
    stats.project_rule_seconds = time.monotonic() - project_start

    kept = _apply_suppressions(findings, suppressed_by_path)
    kept = sorted(kept, key=lambda f: (f.path, f.line, f.col, f.code))
    stats.total_seconds = budget.elapsed()
    stats.record(kept)
    return kept, errors, stats


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
) -> tuple[list[Finding], list[str]]:
    """Lint files and directories (both engines); legacy two-tuple API."""
    findings, errors, _stats = analyze_paths(paths, select=select)
    return findings, errors


# --------------------------------------------------------------------- #
# Baseline ratchet
# --------------------------------------------------------------------- #


def load_baseline(path: str | Path) -> dict[str, int]:
    """Read a ratchet baseline file (``path::code`` -> count)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    counts = payload.get("baseline", {})
    return {str(key): int(value) for key, value in counts.items()}


def write_baseline(path: str | Path, findings: list[Finding]) -> None:
    """Write the current findings as the new ratchet baseline."""
    counts: dict[str, int] = {}
    for finding in findings:
        key = finding.baseline_key()
        counts[key] = counts.get(key, 0) + 1
    payload = {
        "format": "sketchlint-baseline",
        "version": 1,
        "baseline": dict(sorted(counts.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def ratchet(
    findings: list[Finding], baseline: dict[str, int]
) -> tuple[list[Finding], int]:
    """Split findings against a baseline.

    Returns ``(new_findings, known_count)``: a ``path::code`` group with
    more findings than its baseline count surfaces whole (line numbers
    shift too easily to pair individual findings), groups at or under
    their budget are "known" and suppressed.  Counts-only keys make the
    gate a true ratchet — fixing a finding without updating the baseline
    can never *create* failures elsewhere.
    """
    grouped: dict[str, list[Finding]] = {}
    for finding in findings:
        grouped.setdefault(finding.baseline_key(), []).append(finding)
    new: list[Finding] = []
    known = 0
    for key, group in grouped.items():
        budget = baseline.get(key, 0)
        if len(group) > budget:
            new.extend(group)
        else:
            known += len(group)
    return sorted(new, key=lambda f: (f.path, f.line, f.col, f.code)), known


# --------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------- #


def _render_sarif(findings: list[Finding]) -> str:
    """SARIF 2.1.0 document (one run), for CI code-scanning upload."""
    rule_ids = sorted(all_rules())
    rules_meta = []
    for code in rule_ids:
        cls = all_rules()[code]
        rules_meta.append(
            {
                "id": code,
                "shortDescription": {"text": cls.summary or code},
                "fullDescription": {"text": cls.rationale or cls.summary},
                "defaultConfiguration": {"level": "warning"},
            }
        )
    index = {code: pos for pos, code in enumerate(rule_ids)}
    results = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.code,
                "ruleIndex": index.get(finding.code, -1),
                "level": "warning",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "sketchlint",
                        "informationUri": (
                            "https://example.invalid/docs/static-analysis"
                        ),
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def _render(findings: list[Finding], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "count": len(findings),
                "findings": [finding.to_dict() for finding in findings],
            },
            indent=2,
        )
    if fmt == "sarif":
        return _render_sarif(findings)
    return "\n".join(finding.format() for finding in findings)


def run_lint(
    paths: Sequence[str | Path],
    fmt: str = "text",
    select: Iterable[str] | None = None,
    warn_only: bool = False,
    list_rules: bool = False,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
    baseline: str | Path | None = None,
    update_baseline: bool = False,
    stats: bool = False,
    time_budget: float | None = None,
    cache_dir: str | Path | None = None,
) -> int:
    """Shared driver behind ``python -m repro.analysis`` and ``repro lint``."""
    # Resolve the streams per call, not at definition time, so callers
    # that redirect sys.stdout (pytest's capsys) see the output.
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if list_rules:
        for code, cls in all_rules().items():
            kind = "project" if code in PROJECT_RULES else "module"
            print(f"{code}  [{kind}]  {cls.summary}", file=out)
        return 0
    try:
        findings, errors, run_stats = analyze_paths(
            paths,
            select=select,
            time_budget=time_budget,
            cache_dir=cache_dir,
        )
    except KeyError as exc:
        print(f"sketchlint: {exc.args[0]}", file=err)
        return 2
    except TimeBudgetExceeded as exc:
        print(f"sketchlint: {exc}", file=err)
        return 2

    if update_baseline:
        if baseline is None:
            print(
                "sketchlint: --update-baseline requires --baseline PATH",
                file=err,
            )
            return 2
        write_baseline(baseline, findings)
        print(
            f"sketchlint: baseline updated with {len(findings)} finding(s) "
            f"-> {baseline}",
            file=out,
        )
        return 0

    known = 0
    if baseline is not None:
        try:
            budget_counts = load_baseline(baseline)
        except (OSError, ValueError) as exc:
            print(f"sketchlint: unreadable baseline {baseline}: {exc}", file=err)
            return 2
        findings, known = ratchet(findings, budget_counts)
        run_stats.record(findings)

    rendered = _render(findings, fmt)
    if rendered:
        print(rendered, file=out)
    for error in errors:
        print(f"sketchlint: {error}", file=err)
    if known and fmt == "text":
        print(
            f"sketchlint: {known} known finding(s) held by baseline "
            f"{baseline}",
            file=out,
        )
    if not findings and not errors and fmt == "text":
        print("sketchlint: clean", file=out)
    if stats:
        print(run_stats.render(), file=out)
    if errors:
        return 2
    if findings and not warn_only:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro.analysis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="sketchlint: invariant-aware static analysis for repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report findings but exit 0 (baseline/ratchet mode)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="ratchet file: fail only on findings beyond the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print analysis statistics (findings by rule/file, call-graph "
        "size, wall time)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="hard wall-clock budget; exceeded runs exit 2 (0 disables; "
        "default 120)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        dest="cache_dir",
        help="directory for the parsed-AST cache (reused across runs/steps)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point for sketchlint; returns a process exit code."""
    args = build_parser().parse_args(argv)
    select = args.select.split(",") if args.select else None
    try:
        return run_lint(
            args.paths,
            fmt=args.fmt,
            select=select,
            warn_only=args.warn_only,
            list_rules=args.list_rules,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            stats=args.stats,
            time_budget=args.time_budget,
            cache_dir=args.cache_dir,
        )
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not a lint error.
        sys.stderr.close()
        return 0


# Importing the rule sets populates RULES / PROJECT_RULES; the imports
# sit at the bottom so rules can subclass Rule / ProjectRule from this
# partially-initialized module.
from repro.analysis import interproc as _interproc  # noqa: E402,F401
from repro.analysis import rules as _rules  # noqa: E402,F401

"""Machine-checked invariants for the persistent-sketch reproduction.

Three layers:

* :mod:`repro.analysis.sketchlint` — the analyzer driver.  Module rules
  (SL001..SL007 and SL010, :mod:`~repro.analysis.rules`) are per-file
  AST visitors; project rules (SL012, SL014, SL016, SL018,
  :mod:`~repro.analysis.interproc`) run over a whole-program symbol
  table, call graph and dataflow summaries
  (:mod:`~repro.analysis.symbols`, :mod:`~repro.analysis.callgraph`,
  :mod:`~repro.analysis.dataflow`) and see through helper wrappers:
  durability escapes, contract-coverage gaps, swallowed durability
  errors, update-buffer bypasses.  Run it with
  ``python -m repro.analysis src`` or ``repro lint``; ``--format
  sarif`` and ``--baseline`` serve the CI gate.
* :mod:`repro.analysis.contracts` — a runtime contract layer (decorators
  and validators) the sketch classes opt into.  Contracts are identity
  no-ops unless ``REPRO_CONTRACTS=1``; the test suite always enforces
  them (see ``tests/conftest.py``).

See ``docs/static-analysis.md`` for the rule catalogue, the engine
architecture and the interprocedural-rule writing guide.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, Project, build_project
from repro.analysis.dataflow import DataflowSummary, summarize
from repro.analysis.sketchlint import (
    PROJECT_RULES,
    RULES,
    AnalysisStats,
    Finding,
    ProjectRule,
    Rule,
    analyze_paths,
    lint_paths,
    lint_source,
    main,
    run_lint,
)
from repro.analysis.symbols import SymbolTable, build_symbol_table

__all__ = [
    "AnalysisStats",
    "CallGraph",
    "DataflowSummary",
    "Finding",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "RULES",
    "Rule",
    "SymbolTable",
    "analyze_paths",
    "build_project",
    "build_symbol_table",
    "lint_paths",
    "lint_source",
    "main",
    "run_lint",
    "summarize",
]

"""Fault-tolerant ingestion runtime.

A persistent sketch's promise — answer queries about *any* past window —
is only as good as its history's durability: a crash mid-ingest that
loses or corrupts the archive silently falsifies every answer about the
lost span.  This package wraps a :class:`~repro.store.SketchStore` in a
crash-safe ingestion loop:

* :class:`~repro.runtime.runtime.IngestRuntime` — write-ahead logging,
  periodic atomic checkpoints, exactly-once recovery
  (:meth:`~repro.runtime.runtime.IngestRuntime.recover`);
* :class:`~repro.runtime.policies.IngestPolicy` — explicit handling of
  malformed and late records (``raise`` / ``skip`` / ``quarantine`` to a
  dead-letter file) plus bounded retry-with-backoff for snapshot I/O;
* :class:`~repro.runtime.faults.FaultPlan` — deterministic fault
  injection (torn writes, transient ``OSError``, simulated crashes,
  at-rest corruption) driving the crash-recovery
  and chaos-matrix property tests;
* :func:`~repro.runtime.fsck.run_fsck` — the durability scrubber behind
  ``repro fsck``: re-verifies every WAL frame and checkpoint, classifies
  damage (torn tail / corrupt / orphaned), quarantines what replay
  cannot use, and reports any acknowledged-record loss explicitly;
* :class:`~repro.runtime.health.HealthMonitor` — degraded-mode
  supervision: ``HEALTHY -> DEGRADED_READONLY -> FAILED``, typed write
  rejection (:class:`~repro.runtime.health.DegradedError`), and
  hysteresis-based re-probing back to health.

See ``docs/robustness.md`` for the on-disk formats, the recovery
semantics and the failure-mode matrix, and
``tests/test_runtime_recovery.py`` / ``tests/test_chaos_matrix.py`` for
the kill-and-recover property tests the design is held to.
"""

from __future__ import annotations

from repro.runtime.faults import FaultPlan, SimulatedCrash
from repro.runtime.fsck import FsckReport, run_fsck
from repro.runtime.health import DegradedError, HealthMonitor, HealthState
from repro.runtime.policies import (
    DeadLetterFile,
    IngestPolicy,
    IngestStats,
    LateRecordError,
    MalformedRecordError,
    SnapshotRetryError,
)
from repro.runtime.runtime import IngestRuntime, RecoveryError
from repro.runtime.wal import WalCorruption, WriteAheadLog

__all__ = [
    "IngestRuntime",
    "IngestPolicy",
    "IngestStats",
    "FaultPlan",
    "SimulatedCrash",
    "WriteAheadLog",
    "WalCorruption",
    "DeadLetterFile",
    "MalformedRecordError",
    "LateRecordError",
    "SnapshotRetryError",
    "RecoveryError",
    "FsckReport",
    "run_fsck",
    "DegradedError",
    "HealthMonitor",
    "HealthState",
]

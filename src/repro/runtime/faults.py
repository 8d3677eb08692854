"""Deterministic fault injection for the ingestion runtime.

Crash-safety claims are worthless untested, and crashes found by chance
are unreproducible.  A :class:`FaultPlan` scripts *exactly* where the
runtime fails: at the Nth WAL record (before it is written, torn
mid-write, or at the fsync of the frame that holds it), at the Nth
checkpoint (transient ``OSError`` for the retry path, or a crash
between snapshot commit and pointer flip).
Because every trigger is a plain counter threshold, a test can enumerate
every fault point of a given workload and assert recovery at each one —
the crash-recovery property test in ``tests/test_runtime_recovery.py``.

:class:`SimulatedCrash` deliberately subclasses :class:`BaseException`:
a simulated power cut must not be swallowed by ``except Exception`` /
``except OSError`` handlers (notably the snapshot retry loop), exactly
as a real ``kill -9`` would not be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class SimulatedCrash(BaseException):
    """The process 'dies' here; only the test harness may catch this."""


@dataclass
class FaultPlan:
    """Scripted failures, keyed by 1-based record / checkpoint ordinals.

    Attributes
    ----------
    crash_before_record:
        Crash when the WAL frame reaches the Nth record, before its line
        is written.  The frame's earlier lines are made durable first —
        the prefix a real crash mid-frame could leave — and none of the
        frame was acknowledged, so the caller re-sends it whole.
    torn_write_at_record:
        Crash while appending the Nth record to the WAL, after roughly
        half its bytes hit the file (a torn write recovery must discard).
    crash_after_record:
        Crash at the fsync of the frame that holds the Nth record, after
        the frame is durable in the WAL but before it is applied to the
        in-memory store (recovery must replay the whole frame).  For
        :meth:`~repro.runtime.IngestRuntime.ingest` the frame is the one
        record.
    io_error_at_checkpoint:
        Raise ``OSError`` at the start of the Nth checkpoint attempt,
        ``io_error_count`` consecutive times (exercises retry/backoff).
        With ``io_error_enospc`` the error carries ``errno.ENOSPC`` (a
        full disk — the canonical degraded-mode trigger).
    crash_at_checkpoint:
        Crash during the Nth checkpoint, after the snapshot directory is
        written but before the ``CHECKPOINT`` pointer commits (recovery
        must ignore the orphan snapshot and use the previous one).
    truncate_snapshot_at_checkpoint:
        Let the Nth checkpoint commit, then corrupt its archives by
        truncation *and crash* (recovery must detect the damage and fall
        back to the previous checkpoint + a longer WAL replay).
    flip_byte_in_segment / flip_byte_offset:
        At-rest corruption (:meth:`apply_at_rest`): XOR one byte at
        ``flip_byte_offset`` of the Nth WAL segment (1-based, oldest
        first; negative offsets index from the end of the file).
    truncate_checkpoint_at_rest:
        At-rest corruption: truncate every archive of the Nth checkpoint
        directory (1-based, oldest first) to half its size.
    delete_checkpoint_at_rest:
        At-rest corruption: remove the Nth checkpoint directory.
    delete_pointer_at_rest / corrupt_pointer_at_rest:
        At-rest corruption: remove, or overwrite with garbage, the
        ``CHECKPOINT`` pointer file.
    """

    crash_before_record: int | None = None
    torn_write_at_record: int | None = None
    crash_after_record: int | None = None
    io_error_at_checkpoint: int | None = None
    io_error_count: int = 1
    io_error_enospc: bool = False
    crash_at_checkpoint: int | None = None
    truncate_snapshot_at_checkpoint: int | None = None

    flip_byte_in_segment: int | None = None
    flip_byte_offset: int = 0
    truncate_checkpoint_at_rest: int | None = None
    delete_checkpoint_at_rest: int | None = None
    delete_pointer_at_rest: bool = False
    corrupt_pointer_at_rest: bool = False

    records_seen: int = field(default=0, init=False)
    checkpoints_seen: int = field(default=0, init=False)
    _io_errors_raised: int = field(default=0, init=False)

    # ------------------------------------------------------------------ #
    # Record-path hooks (called by the runtime / WAL)
    # ------------------------------------------------------------------ #

    def next_record(self) -> int:
        """Advance the record ordinal; crash if scripted pre-WAL."""
        self.records_seen += 1
        if self.records_seen == self.crash_before_record:
            raise SimulatedCrash(
                f"scripted crash before record {self.records_seen}"
            )
        return self.records_seen

    def tear_this_record(self) -> bool:
        """Whether the current record's WAL append should be torn."""
        return self.records_seen == self.torn_write_at_record

    def after_batch_durable(self, first_record: int) -> None:
        """Crash hook between WAL durability and store application.

        A frame becomes durable at its single trailing fsync, so a
        post-durability crash scripted for *any* record of the frame
        fires there — records after the scripted ordinal are already in
        the WAL (and will be replayed).  ``first_record`` is the frame's
        first record ordinal.
        """
        if self.crash_after_record is None:
            return
        if first_record <= self.crash_after_record <= self.records_seen:
            raise SimulatedCrash(
                f"scripted crash after record {self.crash_after_record} "
                "reached the WAL (batch fsync)"
            )

    # ------------------------------------------------------------------ #
    # Checkpoint-path hooks
    # ------------------------------------------------------------------ #

    def next_checkpoint(self) -> int:
        """Advance the checkpoint ordinal (one per *attempted* snapshot)."""
        self.checkpoints_seen += 1
        return self.checkpoints_seen

    def before_snapshot(self) -> None:
        """Transient-IO hook at the start of a snapshot attempt."""
        if (
            self.checkpoints_seen == self.io_error_at_checkpoint
            and self._io_errors_raised < self.io_error_count
        ):
            self._io_errors_raised += 1
            message = (
                f"scripted transient IO error at checkpoint "
                f"{self.checkpoints_seen} "
                f"(attempt {self._io_errors_raised}/{self.io_error_count})"
            )
            if self.io_error_enospc:
                import errno

                raise OSError(errno.ENOSPC, message)
            raise OSError(message)

    def before_pointer_commit(self) -> None:
        """Crash hook between snapshot write and pointer commit."""
        if self.checkpoints_seen == self.crash_at_checkpoint:
            raise SimulatedCrash(
                f"scripted crash mid-checkpoint {self.checkpoints_seen} "
                "(snapshot written, pointer not committed)"
            )

    def corrupt_committed_snapshot(self) -> bool:
        """Whether to truncate the just-committed snapshot and crash."""
        return self.checkpoints_seen == self.truncate_snapshot_at_checkpoint

    # ------------------------------------------------------------------ #
    # At-rest corruption (applied to a closed runtime directory)
    # ------------------------------------------------------------------ #

    def apply_at_rest(self, directory) -> list[str]:
        """Damage a *closed* runtime directory as scripted; returns a
        description of each action (for chaos-test assertions).

        This is the media-failure half of the plan: bit-rot inside a
        sealed WAL segment, a truncated or vanished checkpoint, a lost
        pointer — the damage :func:`repro.runtime.fsck.run_fsck` exists
        to detect.  Unlike the crash hooks, these mutate files directly
        rather than interrupting a live runtime.
        """
        directory = Path(directory)
        actions: list[str] = []
        # Imported here: both modules import this one.
        from repro.runtime.runtime import IngestRuntime
        from repro.runtime.wal import WriteAheadLog

        if self.flip_byte_in_segment is not None:
            segments = WriteAheadLog(directory / "wal").segments()
            _start, path = segments[self.flip_byte_in_segment - 1]
            data = bytearray(path.read_bytes())
            offset = self.flip_byte_offset
            if offset < 0:
                offset += len(data)
            offset = max(0, min(offset, len(data) - 1))
            data[offset] ^= 0xFF
            path.write_bytes(bytes(data))  # sketchlint: disable=SL012 — corruption injection: the non-atomic in-place write IS the fault
            actions.append(
                f"flipped byte {offset} of {path.name}"
            )
        for ordinal, remove in (
            (self.truncate_checkpoint_at_rest, False),
            (self.delete_checkpoint_at_rest, True),
        ):
            if ordinal is None:
                continue
            _covered, target = IngestRuntime._checkpoints(directory)[ordinal - 1]
            if remove:
                import shutil

                shutil.rmtree(target)
                actions.append(f"deleted checkpoint {target.name}")
            else:
                for path in own_files(target):
                    blob = path.read_bytes()
                    path.write_bytes(blob[: len(blob) // 2])  # sketchlint: disable=SL012 — corruption injection: the non-atomic in-place write IS the fault
                actions.append(f"truncated own files of {target.name}")
        pointer = directory / "CHECKPOINT"
        if self.delete_pointer_at_rest:
            pointer.unlink(missing_ok=True)
            actions.append("deleted CHECKPOINT pointer")
        if self.corrupt_pointer_at_rest:
            pointer.write_text("{ not json", encoding="utf-8")  # sketchlint: disable=SL012 — corruption injection: the non-atomic in-place write IS the fault
            actions.append("corrupted CHECKPOINT pointer")
        return actions


def own_files(checkpoint: Path) -> list[Path]:
    """A checkpoint's own files: its manifest and every generation no
    other checkpoint hard-links (damaging a shared generation is a
    different fault, one that no fallback routes around)."""
    return sorted(
        path
        for path in checkpoint.iterdir()
        if path.is_file() and path.stat().st_nlink == 1
    )

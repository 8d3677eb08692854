"""Crash-safe ingestion runtime wrapping a :class:`SketchStore`.

Durability protocol (WAL-before-apply, snapshot-behind)::

    ingest_batch(records)
      1. classify: malformed / late records go through the policy
      2. resolve timestamps (auto-tick against the stream's clock)
      3. frame the accepted records into the write-ahead log, one
         fsync per frame                          <- records are durable
      4. apply the frame to the in-memory store
      5. every `checkpoint_every` records: checkpoint()

    checkpoint()
      a. save the store to checkpoints/ckpt-<covered_seq>/  (atomic:
         tmp dir + fsync + rename, retried with backoff on OSError)
      b. atomically rewrite the CHECKPOINT pointer file
      c. rotate the WAL and prune segments/checkpoints now redundant
         (the two newest checkpoints are retained, so one damaged
         snapshot never loses history)

:meth:`IngestRuntime.ingest_batch` is the only write path, and
:meth:`IngestRuntime.ingest` is a one-record frame.  WAL lines stay
record-granular CRC lines, so replay does not see the framing; frames
are cut at checkpoint boundaries, so the resulting state, statistics
and checkpoint cadence are bit-identical however a stream is split into
calls — only acknowledgment granularity follows the frame.

A crash at *any* point leaves the directory recoverable:
:meth:`IngestRuntime.recover` loads the newest checkpoint that opens
cleanly (falling back on :class:`~repro.io.SerializationError`), repairs
torn WAL tails, replays the WAL tail *sequentially* (bit-identical for
deterministic trackers; the sampled AMS resumes from its serialized RNG
state, so an uninterrupted twin makes the same draws), re-validates the
timeline contracts, and resumes at ``applied_seq + 1``.  Records whose
WAL append never completed were never acknowledged, so re-sending them
after recovery is exactly-once, not a duplicate.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn

import numpy as np

from repro.analysis import contracts
from repro.io import SerializationError
from repro.io.atomic import atomic_write_text
from repro.runtime.faults import FaultPlan, SimulatedCrash, own_files
from repro.runtime.fsck import FsckReport, _truncate_torn_tail, run_fsck
from repro.runtime.health import DegradedError, HealthMonitor
from repro.runtime.policies import (
    DeadLetterFile,
    IngestPolicy,
    IngestStats,
    LateRecordError,
    MalformedRecordError,
    SnapshotRetryError,
    run_with_retry,
)
from repro.runtime.wal import WriteAheadLog
from repro.store.store import SketchStore
from repro.streams.model import Stream
from repro.streams.records import (
    INT64_LIMIT,
    IngestRecord,
    RecordError,
    record_fields,
)

_CKPT_RE = re.compile(r"^ckpt-(\d{12,})$")

POINTER_NAME = "CHECKPOINT"
DEADLETTER_NAME = "deadletter.jsonl"

#: Checkpoints retained after pruning; two, so recovery can always fall
#: back past one damaged snapshot.
RETAINED_CHECKPOINTS = 2


class RecoveryError(RuntimeError):
    """The runtime directory holds no recoverable checkpoint."""


class IngestRuntime:
    """Fault-tolerant ingestion for a multi-stream sketch store.

    Construct with :meth:`create` (fresh directory) or :meth:`recover`
    (after a crash or clean shutdown); the constructor itself is the
    shared plumbing and takes already-resolved state.
    """

    def __init__(
        self,
        directory: str | Path,
        store: SketchStore,
        *,
        policy: IngestPolicy | None = None,
        checkpoint_every: int = 1000,
        faults: FaultPlan | None = None,
        sleep: Callable[[float], None] | None = None,
        applied_seq: int = 0,
        buffer_window: int | None = None,
        buffer_mode: str = "exact",
        probe: Callable[[], bool] | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.directory = Path(directory)
        self.store = store
        if buffer_window is not None:
            # Execution-layer knob: the update buffer sits *below* the
            # WAL (records are durable before they are absorbed), so
            # buffered state never outruns durability and checkpoints
            # flush it implicitly when they save.
            store.configure_buffer(window=buffer_window, mode=buffer_mode)
        self.policy = policy or IngestPolicy()
        self.checkpoint_every = checkpoint_every
        self.faults = faults
        self._sleep = sleep
        self.applied_seq = applied_seq
        self.stats = IngestStats()
        self.monitor = HealthMonitor(self.directory, probe=probe)
        self.fsck_report: FsckReport | None = None
        self.dead_letters = DeadLetterFile(self.directory / DEADLETTER_NAME)
        self.wal = WriteAheadLog(
            self.directory / "wal", next_seq=applied_seq + 1, faults=faults
        )
        self._clocks: dict[str, int] = {
            name: store.clock(name) for name in store.streams()
        }
        # Item bound of every stream whose spec declares a universe.
        self._universes: dict[str, int] = {
            name: store._state(name).spec.universe
            for name in store.streams()
            if store._state(name).spec.universe is not None
        }
        self._since_checkpoint = 0
        # (covered_seq, view) of the checkpoint recover() decoded, until
        # the first cutover takes it or a newer checkpoint supersedes it.
        self._checkpoint_view: tuple[int, Any] | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        directory: str | Path,
        store: SketchStore,
        *,
        policy: IngestPolicy | None = None,
        checkpoint_every: int = 1000,
        faults: FaultPlan | None = None,
        sleep: Callable[[float], None] | None = None,
        buffer_window: int | None = None,
        buffer_mode: str = "exact",
        probe: Callable[[], bool] | None = None,
    ) -> "IngestRuntime":
        """Initialize a fresh runtime directory around ``store``.

        Takes a bootstrap checkpoint immediately (covering sequence 0),
        so a crash at any later instant — including before the first
        scheduled checkpoint — recovers to a well-defined state.  The
        bootstrap snapshot does not consult the fault plan: checkpoint
        ordinals in a :class:`FaultPlan` count post-creation checkpoints.
        """
        directory = Path(directory)
        if (directory / POINTER_NAME).exists() or (
            directory / "checkpoints"
        ).exists():
            raise FileExistsError(
                f"{directory} already contains an ingest runtime; "
                "use IngestRuntime.recover()"
            )
        directory.mkdir(parents=True, exist_ok=True)
        runtime = cls(
            directory,
            store,
            policy=policy,
            checkpoint_every=checkpoint_every,
            faults=faults,
            sleep=sleep,
            buffer_window=buffer_window,
            buffer_mode=buffer_mode,
            probe=probe,
        )
        runtime._checkpoint_inner(bootstrap=True)
        return runtime

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        policy: IngestPolicy | None = None,
        checkpoint_every: int = 1000,
        faults: FaultPlan | None = None,
        sleep: Callable[[float], None] | None = None,
        buffer_window: int | None = None,
        buffer_mode: str = "exact",
        probe: Callable[[], bool] | None = None,
        fsck: bool = True,
        acknowledge_data_loss: bool = False,
    ) -> "IngestRuntime":
        """Rebuild the runtime from its directory after a crash.

        Runs the durability scrubber first (``fsck=True``, the default):
        :func:`repro.runtime.fsck.run_fsck` re-verifies every CRC frame
        and snapshot, truncates torn WAL tails, quarantines irreparably
        damaged segments/checkpoints, and rewrites a missing or corrupt
        ``CHECKPOINT`` pointer.  When the scrub proves *acknowledged*
        records were lost (mid-segment corruption past the best
        checkpoint), the recovered runtime comes up degraded read-only
        with the sticky cause ``wal-quarantined`` — queries serve, writes
        are refused until the loss is accepted explicitly
        (``acknowledge_data_loss=True`` here, or
        :meth:`acknowledge_data_loss` later).  The full report is kept on
        :attr:`fsck_report`.

        Then tries checkpoints newest-first, skipping any whose snapshot
        no longer opens cleanly (damaged generation or manifest); the
        WAL tail past the chosen checkpoint is replayed sequentially.
        fsck only checks checkpoints (manifests and CRCs), so the chosen
        checkpoint is decoded once, here.  A checkpoint fsck found
        ``partial`` (damage confined to a generation every checkpoint
        shares) opens without that generation, and the runtime comes up
        degraded as for lost WAL records.  A frozen view of the decoded
        checkpoint, built from the generation columns the open read
        (each generation is read and CRC-checked once), is held for the
        first serving cutover (:meth:`take_checkpoint_view`).  Torn WAL
        tails are truncated once: by fsck's repair pass, or here when
        ``fsck=False``.
        After replay the recovered store's timeline contracts are
        re-validated (regardless of ``REPRO_CONTRACTS``), so a corrupt
        recovery can never serve queries silently.
        """
        from repro.engine.frozen import freeze_columns, freeze_store
        from repro.engine.replay import replay_records

        directory = Path(directory)
        report: FsckReport | None = None
        if fsck:
            report = run_fsck(directory, repair=True)
        # A crash mid-save can orphan a staging directory; it was never
        # committed, so recovery sweeps it.  (fsck already removed these
        # when it ran; this keeps ``fsck=False`` safe too.)
        if (directory / "checkpoints").is_dir():
            for staging in (directory / "checkpoints").glob(
                ".ckpt-*.saving.*"
            ):
                shutil.rmtree(staging, ignore_errors=True)
        candidates = cls._checkpoints(directory)
        if not candidates:
            raise RecoveryError(f"{directory}: no checkpoints to recover from")
        # Each candidate is opened from disk, newest first; the one fsck
        # named best opens without the damaged generations it accounted
        # as lost (a ``partial`` checkpoint).
        best = report.best_checkpoint() if report is not None else None
        failures: list[str] = []
        store: SketchStore | None = None
        columns: list = []
        covered = 0
        for covered_seq, path in reversed(candidates):
            without = best.damaged if best is not None and best.name == path.name else ()
            try:
                store = SketchStore.open(path, without=without, columns=columns)
                covered = covered_seq
                break
            except SerializationError as exc:
                failures.append(str(exc))
        if store is None:
            raise RecoveryError(
                f"{directory}: every checkpoint is damaged: "
                + "; ".join(failures)
            )

        # The first cutover serves a view of the checkpoint as decoded
        # instead of re-opening it from disk.  A version 2 checkpoint's
        # view is built from the columns the open just read; a version 1
        # store is frozen before replay mutates it (a freeze leaves the
        # store unchanged).
        checkpoint_view = (
            covered,
            freeze_columns(columns.pop()) if columns else freeze_store(store),
        )

        wal = WriteAheadLog(directory / "wal", next_seq=covered + 1)
        if not fsck:
            # fsck's repair pass truncates torn tails; without it, do so
            # here, so an append never fuses with a partial line.
            for _start, segment in wal.segments():
                _truncate_torn_tail(segment)
        last_seq = covered

        # Replay in cadence-aligned slices, re-snapshotting at every
        # checkpoint boundary the tail crosses.  A replay tail only
        # crosses a boundary when the checkpoint that once covered it is
        # gone (fsck quarantined it, or snapshot I/O failed while
        # degraded) — and snapshotting finalizes open PLA runs in place,
        # so skipping the boundary would leave the recovered store
        # diverged from a never-crashed twin.  Saving here both restores
        # bit-identical answers and re-materialises the lost checkpoint
        # on disk: recovery heals the checkpoint chain itself.
        def slices() -> Iterable[list[dict[str, Any]]]:
            nonlocal last_seq
            batch: list[dict[str, Any]] = []
            for record in wal.replay(covered):
                last_seq = record["seq"]
                batch.append(record)
                if last_seq % checkpoint_every == 0:
                    yield batch
                    batch = []
            if batch:
                yield batch

        replayed = 0
        resnapped = covered
        for batch in slices():
            replayed += replay_records(store, iter(batch))
            if last_seq % checkpoint_every == 0 and last_seq > resnapped:
                target = directory / "checkpoints" / f"ckpt-{last_seq:012d}"
                if target.exists():  # damaged leftover (fsck=False path)
                    shutil.rmtree(target)
                store.save(target, seq=last_seq)
                resnapped = last_seq
                checkpoint_view = None  # no longer the newest checkpoint
        with contracts.enforced(True):
            contracts.check_store(store)

        runtime = cls(
            directory,
            store,
            policy=policy,
            checkpoint_every=checkpoint_every,
            faults=faults,
            sleep=sleep,
            applied_seq=last_seq,
            # WAL replay above ran *unbuffered* on the freshly-opened
            # store; the buffer window only affects batches ingested from
            # here on.  Unbuffered replay is
            # deliberate: in exact mode flush boundaries are invisible so
            # buffering would change nothing, and in coalesce mode the WAL
            # holds the raw uncoalesced records — replaying them verbatim
            # restores a history at least as accurate as the crashed
            # run's, never a wider one.
            buffer_window=buffer_window,
            buffer_mode=buffer_mode,
            probe=probe,
        )
        runtime.stats.replayed = replayed
        runtime._checkpoint_view = checkpoint_view
        runtime.fsck_report = report
        if report is not None:
            runtime.monitor.note_quarantine(
                sum(
                    1
                    for action in report.actions
                    if action.startswith("quarantined") and "segment" in action
                ),
                sum(
                    1
                    for action in report.actions
                    if action.startswith("quarantined") and "checkpoint" in action
                ),
            )
            if report.data_loss and not acknowledge_data_loss:
                runtime.monitor.degrade(
                    "wal-quarantined",
                    f"fsck quarantined damaged history: "
                    f"{report.lost_records} acknowledged records lost, "
                    f"{report.unknown_damaged_frames} frames undecodable, "
                    f"{len(report.lost_generations)} checkpoint "
                    "generations left out; call acknowledge_data_loss() "
                    "to accept and resume writes",
                    recoverable=False,
                )
        # Re-align the checkpoint schedule with an uninterrupted run:
        # snapshotting finalizes open PLA runs, so checkpoint *positions*
        # shape future segmentation.  Counting the replayed tail (and
        # immediately taking a checkpoint the crash pre-empted) keeps a
        # recovered run bit-identical to a never-crashed twin with the
        # same cadence.
        runtime._since_checkpoint = last_seq - resnapped
        if runtime._since_checkpoint >= checkpoint_every:
            runtime.checkpoint()
        return runtime

    def close(self) -> None:
        """Seal the WAL (no implicit checkpoint; state is already durable).

        Staged buffered updates are flushed into the in-memory store
        first, so it answers for every acknowledged record.
        """
        self.store.flush_buffers()
        self.wal.close()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(self, raw: object) -> bool:
        """Ingest one raw record as a one-record :meth:`ingest_batch`.

        Returns ``True`` when the record was applied, ``False`` when the
        active policy dropped or quarantined it.  Acknowledgment
        contract: once this method returns ``True`` the record is
        durable in the WAL; a record that never returned (crash) may be
        re-sent after recovery without double counting.
        """
        return self.ingest_batch((raw,)) == 1

    def ingest_batch(self, raws: Iterable[object]) -> int:
        """Ingest raw records through the policy pipeline, batch-framed.

        The runtime's only write path (:meth:`ingest` is a one-record
        call).  Accepted records are framed into the WAL in chunks with
        a *single* flush + fsync each, and applied to the sketches
        through their batch planners.

        Classification stays per-record (malformed / late / auto-tick,
        judged against a clock view that includes records accepted
        earlier in the batch), and chunks are cut at checkpoint
        boundaries, so the checkpoint cadence — which shapes PLA
        segmentation via finalize-on-snapshot — and the resulting store,
        clocks and statistics are bit-identical however the records are
        split into calls.  Acknowledgment is batch-level: when this
        method returns, every accepted record is durable.  Returns the
        number of applied records.

        One pass over the records classifies each into a ``(stream,
        item, count, time)`` row for the WAL and appends it to its
        same-stream run's columns for the store.

        While the runtime is degraded (see :meth:`health`) this raises
        :class:`~repro.runtime.health.DegradedError` for the whole batch
        up front, without consuming a record — unless the degradation is
        recoverable and the periodic re-probe just proved the disk
        writable again, in which case the runtime heals and this very
        batch proceeds.
        """
        self.monitor.check_writable()
        clocks = self._clocks
        universes = self._universes
        rows: list[tuple[str, int, int, int]] = []
        # Same-stream runs in arrival order: (stream, times, items, counts).
        runs: list[tuple[str, list[int], list[int], list[int]]] = []
        run_stream: str | None = None
        # Clocks of the streams with records pending in this chunk.
        pending_clocks: dict[str, int] = {}
        applied = 0
        for raw in raws:
            if isinstance(raw, RecordError):
                self._reject("malformed", str(raw), None, rows, runs)
                continue
            if isinstance(raw, IngestRecord):
                # A typed record is built unchecked: the dict checks apply.
                raw = raw.to_wire()
            try:
                stream, item, count, time = record_fields(raw)
            except RecordError as exc:
                self._reject("malformed", str(exc), raw, rows, runs)
                continue
            clock = pending_clocks.get(stream)
            if clock is None:
                clock = clocks.get(stream)
            universe = universes.get(stream)
            kind = None
            if clock is None:
                kind, reason = "malformed", f"unknown stream {stream!r}"
            elif universe is not None and item >= universe:
                kind, reason = "malformed", (
                    f"record item {item} lies outside stream {stream!r}'s "
                    f"universe [0, {universe})"
                )
            elif time is None:
                if clock + 1 >= INT64_LIMIT:
                    kind, reason = "malformed", (
                        f"stream {stream!r} clock is at {clock}; an "
                        "auto-ticked record would overflow int64"
                    )
            elif time <= clock:
                kind, reason = "late", (
                    f"stream {stream!r} clock is at {clock}, record time "
                    f"{time} is not past it"
                )
            if kind is not None:
                wire = IngestRecord(stream, item, count, time).to_wire()
                self._reject(kind, reason, wire, rows, runs)
                continue
            if time is None:
                time = clock + 1
            rows.append((stream, item, count, time))
            pending_clocks[stream] = time
            if stream != run_stream:
                run_stream = stream
                run_times: list[int] = []
                run_items: list[int] = []
                run_counts: list[int] = []
                runs.append((stream, run_times, run_items, run_counts))
            run_times.append(time)
            run_items.append(item)
            run_counts.append(count)
            if self._since_checkpoint + len(rows) >= self.checkpoint_every:
                # The due checkpoint fires at its record position.
                applied += self._apply_chunk(rows, runs)
                rows, runs, run_stream = [], [], None
                pending_clocks.clear()
        if rows:
            applied += self._apply_chunk(rows, runs)
        return applied

    def _apply_chunk(
        self,
        rows: list[tuple[str, int, int, int]],
        runs: list[tuple[str, list[int], list[int], list[int]]],
    ) -> int:
        """WAL-append and apply one chunk of accepted records."""
        first_ordinal = (
            self.faults.records_seen + 1 if self.faults is not None else 0
        )
        try:
            seqs = self.wal.append_many(rows)
        except OSError as exc:
            self._degrade_for_wal_error(exc)
        if self.faults is not None:
            self.faults.after_batch_durable(first_ordinal)
        try:
            for name, times, items, counts in runs:
                self.store.update_batch(
                    name,
                    np.array(times, dtype=np.int64),
                    np.array(items, dtype=np.int64),
                    np.array(counts, dtype=np.int64),
                )
                self._clocks[name] = int(times[-1])
        except Exception:
            # The chunk is durable but partially applied: live answers
            # can no longer be trusted (recovery replays it cleanly).
            self.monitor.fail(
                "apply-divergence",
                f"apply of durable batch through seq {seqs[-1]} raised; "
                "in-memory state diverged from the WAL — recover from disk",
            )
            raise
        self.applied_seq = seqs[-1]
        self.stats.ingested += len(rows)
        self._since_checkpoint += len(rows)
        self._maybe_checkpoint()
        return len(rows)

    def ingest_stream(
        self, name: str, stream: Stream, batch_size: int = 1
    ) -> int:
        """Ingest a materialized stream into stream ``name``; returns
        the number of applied records.

        Records are WAL-framed and applied in chunks of ``batch_size``
        (one fsync per chunk) via :meth:`ingest_batch`; the default of
        one is per-record acknowledgment.  The resulting state is
        bit-identical for every chunk size.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        applied = 0
        chunk: list[IngestRecord] = []
        for update in stream:
            chunk.append(
                IngestRecord(
                    stream=name,
                    item=update.item,
                    count=update.count,
                    time=update.time,
                )
            )
            if len(chunk) >= batch_size:
                applied += self.ingest_batch(chunk)
                chunk = []
        if chunk:
            applied += self.ingest_batch(chunk)
        return applied

    def _reject(
        self,
        kind: str,
        reason: str,
        raw: object,
        rows: list[tuple[str, int, int, int]],
        runs: list[tuple[str, list[int], list[int], list[int]]],
    ) -> None:
        """Count a rejected record and act on it by policy; ``rows`` and
        ``runs`` are the accepted records pending ahead of it."""
        malformed = kind == "malformed"
        action = self.policy.on_malformed if malformed else self.policy.on_late
        if action == "raise" and rows:
            # Records preceding the offender are durable and applied
            # before the raise.
            self._apply_chunk(rows, runs)
        if malformed:
            self.stats.malformed += 1
            error: type[ValueError] = MalformedRecordError
        else:
            self.stats.late += 1
            error = LateRecordError
        if action == "raise":
            raise error(reason)
        if action == "quarantine":
            self.dead_letters.append(kind, reason, raw)
            self.stats.quarantined += 1

    def _degrade_for_wal_error(self, exc: OSError) -> NoReturn:
        """Flip read-only on a failed WAL append and surface the cause.

        The batch was *not* acknowledged (the append raised before
        durability), so rejecting it loses nothing; the periodic re-probe
        heals the runtime once the disk accepts durable writes again.
        """
        import errno as _errno

        cause = (
            "disk-full"
            if getattr(exc, "errno", None) == _errno.ENOSPC
            else "wal-io-error"
        )
        self.monitor.degrade(cause, f"WAL append failed: {exc}")
        raise DegradedError(self.monitor.state, cause, str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> Path:
        """Snapshot the store and advance the durable recovery point.

        When snapshot I/O keeps failing past the retry budget the
        runtime degrades to read-only (cause ``disk-full`` on ENOSPC,
        ``snapshot-retries-exhausted`` otherwise) and the
        :class:`~repro.runtime.policies.SnapshotRetryError` propagates.
        Already-ingested records stay durable in the WAL either way.
        """
        import errno as _errno

        try:
            return self._checkpoint_inner(bootstrap=False)
        except SnapshotRetryError as exc:
            root = exc.__cause__
            cause = (
                "disk-full"
                if getattr(root, "errno", None) == _errno.ENOSPC
                else "snapshot-retries-exhausted"
            )
            self.monitor.degrade(cause, str(exc))
            raise

    def _maybe_checkpoint(self) -> None:
        """Run a cadence-due checkpoint, absorbing snapshot exhaustion.

        Ingest callers reach here *after* their records are durable in
        the WAL: a failed checkpoint must not retract the acknowledgment,
        so the :class:`SnapshotRetryError` is absorbed — the runtime is
        now degraded read-only and the *next* write surfaces the typed
        :class:`~repro.runtime.health.DegradedError`.  The WAL keeps the
        un-snapshotted tail; recovery replays it.
        """
        if self._since_checkpoint < self.checkpoint_every:
            return
        try:
            self.checkpoint()
        except SnapshotRetryError:  # sketchlint: disable=SL016 — absorbed by design: checkpoint() already degraded the runtime, and the acked records stay durable in the WAL
            pass

    def _checkpoint_inner(self, bootstrap: bool) -> Path:
        faults = None if bootstrap else self.faults
        if faults is not None:
            faults.next_checkpoint()
        covered = self.applied_seq
        target = self.directory / "checkpoints" / f"ckpt-{covered:012d}"
        target.parent.mkdir(parents=True, exist_ok=True)

        def attempt() -> Path:
            if faults is not None:
                faults.before_snapshot()
            return self.store.save(target, seq=covered)

        run_with_retry(
            attempt,
            self.policy,
            self.stats,
            sleep=self._sleep,
            what=f"checkpoint covering seq {covered}",
        )
        if faults is not None:
            faults.before_pointer_commit()
        atomic_write_text(
            self.directory / POINTER_NAME,
            json.dumps(
                {
                    "format": "repro-runtime",
                    "version": 1,
                    "checkpoint": target.name,
                    "covered_seq": covered,
                },
                indent=2,
            ),
        )
        if faults is not None and faults.corrupt_committed_snapshot():
            self._truncate_snapshot(target)
            raise SimulatedCrash(
                f"scripted crash after corrupting snapshot {target.name}"
            )
        self._checkpoint_view = None  # superseded by this checkpoint
        self.wal.rotate()
        self._prune(covered)
        self.stats.checkpoints += 1
        self._since_checkpoint = 0
        self.monitor.note_checkpoint()
        return target

    @staticmethod
    def _truncate_snapshot(target: Path) -> None:
        """Simulated media damage: cut the checkpoint's own files (its
        manifest and the generations no other checkpoint links) in half."""
        for path in own_files(target):
            data = path.read_bytes()
            with open(path, "wb") as handle:  # sketchlint: disable=SL012 — test-only fault injector: the torn write IS the point
                handle.write(data[: len(data) // 2])

    def _prune(self, covered: int) -> None:
        checkpoints = self._checkpoints(self.directory)
        retained = checkpoints[-RETAINED_CHECKPOINTS:]
        for _seq, path in checkpoints[:-RETAINED_CHECKPOINTS]:
            shutil.rmtree(path, ignore_errors=True)
        if retained:
            self.wal.prune(retained[0][0])

    @staticmethod
    def _checkpoints(directory: Path) -> list[tuple[int, Path]]:
        """``(covered_seq, path)`` of every checkpoint, oldest first."""
        root = directory / "checkpoints"
        if not root.is_dir():
            return []
        found = []
        for path in root.iterdir():
            match = _CKPT_RE.match(path.name)
            if match and path.is_dir():
                found.append((int(match.group(1)), path))
        return sorted(found)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def clock(self, stream: str) -> int:
        """Current tick of ``stream`` (0 before any update)."""
        clock = self._clocks.get(stream)
        if clock is None:
            raise KeyError(f"unknown stream {stream!r}")
        return clock

    def health(self) -> dict[str, Any]:
        """Live health snapshot: state machine + durability lag.

        ``wal_lag`` is the number of durable records not yet covered by a
        checkpoint (what recovery would have to replay right now).
        """
        snapshot = self.monitor.snapshot()
        snapshot["applied_seq"] = self.applied_seq
        snapshot["wal_lag"] = self._since_checkpoint
        snapshot["stats"] = self.stats.as_dict()
        return snapshot

    def fsck(self) -> FsckReport:
        """Online durability scrub of this runtime's directory.

        Scan-only (never mutates; sealed segments and committed
        checkpoints are immutable, so scrubbing them while the runtime
        is live is safe).  Repair runs offline — ``repro fsck --repair``
        on a closed directory, or automatically inside :meth:`recover`.
        """
        return run_fsck(self.directory, repair=False)

    def acknowledge_data_loss(self) -> None:
        """Accept fsck-reported loss and return a degraded runtime to
        writable (see the sticky ``wal-quarantined`` cause on
        :meth:`recover`)."""
        self.monitor.acknowledge()

    def take_checkpoint_view(self, covered_seq: int) -> Any:
        """Hand over the frozen view :meth:`recover` built of checkpoint
        ``covered_seq``, or ``None`` when it holds no view of that one.

        One-shot: the held view is released either way, so a runtime
        keeps at most one such view, and only until its first cutover.
        """
        held, self._checkpoint_view = self._checkpoint_view, None
        if held is None or held[0] != covered_seq:
            return None
        return held[1]

    def describe(self) -> dict[str, Any]:
        """Operator-facing summary (used by ``repro recover``)."""
        checkpoints = self._checkpoints(self.directory)
        quarantine = self.directory / "quarantine"
        return {
            "directory": str(self.directory),
            "streams": {
                name: self._clocks[name] for name in sorted(self._clocks)
            },
            "applied_seq": self.applied_seq,
            "checkpoints": [path.name for _seq, path in checkpoints],
            "wal_segments": [
                path.name for _seq, path in self.wal.segments()
            ],
            "dead_letters": self.dead_letters.count(),
            "stats": self.stats.as_dict(),
            "health": self.monitor.snapshot(),
            "quarantine": sorted(
                path.name for path in quarantine.iterdir()
            )
            if quarantine.is_dir()
            else [],
        }

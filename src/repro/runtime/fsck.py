"""Durability scrubber for an ingest-runtime directory (``repro fsck``).

Recovery (:meth:`~repro.runtime.runtime.IngestRuntime.recover`) is only
as strong as the on-disk state it starts from, and PR 2's machinery
discovers at-rest damage — bit-rot inside a sealed WAL segment, a
truncated checkpoint archive, a lost ``CHECKPOINT`` pointer — either
mid-recovery (as a hard :class:`~repro.runtime.wal.WalCorruption`) or
never.  This module walks the whole directory *first* and turns every
kind of damage into an explicit verdict:

Segments (``wal/segment-*.wal``)
    ``clean`` — every line CRC-checks and the sequence run is contiguous;
    ``torn-tail`` — only the final line of the *final* segment is
    damaged (a crashed append; the record was never acknowledged, so
    truncating it is repair, not loss);
    ``corrupt`` — a damaged frame or sequence anomaly anywhere else
    (records here *were* acknowledged);
    ``orphaned`` — intact, but unreachable by replay because an earlier
    segment is corrupt or missing (a sequence gap severs the chain).

Checkpoints (``checkpoints/ckpt-*``)
    ``clean`` — the manifest parses and is well-formed, and every
    generation it lists has its recorded length and CRC32 (nothing is
    decoded; a version 1 checkpoint is decoded in full instead);
    ``partial`` — the only damage is to generations every readable
    checkpoint shares (one hard-linked file): recovery opens the newest
    such checkpoint without them, and the ledger counts every record of
    their sequence ranges (replay starts past the checkpoint, so a
    record the WAL still holds there is not put back either);
    ``unreadable`` otherwise.

Pointer (``CHECKPOINT``)
    ``clean`` / ``missing`` / ``corrupt`` (unparseable or inconsistent)
    / ``dangling`` (names a checkpoint that is absent or unreadable).

Damage is judged relative to the best *intact* checkpoint: a corrupt
segment whose records are all covered by that checkpoint is loss-free
(replay never needs it), while damage past the checkpoint loses
acknowledged records — reported, never silently dropped.  With
``repair=True`` the scrubber truncates torn tails, sweeps orphaned
checkpoint staging directories, moves corrupt/orphaned segments and
unreadable checkpoints into ``quarantine/``, and rewrites the pointer at
the best intact checkpoint, leaving a directory
:meth:`~repro.runtime.runtime.IngestRuntime.recover` always accepts.

See ``docs/robustness.md`` for the failure-mode matrix this feeds.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.io import SerializationError
from repro.io.atomic import atomic_write_text, fsync_directory
from repro.io.generations import damaged_generations, read_manifest
from repro.runtime.wal import _SEGMENT_RE, _decode_line
from repro.store.store import SketchStore

_CKPT_RE = re.compile(r"^ckpt-(\d{12,})$")

#: Name of the quarantine directory created under the runtime root.
QUARANTINE_DIR = "quarantine"

#: Segment verdicts.
SEG_CLEAN = "clean"
SEG_TORN_TAIL = "torn-tail"
SEG_CORRUPT = "corrupt"
SEG_ORPHANED = "orphaned"

#: Checkpoint verdicts.
CKPT_CLEAN = "clean"
CKPT_PARTIAL = "partial"
CKPT_UNREADABLE = "unreadable"

#: Pointer verdicts.
PTR_CLEAN = "clean"
PTR_MISSING = "missing"
PTR_CORRUPT = "corrupt"
PTR_DANGLING = "dangling"


@dataclass
class SegmentVerdict:
    """Scrub result for one WAL segment file."""

    #: File name (``segment-<first_seq>.wal``).
    name: str
    #: Sequence number carried by the file name.
    start_seq: int
    #: One of the ``SEG_*`` verdicts.
    verdict: str
    #: Human-readable elaboration (damage position, gap description).
    detail: str
    #: CRC-valid records decoded from the file.
    valid_records: int
    #: Damaged (undecodable) lines encountered.
    damaged_lines: int
    #: Highest sequence number decoded (0 when none).
    last_seq: int
    #: Valid records beyond the best intact checkpoint — acknowledged
    #: history that is lost if this segment cannot be replayed.
    records_beyond_checkpoint: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view for the CLI report."""
        return {
            "name": self.name,
            "verdict": self.verdict,
            "detail": self.detail,
            "valid_records": self.valid_records,
            "damaged_lines": self.damaged_lines,
            "last_seq": self.last_seq,
            "records_beyond_checkpoint": self.records_beyond_checkpoint,
        }


@dataclass
class CheckpointVerdict:
    """Scrub result for one checkpoint directory."""

    #: Directory name (``ckpt-<covered_seq>``).
    name: str
    #: Sequence number the snapshot covers.
    covered_seq: int
    #: ``clean``, ``partial`` or ``unreadable``.
    verdict: str
    #: What is damaged, when anything is.
    detail: str
    #: Damaged generations as ``{file: (lo, hi)}``, their sequence ranges.
    damaged: dict[str, tuple[int, int]] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view for the CLI report."""
        return {
            "name": self.name,
            "covered_seq": self.covered_seq,
            "verdict": self.verdict,
            "detail": self.detail,
            "damaged_generations": sorted(self.damaged),
        }


@dataclass
class PointerVerdict:
    """Scrub result for the ``CHECKPOINT`` pointer file."""

    #: One of the ``PTR_*`` verdicts.
    verdict: str
    #: Human-readable elaboration.
    detail: str
    #: Checkpoint name the pointer references (when parseable).
    checkpoint: str | None

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view for the CLI report."""
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "checkpoint": self.checkpoint,
        }


@dataclass
class FsckReport:
    """Everything one scrub pass learned (and did, under ``repair``)."""

    #: Runtime directory that was scrubbed.
    directory: str
    #: Per-segment verdicts, oldest first.
    segments: list[SegmentVerdict] = field(default_factory=list)
    #: Per-checkpoint verdicts, oldest first.
    checkpoints: list[CheckpointVerdict] = field(default_factory=list)
    #: Pointer verdict.
    pointer: PointerVerdict = field(
        default_factory=lambda: PointerVerdict(PTR_MISSING, "not scanned", None)
    )
    #: Covered sequence of the best intact checkpoint (``None`` when no
    #: checkpoint deserializes — recovery is impossible).
    best_covered_seq: int | None = None
    #: Highest sequence replay can reach after repair.
    replayable_through: int = 0
    #: Highest sequence number seen anywhere in the WAL.
    max_seq_seen: int = 0
    #: Acknowledged, decodable records that repair cannot save.
    lost_records: int = 0
    #: Damaged frames whose contents (and loss) are unknowable.
    unknown_damaged_frames: int = 0
    #: Orphaned checkpoint staging directories found.
    orphan_staging: list[str] = field(default_factory=list)
    #: Repair actions applied (empty on a scan-only pass).
    actions: list[str] = field(default_factory=list)
    #: Whether this pass ran with ``repair=True``.
    repaired: bool = False
    #: Records decoded across all segments (scan-throughput accounting).
    scanned_records: int = 0
    #: Bytes read across all segments.
    scanned_bytes: int = 0
    #: Damaged generations recovery opens the best checkpoint without:
    #: ``{file: (lo, hi)}``.  Every record in ``(lo, hi]`` is counted in
    #: :attr:`lost_records`: nothing re-derives it.
    lost_generations: dict[str, tuple[int, int]] = field(default_factory=dict)

    def best_checkpoint(self) -> CheckpointVerdict | None:
        """Verdict of the checkpoint recovery should open."""
        for ckpt in self.checkpoints:
            if ckpt.covered_seq == self.best_covered_seq and ckpt.verdict != CKPT_UNREADABLE:
                return ckpt
        return None

    @property
    def data_loss(self) -> bool:
        """Whether acknowledged history is (or would be) lost."""
        return (
            self.lost_records > 0
            or self.unknown_damaged_frames > 0
            or bool(self.lost_generations)
        )

    @property
    def recoverable(self) -> bool:
        """Whether :meth:`IngestRuntime.recover` can succeed at all."""
        return self.best_covered_seq is not None

    @property
    def clean(self) -> bool:
        """No damage of any kind (pointer, checkpoints, segments)."""
        return (
            self.recoverable
            and not self.data_loss
            and self.pointer.verdict == PTR_CLEAN
            and not self.orphan_staging
            and all(s.verdict == SEG_CLEAN for s in self.segments)
            and all(c.verdict == CKPT_CLEAN for c in self.checkpoints)
        )

    def summary(self) -> str:
        """One-line operator summary."""
        if self.clean:
            return (
                f"clean: {len(self.segments)} segment(s), "
                f"{len(self.checkpoints)} checkpoint(s), "
                f"replayable through seq {self.replayable_through}"
            )
        parts = []
        for verdict in (SEG_TORN_TAIL, SEG_CORRUPT, SEG_ORPHANED):
            count = sum(1 for s in self.segments if s.verdict == verdict)
            if count:
                parts.append(f"{count} {verdict} segment(s)")
        for verdict in (CKPT_PARTIAL, CKPT_UNREADABLE):
            count = sum(1 for c in self.checkpoints if c.verdict == verdict)
            if count:
                parts.append(f"{count} {verdict} checkpoint(s)")
        if self.pointer.verdict != PTR_CLEAN:
            parts.append(f"pointer {self.pointer.verdict}")
        if self.orphan_staging:
            parts.append(f"{len(self.orphan_staging)} orphan staging dir(s)")
        if not self.recoverable:
            parts.append("NO RECOVERABLE CHECKPOINT")
        if self.data_loss:
            parts.append(
                f"DATA LOSS: {self.lost_records} acknowledged record(s) "
                f"+ {self.unknown_damaged_frames} unknown frame(s) "
                f"beyond seq {self.replayable_through}"
            )
        return "; ".join(parts) or "damage detected"

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view for ``repro fsck`` and the health endpoint."""
        return {
            "directory": self.directory,
            "clean": self.clean,
            "recoverable": self.recoverable,
            "data_loss": self.data_loss,
            "best_covered_seq": self.best_covered_seq,
            "replayable_through": self.replayable_through,
            "max_seq_seen": self.max_seq_seen,
            "lost_records": self.lost_records,
            "lost_generations": sorted(self.lost_generations),
            "unknown_damaged_frames": self.unknown_damaged_frames,
            "pointer": self.pointer.as_dict(),
            "checkpoints": [c.as_dict() for c in self.checkpoints],
            "segments": [s.as_dict() for s in self.segments],
            "orphan_staging": self.orphan_staging,
            "repaired": self.repaired,
            "actions": self.actions,
            "scanned_records": self.scanned_records,
            "scanned_bytes": self.scanned_bytes,
            "summary": self.summary(),
        }


def _scan_checkpoints(
    directory: Path, report: FsckReport
) -> None:
    """Verdict every ``ckpt-*`` directory from its manifest and CRCs.

    A generation hard-linked into several checkpoints is read once.
    Damage confined to generations that every readable checkpoint
    shares cannot be routed around by falling back, so it makes those
    checkpoints ``partial``, not ``unreadable``: the newest is still
    the best, opened without the damaged generations.
    """
    root = directory / "checkpoints"
    if not root.is_dir():
        return
    found: list[tuple[int, Path]] = []
    for path in root.iterdir():
        if path.name.startswith(".ckpt-") and ".saving." in path.name:
            report.orphan_staging.append(path.name)
            continue
        match = _CKPT_RE.match(path.name)
        if match and path.is_dir():
            found.append((int(match.group(1)), path))
    cache: dict = {}
    readable: list[tuple[CheckpointVerdict, set]] = []
    for covered, path in sorted(found):
        verdict = CheckpointVerdict(path.name, covered, CKPT_CLEAN, "")
        report.checkpoints.append(verdict)
        try:
            manifest = read_manifest(path)
            if manifest["version"] == 1:
                SketchStore.open(path)  # v1 has no CRCs: decode it
        except SerializationError as exc:
            verdict.verdict, verdict.detail = CKPT_UNREADABLE, str(exc)
            continue
        problems = damaged_generations(path, manifest, cache)
        listed = {gen["file"]: gen for gen in manifest.get("generations", ())}
        verdict.damaged = {name: tuple(listed[name]["seq"]) for name in problems}
        verdict.detail = "; ".join(
            f"{path / name}: {problem}" for name, problem in problems.items()
        )
        readable.append(
            (verdict, {(name, listed[name]["crc32"]) for name in problems})
        )
    # Damage every readable checkpoint shares (one hard-linked file) is
    # the only damage no fallback routes around.
    shared = set.intersection(*(ids for _v, ids in readable)) if readable else set()
    for verdict, ids in readable:
        if not ids <= shared:
            verdict.verdict = CKPT_UNREADABLE
            continue
        if ids:
            verdict.verdict = CKPT_PARTIAL
        if report.best_covered_seq is None or verdict.covered_seq > report.best_covered_seq:
            report.best_covered_seq = verdict.covered_seq
            report.lost_generations = dict(verdict.damaged)


def _scan_pointer(directory: Path, report: FsckReport) -> None:
    """Verdict the ``CHECKPOINT`` pointer file."""
    path = directory / "CHECKPOINT"
    if not path.exists():
        report.pointer = PointerVerdict(
            PTR_MISSING, "CHECKPOINT pointer file does not exist", None
        )
        return
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        name = document["checkpoint"]
        covered = document["covered_seq"]
    except (ValueError, KeyError, TypeError, OSError) as exc:  # sketchlint: disable=SL016 — classification, not suppression: the damage becomes a pointer verdict the repair pass acts on
        report.pointer = PointerVerdict(
            PTR_CORRUPT, f"pointer unparseable: {exc}", None
        )
        return
    match = _CKPT_RE.match(str(name))
    if match is None or int(match.group(1)) != covered:
        report.pointer = PointerVerdict(
            PTR_CORRUPT,
            f"pointer names {name!r} but covers seq {covered!r}",
            str(name),
        )
        return
    verdicts = {c.name: c.verdict for c in report.checkpoints}
    if verdicts.get(name) not in (CKPT_CLEAN, CKPT_PARTIAL):
        state = (
            "unreadable" if name in verdicts else "absent"
        )
        report.pointer = PointerVerdict(
            PTR_DANGLING,
            f"pointer names {state} checkpoint {name}",
            str(name),
        )
        return
    report.pointer = PointerVerdict(PTR_CLEAN, "", str(name))


def _scan_segment(path: Path, report: FsckReport) -> list[tuple[int, bool]]:
    """Read one segment: ``(seq_or_-1, terminated)`` per
    non-trailing-blank line, ``seq`` ``-1`` when the frame is damaged.

    ``scanned_bytes`` counts the bytes read from disk: an invalid UTF-8
    byte decodes to U+FFFD, which re-encodes to three.
    """
    data = path.read_bytes()
    report.scanned_bytes += len(data)
    # The text replay reads (``read_text``: newlines translated).
    text = data.decode("utf-8", errors="replace")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.splitlines(keepends=True)
    while lines and not lines[-1].strip():
        lines.pop()
    infos: list[tuple[int, bool]] = []
    for line in lines:
        terminated = line.endswith("\n")
        record = _decode_line(line) if terminated else None
        if record is None:
            infos.append((-1, terminated))
        else:
            infos.append((int(record["seq"]), True))
            report.scanned_records += 1
    return infos


def _scan_wal(directory: Path, report: FsckReport) -> None:
    """Verdict every WAL segment and compute the data-loss ledger.

    The chain is judged against ``report.best_covered_seq`` (damage
    wholly covered by the best intact checkpoint is loss-free because
    replay never needs those records); a damaged frame or sequence gap
    past the checkpoint severs the chain — everything after it, however
    intact, is unreachable by sequential replay and becomes ``orphaned``.
    """
    wal_dir = directory / "wal"
    best = report.best_covered_seq if report.best_covered_seq is not None else 0
    segments: list[tuple[int, Path]] = []
    if wal_dir.is_dir():
        for path in wal_dir.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                segments.append((int(match.group(1)), path))
    segments.sort()
    severed_at: int | None = None  # first untrusted seq, once the chain breaks
    expected = best + 1  # replay needs contiguity from here on
    for position, (start, path) in enumerate(segments):
        is_last_segment = position == len(segments) - 1
        infos = _scan_segment(path, report)
        seqs = [seq for seq, _terminated in infos if seq >= 0]
        damaged = sum(1 for seq, _terminated in infos if seq < 0)
        last_seq = max(seqs) if seqs else 0
        beyond = sum(1 for seq in seqs if seq > best)
        report.max_seq_seen = max(report.max_seq_seen, last_seq)
        verdict, detail = SEG_CLEAN, ""
        severed_here = False

        if severed_at is not None:
            verdict = SEG_ORPHANED
            detail = (
                f"unreachable: replay chain severed at seq {severed_at}"
            )
        elif start > expected and start > best + 1:
            # Records expected..start-1 are missing (a whole segment lost).
            severed_at = max(expected, best + 1)
            severed_here = True
            verdict = SEG_ORPHANED
            detail = (
                f"sequence gap before segment: expected seq "
                f"{max(expected, best + 1)}, segment starts at {start}"
            )
            report.unknown_damaged_frames += start - max(expected, best + 1)
        else:
            # Intra-segment scan: contiguity + framing.
            run_expected = start
            for index, (seq, _terminated) in enumerate(infos):
                if seq < 0:
                    if is_last_segment and index == len(infos) - 1:
                        verdict = SEG_TORN_TAIL
                        detail = (
                            f"torn final line {index + 1} "
                            "(unacknowledged append; repair truncates)"
                        )
                        damaged -= 1  # not an at-rest frame loss
                    else:
                        verdict = SEG_CORRUPT
                        detail = (
                            f"damaged frame at line {index + 1} "
                            f"(expected seq {run_expected})"
                        )
                        if run_expected > best or beyond > 0:
                            severed_at = max(run_expected, best + 1)
                            severed_here = True
                    break
                if seq != run_expected:
                    verdict = SEG_CORRUPT
                    detail = (
                        f"sequence anomaly at line {index + 1}: "
                        f"expected {run_expected}, found {seq}"
                    )
                    if run_expected > best or beyond > 0:
                        severed_at = max(run_expected, best + 1)
                        severed_here = True
                    break
                run_expected = seq + 1

        if verdict in (SEG_CLEAN, SEG_TORN_TAIL) and seqs:
            expected = last_seq + 1
        # Damaged frames lost to at-rest corruption whose contents are
        # unknowable: only counted past the checkpoint (covered damage
        # is loss-free — replay never needs those records).
        if severed_here and verdict == SEG_CORRUPT:
            report.unknown_damaged_frames += max(0, damaged)
        elif verdict == SEG_ORPHANED and not severed_here:
            report.unknown_damaged_frames += max(0, damaged)

        report.segments.append(
            SegmentVerdict(
                name=path.name,
                start_seq=start,
                verdict=verdict,
                detail=detail,
                valid_records=len(seqs),
                damaged_lines=max(0, damaged),
                last_seq=last_seq,
                records_beyond_checkpoint=beyond,
            )
        )

    # The post-repair replayable floor.  Replay walks seq best+1, best+2,
    # ... through the surviving segments, so a damaged segment whose
    # records all sit at or below the floor is simply skipped (replay
    # never opens it), while one holding needed records ends the chain —
    # its valid prefix is quarantined with the rest of the file, so it
    # does not count.
    replayable = best
    for seg in report.segments:
        if seg.verdict in (SEG_CLEAN, SEG_TORN_TAIL):
            if not seg.valid_records:
                continue
            if seg.start_seq > replayable + 1:
                break  # records replay needs are missing before here
            replayable = max(replayable, seg.last_seq)
        elif seg.last_seq <= replayable and seg.verdict != SEG_ORPHANED:
            continue  # fully covered damage: replay skips the file
        else:
            break
    report.replayable_through = replayable

    # Loss ledger: acknowledged records we can decode but not replay.
    lost = 0
    for (_start, path), seg in zip(segments, report.segments):
        if seg.verdict in (SEG_CORRUPT, SEG_ORPHANED):
            lost += _count_lost(path, report.replayable_through)
    # A generation the best checkpoint opens without loses the history
    # of every record in its sequence range.  Replay starts past the
    # checkpoint, so records the WAL still holds there are lost too.
    for lo, hi in report.lost_generations.values():
        lost += hi - lo
    report.lost_records = lost


def _count_lost(path: Path, replayable_through: int) -> int:
    """Decodable records in ``path`` with seq beyond the replayable floor."""
    lost = 0
    raw = path.read_text(encoding="utf-8", errors="replace")
    for line in raw.splitlines():
        record = _decode_line(line + "\n") if line.strip() else None
        if record is not None and int(record["seq"]) > replayable_through:
            lost += 1
    return lost


def _repair(directory: Path, report: FsckReport) -> None:
    """Apply every safe repair the scan justified; records actions."""
    wal_dir = directory / "wal"
    quarantine = directory / QUARANTINE_DIR

    for staging in report.orphan_staging:
        shutil.rmtree(directory / "checkpoints" / staging, ignore_errors=True)
        report.actions.append(f"removed orphan staging dir {staging}")

    for seg in report.segments:
        path = wal_dir / seg.name
        if seg.verdict == SEG_TORN_TAIL:
            _truncate_torn_tail(path)
            seg.verdict = SEG_CLEAN
            seg.detail += " [repaired: truncated]"
            report.actions.append(f"truncated torn tail of {seg.name}")
        elif seg.verdict in (SEG_CORRUPT, SEG_ORPHANED):
            quarantine.mkdir(parents=True, exist_ok=True)
            shutil.move(str(path), str(quarantine / seg.name))
            fsync_directory(quarantine)
            fsync_directory(wal_dir)
            report.actions.append(
                f"quarantined {seg.verdict} segment {seg.name}"
                + (
                    f" (LOSES acknowledged records beyond seq "
                    f"{report.replayable_through})"
                    if seg.records_beyond_checkpoint
                    else " (loss-free: fully covered by checkpoint)"
                )
            )

    if report.best_covered_seq is not None:
        for ckpt in report.checkpoints:
            if ckpt.verdict != CKPT_UNREADABLE:
                continue
            quarantine.mkdir(parents=True, exist_ok=True)
            shutil.move(
                str(directory / "checkpoints" / ckpt.name),
                str(quarantine / ckpt.name),
            )
            fsync_directory(quarantine)
            report.actions.append(
                f"quarantined unreadable checkpoint {ckpt.name}"
            )
        if report.pointer.verdict != PTR_CLEAN:
            best = report.best_covered_seq
            atomic_write_text(
                directory / "CHECKPOINT",
                json.dumps(
                    {
                        "format": "repro-runtime",
                        "version": 1,
                        "checkpoint": f"ckpt-{best:012d}",
                        "covered_seq": best,
                    },
                    indent=2,
                ),
            )
            report.actions.append(
                f"rewrote pointer at best intact checkpoint "
                f"ckpt-{best:012d}"
            )
            report.pointer = PointerVerdict(
                PTR_CLEAN, "[repaired]", f"ckpt-{best:012d}"
            )
    report.repaired = True


def _truncate_torn_tail(path: Path) -> None:
    """Rewrite ``path`` down to its valid framed prefix (in place).

    The cut is counted over the bytes on disk, line by line, while each
    line is decoded as replay reads it: its CR LF or CR ending read as
    LF, and damaged when text reading would split it further.
    """
    data = path.read_bytes()
    valid_bytes = 0
    for line in data.splitlines(keepends=True):
        text = line.decode("utf-8", errors="replace")
        body = text.rstrip("\r\n")
        if (
            body == text
            or body.splitlines() != [body]
            or _decode_line(body + "\n") is None
        ):
            break
        valid_bytes += len(line)
    if valid_bytes < len(data):
        with open(path, "r+b") as handle:  # sketchlint: disable=SL012 — torn-tail repair truncates in place; only discards bytes already proven invalid
            handle.truncate(valid_bytes)


def run_fsck(directory: str | Path, repair: bool = False) -> FsckReport:
    """Scrub one runtime directory; optionally repair what is safe.

    Scan-only (``repair=False``) never mutates the directory.  With
    ``repair=True`` the pass truncates torn tails, quarantines
    corrupt/orphaned segments and unreadable checkpoints (into
    ``quarantine/``), sweeps staging orphans and rewrites a damaged
    ``CHECKPOINT`` pointer — after which
    :meth:`~repro.runtime.runtime.IngestRuntime.recover` succeeds
    whenever :attr:`FsckReport.recoverable` is true.  Repair never
    deletes damaged data: quarantined files remain on disk for forensics,
    and any acknowledged-record loss is reported explicitly
    (:attr:`FsckReport.lost_records`), never silent.
    """
    directory = Path(directory)
    report = FsckReport(directory=str(directory))
    _scan_checkpoints(directory, report)
    _scan_pointer(directory, report)
    _scan_wal(directory, report)
    if repair:
        _repair(directory, report)
    return report

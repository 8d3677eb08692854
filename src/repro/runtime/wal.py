"""Write-ahead log for sketch ingestion.

Layout: a directory of append-only segment files, one line per record::

    wal/
      segment-000000000001.wal     # records 1..N   (sealed at checkpoint)
      segment-0000000000N1.wal     # records N+1..  (active)

Segment names carry the sequence number of their first record; a new
segment starts at every checkpoint (so fully-covered segments can be
pruned) and at every recovery (so a torn tail is never appended onto).

Each line frames one record with a CRC32 over the JSON body, its keys
sorted and without spaces::

    8f1c2a07 {"count":1,"item":3,"seq":17,"stream":"urls","time":17}\n

Torn writes are expected, not exceptional: a crash mid-append leaves a
partial final line whose CRC cannot match.  Replay therefore *drops* a
damaged trailing line (the record was never acknowledged, so dropping
it is correct exactly-once behaviour) but treats damage followed by
more valid records — or any sequence gap — as real corruption and
raises :class:`WalCorruption` rather than silently skipping history.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import IO, Any, Iterator

from repro.runtime.faults import FaultPlan, SimulatedCrash

_SEGMENT_RE = re.compile(r"^segment-(\d{12,})\.wal$")


class WalCorruption(RuntimeError):
    """The WAL is damaged beyond the benign torn-tail case."""


#: One record's JSON body, keys in sorted order: the bytes of
#: ``json.dumps(record, separators=(",", ":"), sort_keys=True)`` with the
#: stream name's JSON string (ASCII, ``ensure_ascii``) spliced in.
_BODY = b'{"count":%d,"item":%d,"seq":%d,"stream":%b,"time":%d}'


_scan = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> dict[str, Any] | None:
    """Parse one framed line; ``None`` when damaged (torn/corrupt).

    The one line decoder: replay, fsck's scan, its loss ledger and its
    torn-tail repair all call it.  A body is parsed by the C scanner
    straight from its first character; only a parse that fails or
    stops short of the end (leading or trailing whitespace, extra data)
    goes through ``json.loads``, so every body decodes as ``json.loads``
    decodes it.  A segment is never parsed as one document: bodies can
    merge across lines into valid JSON when no line is valid alone.
    """
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, body = line[:8], line[9:].rstrip("\n")
    try:
        if int(crc_hex, 16) != zlib.crc32(body.encode()):
            return None
        try:
            document, end = _scan(body)
        except ValueError:
            end = -1
        if end != len(body):
            document = json.loads(body)
    except ValueError:
        return None
    if not isinstance(document, dict) or "seq" not in document:
        return None
    return document


class WriteAheadLog:
    """Append-only, CRC-framed, segment-rotated record log.

    Parameters
    ----------
    directory:
        The ``wal/`` directory (created if missing).
    next_seq:
        Sequence number the next appended record receives.  A fresh
        runtime starts at 1; recovery resumes at ``applied_seq + 1``.
    faults:
        Optional :class:`FaultPlan`; consulted per appended record for
        scripted pre-write crashes and torn writes.
    """

    def __init__(
        self,
        directory: str | Path,
        next_seq: int = 1,
        faults: FaultPlan | None = None,
    ) -> None:
        if next_seq < 1:
            raise ValueError(f"next_seq must be >= 1, got {next_seq}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.next_seq = next_seq
        self.faults = faults
        self._handle: IO[bytes] | None = None
        # JSON string of each stream name framed so far, as bytes.
        self._names: dict[str, bytes] = {}

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _active_handle(self) -> IO[bytes]:
        if self._handle is None:
            path = self.directory / f"segment-{self.next_seq:012d}.wal"
            self._handle = open(path, "ab")  # sketchlint: disable=SL012 — the WAL is the durability mechanism: fsync-per-append plus recovery-time torn-tail repair
        return self._handle

    def append_many(self, rows: list[tuple[str, int, int, int]]) -> list[int]:
        """Durably append a batch of ``(stream, item, count, time)`` rows
        with ONE flush + fsync; returns their sequence numbers.

        The only append: a single record is a one-row batch.  Each row
        becomes one CRC'd line, its body framed from :data:`_BODY` with
        the stream's JSON string cached per name (ASCII), so the line's
        bytes are those of ``json.dumps(..., separators=(",", ":"),
        sort_keys=True)`` on the record dict with its ``seq``.  Framing
        stays record-granular, so replay and torn-tail repair do not see
        batch boundaries.  Scripted faults keep their per-record
        ordinals: a crash or torn write at the k-th record first makes
        the batch's earlier complete lines durable, which is exactly the
        prefix a real crash mid-batch could leave on disk (none of the
        batch was acknowledged, so recovery replaying that prefix is
        still exactly-once).
        """
        if not rows:
            return []
        handle = self._active_handle()
        names = self._names
        faults = self.faults
        lines: list[bytes] = []
        first = seq = self.next_seq
        for stream, item, count, time in rows:
            name = names.get(stream)
            if name is None:
                name = names[stream] = json.dumps(stream).encode()
            body = _BODY % (count, item, seq, name, time)
            line = b"%08x %b\n" % (zlib.crc32(body), body)
            if faults is not None:
                try:
                    faults.next_record()
                except SimulatedCrash:
                    self._write_durably(handle, lines)
                    self.next_seq = seq
                    raise
                if faults.tear_this_record():
                    lines.append(line[: max(1, len(line) // 2)])
                    self._write_durably(handle, lines)
                    self.next_seq = seq
                    raise SimulatedCrash(
                        f"scripted torn WAL write at seq {seq}"
                    )
            lines.append(line)
            seq += 1
        self._write_durably(handle, lines)
        self.next_seq = seq
        return list(range(first, seq))

    @staticmethod
    def _write_durably(handle: IO[bytes], lines: list[bytes]) -> None:
        handle.write(b"".join(lines))
        handle.flush()
        os.fsync(handle.fileno())

    def rotate(self) -> None:
        """Seal the active segment; the next append opens a new one."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        """Close the active segment handle (idempotent)."""
        self.rotate()

    # ------------------------------------------------------------------ #
    # Reading / maintenance
    # ------------------------------------------------------------------ #

    def segments(self) -> list[tuple[int, Path]]:
        """``(start_seq, path)`` of every segment, in sequence order."""
        found = []
        for path in self.directory.iterdir():
            match = _SEGMENT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return sorted(found)

    def prune(self, covered_seq: int) -> list[Path]:
        """Delete segments whose records are all ``<= covered_seq``.

        A segment is removable when a later segment starts at or before
        ``covered_seq + 1`` (so no record above the floor lives in it).
        Returns the deleted paths.
        """
        segments = self.segments()
        removed = []
        for (start, path), (next_start, _next_path) in zip(
            segments, segments[1:]
        ):
            if start <= covered_seq and next_start <= covered_seq + 1:
                path.unlink()
                removed.append(path)
        return removed

    def replay(self, after_seq: int) -> Iterator[dict[str, Any]]:
        """Yield records with ``seq > after_seq``, oldest first.

        Verifies CRC framing and sequence contiguity.  A damaged line is
        tolerated only as the final non-empty line of its segment (a
        torn tail); anything else raises :class:`WalCorruption`.  A
        segment whose successor starts at or before ``after_seq + 1``
        holds no record past ``after_seq`` and is never opened.
        """
        expected = after_seq + 1
        segments = self.segments()
        for position, (start, path) in enumerate(segments):
            following = (
                segments[position + 1][0] if position + 1 < len(segments) else None
            )
            if following is not None and following <= after_seq + 1:
                continue  # every record here is at or below after_seq
            lines = path.read_text(
                encoding="utf-8", errors="replace"
            ).splitlines()
            while lines and not lines[-1].strip():
                lines.pop()
            for index, line in enumerate(lines):
                record = _decode_line(line)
                if record is None:
                    if index == len(lines) - 1:
                        break  # torn tail: unacknowledged record, drop
                    raise WalCorruption(
                        f"{path}: damaged record at line {index + 1} "
                        "followed by valid records"
                    )
                seq = record["seq"]
                if seq <= after_seq:
                    continue
                if seq != expected:
                    raise WalCorruption(
                        f"{path}: sequence gap: expected {expected}, "
                        f"found {seq} at line {index + 1}"
                    )
                expected = seq + 1
                yield record

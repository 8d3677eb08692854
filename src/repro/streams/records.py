"""Raw ingest records: the ragged outside world, before the clean model.

:class:`~repro.streams.model.Stream` is the paper's idealized input —
materialized, strictly increasing timestamps, integer items.  Real
collectors deliver something messier: one JSON-ish record at a time,
possibly missing fields, mistyped, duplicated or out of order.  This
module defines the boundary type :class:`IngestRecord` plus parsing that
*classifies* failures (:class:`RecordError`), so the ingestion runtime's
policies (:mod:`repro.runtime.policies`) can decide whether a malformed
record raises, is skipped, or is quarantined to a dead-letter file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.streams.model import Stream


class RecordError(ValueError):
    """A raw record could not be parsed into an :class:`IngestRecord`."""


@dataclass(frozen=True, slots=True)
class IngestRecord:
    """One validated update destined for a named stream.

    ``time`` may be ``None`` (auto-tick: the runtime assigns the next
    tick of the target stream); once written to the write-ahead log the
    time is always resolved, so replay is deterministic.
    """

    stream: str
    item: int
    count: int = 1
    time: int | None = None

    def to_wire(self) -> dict[str, Any]:
        """Plain-dict form used by the WAL and dead-letter files."""
        return {
            "stream": self.stream,
            "item": self.item,
            "count": self.count,
            "time": self.time,
        }


#: Items, counts and times are stored as int64 (WAL replay, columnar
#: batches); a value outside ``[-INT64_LIMIT, INT64_LIMIT)`` cannot be
#: applied, so it is rejected before it reaches the WAL.
INT64_LIMIT = 2**63


def _require_int(raw: dict[str, Any], key: str, default: int | None = None) -> int:
    value = raw.get(key, default)
    if value is None and default is None:
        raise RecordError(f"record missing required field {key!r}")
    # bool is an int subclass; a True item id is a malformed record.
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordError(
            f"record field {key!r} must be an integer, got {value!r}"
        )
    if not -INT64_LIMIT <= value < INT64_LIMIT:
        raise RecordError(
            f"record field {key!r} is outside the int64 range, got {value}"
        )
    return value


def record_fields(raw: object) -> tuple[str, int, int, int | None]:
    """Validate one raw record (a mapping) into ``(stream, item, count,
    time)``.

    Raises :class:`RecordError` on any shape problem, checking in this
    order: not a mapping, stream name missing, not a string, empty or
    holding ``/``; item missing, not an integer, outside int64 or
    negative; count (default 1) not an integer, outside int64 or zero;
    time (default ``None``, auto-tick) not an integer, outside int64 or
    below 1; unknown fields.  Timestamp *ordering* is not checked here —
    lateness is a per-stream property the runtime judges against its
    clocks.  A plain in-range ``int`` passes each field's first test;
    anything else takes :func:`_require_int`, whose reasons are the
    rejection messages.
    """
    if not isinstance(raw, dict):
        raise RecordError(f"record must be a mapping, got {type(raw).__name__}")
    stream = raw.get("stream")
    if not isinstance(stream, str) or not stream or "/" in stream:
        raise RecordError(f"record field 'stream' invalid: {stream!r}")
    item = raw.get("item")
    if type(item) is not int or not 0 <= item < INT64_LIMIT:
        item = _require_int(raw, "item")
        if item < 0:
            raise RecordError(f"record field 'item' must be >= 0, got {item}")
    count = raw.get("count", 1)
    if type(count) is not int or not count or not -INT64_LIMIT <= count < INT64_LIMIT:
        count = _require_int(raw, "count", default=1)
        if count == 0:
            raise RecordError("record field 'count' must be non-zero")
    time = raw.get("time")
    if time is not None and (type(time) is not int or not 1 <= time < INT64_LIMIT):
        time = _require_int(raw, "time")
        if time < 1:
            raise RecordError(f"record field 'time' must be >= 1, got {time}")
    # ``stream`` and ``item`` are present, so any key past the known
    # ones present is unknown.
    if len(raw) > 2 + ("count" in raw) + ("time" in raw):
        unknown = set(raw) - {"stream", "item", "count", "time"}
        raise RecordError(f"record has unknown fields: {sorted(unknown)}")
    return stream, item, count, time


def parse_record(raw: object) -> IngestRecord:
    """Validate one raw record into an :class:`IngestRecord`; the checks
    and reasons of :func:`record_fields`."""
    return IngestRecord(*record_fields(raw))


def records_from_stream(name: str, stream: Stream) -> Iterator[IngestRecord]:
    """Adapt a materialized :class:`Stream` into per-record form."""
    for update in stream:
        yield IngestRecord(
            stream=name, item=update.item, count=update.count, time=update.time
        )


def read_jsonl_records(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield ``(line_number, raw)`` pairs from a JSON-lines record file.

    Unparsable lines yield a :class:`RecordError` *instance* as ``raw``
    (instead of raising), so the caller's malformed-record policy applies
    uniformly to bad JSON and bad shapes.
    """
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                yield lineno, RecordError(f"line {lineno}: invalid JSON: {exc}")


def read_jsonl_batches(
    path: str | Path, size: int
) -> Iterator[list[object]]:
    """Yield lists of up to ``size`` raw records from a JSON-lines file.

    Chunked form of :func:`read_jsonl_records` for the batch ingestion
    path.  Chunking is purely a framing decision: unparsable lines stay
    *in position* inside their chunk as :class:`RecordError` instances,
    so the runtime's per-record malformed policy (raise / skip /
    quarantine) applies identically however the file is split.
    """
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    batch: list[object] = []
    for _lineno, raw in read_jsonl_records(path):
        batch.append(raw)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch

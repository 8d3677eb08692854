"""Store format v2: checkpoints as append-only columnar generations.

A persistent sketch only ever appends: a PLA segment or a sampled
history entry never changes once emitted.  A store checkpoint therefore
writes only what was appended since the previous one.  A store
directory holds::

    manifest.json            format "repro-store", version 2
    gen-<lo>-<hi>.npz        one generation per save that appended

The manifest carries the store shape, each stream's spec and *tails*
(counters, clocks, totals, RNG state: the mutable part of every sketch,
see :func:`repro.io.serialize.split`; ``null`` for a sketch the stream
does not hold, :func:`held`), and the ordered generation list.
Each generation entry records its file, the sequence range ``(lo, hi]``
it was appended over, its byte length and its CRC32.  The manifest ends
in a ``crc32`` field: the CRC32 of the compact JSON text before it,
closed with ``}`` (:func:`seal_manifest`), so a flipped digit in a tail
is caught like a flipped byte in a generation.

A generation is an uncompressed ``.npz`` of flat numpy columns.  Every
component (a PLA tracker, a sampled history list or a PWC tracker) is
keyed by the seven integers ``(stream, sketch, level, row, column,
sign, copy)``: ``stream`` indexes the manifest's stream list,
``sketch`` is 0 (point; none for a stream with the heavy-hitter
hierarchy), 1 (heavy hitters) or 2 (join), ``level`` is
the hierarchy level (-1 for none, and for the heavy-hitter mass
tracker): level ``l`` counts the ranges ``item >> (l * log2 b)`` of the
stream's ``fanout`` ``b``, a spec field.  A manifest entry without
``fanout`` was written before hierarchies had one: ``b = 2``, and its
hierarchy tail and rows hold one more level, the root, which is read
past.
Per component kind ``<k>`` (``pla``, ``history``, ``pwc``; the layouts
of :mod:`repro.persistence.column_log`):

- ``<k>_new_key`` (int32, n x 7) and ``<k>_new_<field>``: the skeletons
  of components created since the previous generation, in creation
  order;
- ``<k>_run_key`` (int32, r x 8): runs of appended entries, the key
  plus the run length;
- ``<k>_<column>``: the entries of all runs, concatenated in run order.

Every sketch keeps its history in column logs, so a generation is a
slice of each log: the rows past the previous save's watermark, after
the save finalized the log's open runs, grouped into one run per
component by a stable sort (:func:`repro.persistence.column_log.group`).
Only each component's own append order is kept; the order of runs is
the order of their keys.  A save labelled with a sequence number links
the previous such save's generation files into the new directory
(``os.link``: no bytes copied) and writes one new generation holding
the rows past each log's watermark.  Every directory stays
self-contained.  With no
intact base (a fresh store or directory, another filesystem, a missing
file, a save without a sequence number) the same code path writes one
full generation.  A checkpoint never holds more than
:data:`MAX_GENERATIONS`: on the schedule of :func:`merge_start`, a save
merges a run of the newest generations into one by exact concatenation,
and no save's entries are rewritten more than :func:`rewrite_bound`
times.

Store, runtime, fsck, the frozen engine and serving only call this
module; it owns the layout.  The frozen engine reads nothing else: a
live sketch it freezes is first laid out as one in-memory generation
(:func:`sketch_columns`): its logs whole, plus the pending segment of
every open run, with nothing finalized.  Version 1 manifests (one JSON document per
sketch, no CRC) are still accepted by :func:`read_manifest`, for the
store's read-only v1 branch.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Collection, Iterable

import numpy as np

from repro.core.heavy_hitters import fanout_bits
from repro.io import serialize
from repro.io.atomic import atomic_write_bytes, atomic_write_text
from repro.io.serialize import LEGACY_FANOUT, SerializationError, Slot
from repro.persistence import column_log

MANIFEST_NAME = "manifest.json"
FORMAT = "repro-store"
VERSION = 2

#: Generations a checkpoint holds at most (see :func:`merge_start`).
MAX_GENERATIONS = 8

#: Sketch slots of a stream, in key order.
SKETCHES = ("point", "hh", "join")

#: Component kinds a generation carries.
KINDS = column_log.KINDS

_GEN_RE = re.compile(r"^gen-\d{12,}-\d{12,}(?:-\d+)?\.npz$")
_SEAL_RE = re.compile(rb',"crc32":(\d+)\}\Z')

_SPEC_FIELDS = (
    ("name", str),
    ("delta", (int, float)),
    ("heavy_hitters", bool),
    ("joinable", bool),
)


@dataclass(frozen=True)
class Saved:
    """What a committed save leaves for the next one to build on.

    ``marks`` maps a log's ``(stream, sketch, level)`` to the numbers of
    its components and of its rows already written.  A store adopts it only after its directory swap
    commits, so a failed or retried save rewrites the same generation.
    """

    directory: Path
    generations: tuple[dict, ...] = ()
    marks: dict = field(default_factory=dict, repr=False)
    #: Saves that appended a generation since the last full one: the
    #: position on the compaction schedule.
    saves: int = 0
    #: Bytes this save wrote: its new generation, the merged generation
    #: if it compacted, and the manifest.
    bytes_written: int = 0
    #: Of :attr:`bytes_written`, the merged generation's bytes.
    merged_bytes: int = 0


@dataclass(frozen=True)
class Columns:
    """A version 2 checkpoint as read from disk, before any sketch is
    built: its manifest and the arrays of every generation read (CRC
    checked), in manifest order.  A live sketch laid out by
    :func:`sketch_columns` has one generation and no manifest."""

    manifest: dict
    generations: tuple[dict[str, np.ndarray], ...]

    def kinds(self) -> dict[str, KindColumns]:
        """Each component kind's skeletons and entries, by kind name,
        all generations concatenated in order."""
        return {kind.name: KindColumns(kind, self.generations) for kind in KINDS}


@dataclass(frozen=True)
class Table:
    """The components of one table of a checkpoint, every row of one
    ``(stream, sketch, level, sign, copy)``.

    ``rows``, ``cols`` and ``fields`` (by the kind's field names) are
    the skeletons written for them, in creation order; ``entry_rows``,
    ``entry_cols`` and ``entries`` (by the kind's column names) are
    their entries, each component's in append order.
    """

    rows: np.ndarray
    cols: np.ndarray
    fields: dict[str, np.ndarray]
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    entries: dict[str, np.ndarray]


class KindColumns:
    """One component kind's skeletons and entries across a checkpoint's
    generations, cut into :class:`Table` s."""

    def __init__(
        self, kind: Any, generations: tuple[dict[str, np.ndarray], ...]
    ) -> None:
        parts = generations or (_Generation().arrays(),)

        def column(name: str) -> np.ndarray:
            return np.concatenate([part[f"{kind.name}_{name}"] for part in parts])

        self._skeleton_key = column("new_key").astype(np.int64)
        self._fields = {name: column(f"new_{name}") for name in kind.fields}
        run_key = column("run_key").astype(np.int64)
        self._entry_key = np.repeat(run_key[:, :7], run_key[:, 7], axis=0)
        self._entries = {name: column(name) for name in kind.columns}
        self._skeletons = _by_table(self._skeleton_key)
        self._runs = _by_table(self._entry_key)

    def table(self, key: tuple[int, int, int, int, int]) -> Table:
        """The components of table ``key``: (stream, sketch, level, sign,
        copy), a generation key without its row and column."""
        none = np.empty(0, dtype=np.int64)
        skeletons = self._skeletons.get(key, none)
        entries = self._runs.get(key, none)
        return Table(
            self._skeleton_key[skeletons, 3],
            self._skeleton_key[skeletons, 4],
            {name: column[skeletons] for name, column in self._fields.items()},
            self._entry_key[entries, 3],
            self._entry_key[entries, 4],
            {name: column[entries] for name, column in self._entries.items()},
        )


def _by_table(keys: np.ndarray) -> dict[tuple, np.ndarray]:
    """Positions of the generation ``keys`` per table, in key order."""
    if not len(keys):
        return {}
    tables = keys[:, [0, 1, 2, 5, 6]]
    low = tables.min(axis=0)
    codes = np.ravel_multi_index(
        tuple((tables - low).T), tuple(tables.max(axis=0) - low + 1)
    )
    order = np.argsort(codes, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(codes[order])) + 1).tolist(), len(order)]
    return {
        tuple(tables[order[lo]].tolist()): order[lo:hi]
        for lo, hi in zip(bounds, bounds[1:])
    }


# --------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------- #


def read_manifest(directory: str | Path) -> dict:
    """Parse and check ``directory``'s store manifest.

    Accepts versions 1 and 2.  A missing, unparseable or malformed
    manifest (wrong format, unknown version, a missing or mistyped
    field), and a version 2 manifest whose CRC32 is missing or does not
    match its text, raises :class:`SerializationError` naming the path.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        data = path.read_bytes()
        manifest = json.loads(data)
    except OSError as exc:
        raise SerializationError(
            f"{path}: unreadable store manifest: {exc}"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(
            f"{path}: corrupt store manifest: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        raise SerializationError(f"{path}: not a sketch store manifest")
    match = _SEAL_RE.search(data)
    if match is not None:
        if zlib.crc32(data[: match.start()] + b"}") != int(match.group(1)):
            raise SerializationError(f"{path}: store manifest CRC32 mismatch")
        manifest.pop("crc32", None)
    elif manifest.get("version") != 1:
        raise SerializationError(f"{path}: store manifest lacks its CRC32")
    try:
        _check_manifest(manifest)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{path}: malformed store manifest: {type(exc).__name__}: {exc}"
        ) from exc
    return manifest


def seal_manifest(manifest: dict) -> str:
    """The manifest's text: compact JSON ending in the CRC32 of the
    text before it (closed with ``}``).  A ``crc32`` field already in
    ``manifest`` is replaced."""
    body = json.dumps(
        {key: value for key, value in manifest.items() if key != "crc32"},
        separators=(",", ":"),
    )
    return f'{body[:-1]},"crc32":{zlib.crc32(body.encode("utf-8"))}}}'


def _require(mapping: Any, key: str, types: Any) -> Any:
    if not isinstance(mapping, dict):
        raise TypeError(f"expected an object holding {key!r}")
    value = mapping[key]
    if not isinstance(value, types) or (
        types is int and isinstance(value, bool)
    ):
        raise TypeError(f"{key!r} has type {type(value).__name__}")
    return value


def _check_manifest(manifest: dict) -> None:
    version = manifest.get("version")
    if version not in (1, VERSION):
        raise ValueError(f"unsupported store version {version!r}")
    for key in ("width", "depth", "join_width", "seed"):
        _require(manifest, key, int)
    for entry in _require(manifest, "streams", list):
        for key, types in _SPEC_FIELDS:
            _require(entry, key, types)
        if not isinstance(entry.get("universe"), (int, type(None))):
            raise TypeError("'universe' must be an integer or null")
        fanout_bits(entry.get("fanout", LEGACY_FANOUT))
        if version == VERSION:
            _check_tails(entry)
    if version == VERSION:
        for gen in _require(manifest, "generations", list):
            if not _GEN_RE.match(_require(gen, "file", str)):
                raise ValueError(f"bad generation file name {gen['file']!r}")
            seq = _require(gen, "seq", list)
            if len(seq) != 2 or not all(isinstance(s, int) for s in seq):
                raise TypeError("generation 'seq' must be [lo, hi]")
            _require(gen, "bytes", int)
            _require(gen, "crc32", int)


def held(entry: dict) -> dict[str, bool]:
    """Which :data:`SKETCHES` slots a stream with spec ``entry`` holds.

    A stream with the heavy-hitter hierarchy holds no point sketch: the
    hierarchy's level 0 answers its point queries.  Checkpoints written
    before that still carry a point tail and rows for such a stream;
    readers read past them and keep neither.
    """
    hierarchy = entry["heavy_hitters"] or bool(entry.get("quantiles"))
    return {"point": not hierarchy, "hh": hierarchy, "join": entry["joinable"]}


def _check_tails(entry: dict) -> None:
    tails = _require(entry, "tails", dict)
    for slot, present in held(entry).items():
        tail = tails.get(slot)
        if not present:
            continue
        name = _require(tail, "type", str)
        required = serialize.TAIL_FIELDS.get(name)
        if required is None:
            raise ValueError(f"unknown tail type {name!r}")
        missing = [key for key in required if key not in tail]
        if missing:
            raise KeyError(f"{name} tail lacks {missing}")


# --------------------------------------------------------------------- #
# Generation files
# --------------------------------------------------------------------- #


def _arrays_to_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def read_generation(directory: Path, gen: dict) -> dict[str, np.ndarray]:
    """Columns of one generation, after checking its length and CRC."""
    path = directory / gen["file"]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SerializationError(f"{path}: unreadable generation: {exc}") from exc
    problem = _damage(data, gen)
    if problem:
        raise SerializationError(f"{path}: {problem}")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except (OSError, ValueError, KeyError) as exc:
        raise SerializationError(f"{path}: undecodable generation: {exc}") from exc


def _damage(data: bytes, gen: dict) -> str:
    if len(data) != gen["bytes"]:
        return f"generation is {len(data)} bytes, manifest says {gen['bytes']}"
    if zlib.crc32(data) != gen["crc32"]:
        return "generation CRC32 mismatch"
    return ""


def damaged_generations(
    directory: str | Path, manifest: dict, cache: dict | None = None
) -> dict[str, str]:
    """``{file: problem}`` of every generation that is missing, resized
    or fails its CRC.  Nothing is decoded.

    ``cache`` (keyed by inode) lets one pass check a file hard-linked
    into several checkpoints once.
    """
    directory = Path(directory)
    cache = {} if cache is None else cache
    damaged: dict[str, str] = {}
    for gen in manifest.get("generations", ()):
        path = directory / gen["file"]
        try:
            stat = path.stat()
        except OSError as exc:  # sketchlint: disable=SL016 — classification, not suppression: a missing generation becomes a damage verdict
            damaged[gen["file"]] = f"missing: {exc}"
            continue
        key = (stat.st_dev, stat.st_ino, gen["bytes"], gen["crc32"])
        if key not in cache:
            try:
                cache[key] = _damage(path.read_bytes(), gen)
            except OSError as exc:  # sketchlint: disable=SL016 — classification, not suppression: an unreadable generation becomes a damage verdict
                cache[key] = f"unreadable: {exc}"
        if cache[key]:
            damaged[gen["file"]] = cache[key]
    return damaged


def _generation_keys(prefix: tuple[int, int], slot: Slot, keys: np.ndarray) -> np.ndarray:
    """Generation keys ``(stream, sketch, level, row, col, sign, copy)``
    of a slot's log keys."""
    table, col = np.divmod(keys, slot.width)
    table, copy = np.divmod(table, slot.copies)
    row, sign = np.divmod(table, slot.signs)
    fixed = np.broadcast_to([*prefix, slot.level], (len(keys), 3))
    return np.column_stack((fixed, row, col, sign, copy))


class _Generation:
    """Columns accumulating for one new generation."""

    def __init__(self) -> None:
        self.empty = True
        self._parts: dict[str, tuple[list, dict[str, list], list, list[list]]] = {
            kind.name: ([], {name: [] for name in kind.fields}, [], [[] for _ in kind.columns])
            for kind in KINDS
        }

    def add(
        self,
        prefix: tuple[int, int],
        slot: Slot,
        components: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        rows: tuple[np.ndarray, list[np.ndarray]],
    ) -> None:
        """Add a slot's new ``components`` (keys, parameters, initial
        values) and its ``rows`` (keys, columns), grouped into runs."""
        kind = slot.log.kind
        new_keys, fields, run_keys, columns = self._parts[kind.name]
        if components is not None and len(components[0]):
            new_keys.append(_generation_keys(prefix, slot, components[0]))
            for name, values in kind.pack(*components[1:]).items():
                fields[name].append(values)
            self.empty = False
        if len(rows[0]):
            keys, lengths, grouped = column_log.group(*rows)
            run_keys.append(
                np.column_stack((_generation_keys(prefix, slot, keys), lengths))
            )
            for column, values in zip(columns, grouped):
                column.append(values)
            self.empty = False

    def arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for kind in KINDS:
            new_keys, fields, run_keys, columns = self._parts[kind.name]
            out[f"{kind.name}_new_key"] = _stack(new_keys, 7, np.int32)
            for name, dtype in zip(kind.fields, kind.field_dtypes):
                out[f"{kind.name}_new_{name}"] = _stack(fields[name], 0, dtype)
            out[f"{kind.name}_run_key"] = _stack(run_keys, 8, np.int32)
            for name, dtype, values in zip(kind.columns, kind.dtypes, columns):
                out[f"{kind.name}_{name}"] = _stack(values, 0, dtype)
        return out


def _stack(parts: list[np.ndarray], width: int, dtype: Any) -> np.ndarray:
    """``parts`` concatenated as one ``dtype`` column (``width`` > 0:
    a matrix of that many columns)."""
    shape = (0, width) if width else (0,)
    return np.concatenate(parts).astype(dtype) if parts else np.empty(shape, dtype=dtype)


def _gen_name(lo: int, hi: int, taken: Iterable[str]) -> str:
    name = f"gen-{lo:012d}-{hi:012d}.npz"
    taken = set(taken)
    for suffix in itertools.count(1):
        if name not in taken:
            return name
        name = f"gen-{lo:012d}-{hi:012d}-{suffix}.npz"
    raise AssertionError("unreachable")


def _write_generation(
    directory: Path, arrays: dict[str, np.ndarray], lo: int, hi: int,
    taken: Iterable[str],
) -> dict:
    data = _arrays_to_bytes(arrays)
    name = _gen_name(lo, hi, taken)
    atomic_write_bytes(directory / name, data)
    return {"file": name, "seq": [lo, hi], "bytes": len(data), "crc32": zlib.crc32(data)}


@functools.cache
def _capacity(runs: int, rewrites: int) -> int:
    """Saves the schedule takes while holding at most ``runs``
    generations and rewriting no save's entries more than ``rewrites``
    times."""
    if runs == 0:
        return 0
    if rewrites == 0:
        return runs
    # Take capacity(runs, rewrites - 1) saves, merge them all with the
    # next save's generation, then keep that generation and go on with
    # one run fewer.
    return (
        _capacity(runs, rewrites - 1) + 1 + _capacity(runs - 1, rewrites)
    )


def rewrite_bound(saves: int, runs: int = MAX_GENERATIONS) -> int:
    """Times the compaction schedule rewrites any save's entries over a
    chain of ``saves`` appending saves (0 while ``saves <= runs``)."""
    rewrites = 0
    while _capacity(runs, rewrites) < saves:
        rewrites += 1
    return rewrites


def merge_start(saves: int) -> int | None:
    """Where the ``saves``-th appending save of a chain (1-based) merges.

    The save has just added its generation; the generations from the
    returned index to the newest are merged into one, or none when
    ``None``.  This is the binomial schedule for a bounded run count:
    the first ``runs`` (:data:`MAX_GENERATIONS`) saves merge nothing;
    after ``capacity(runs, t)`` saves the next one merges every
    generation, which then stays put while the later saves repeat the
    schedule on ``runs - 1`` runs behind it.  No more than ``runs``
    generations are ever kept, and no save's entries are rewritten more
    than :func:`rewrite_bound` times, whatever their sizes.
    """
    runs, offset = MAX_GENERATIONS, 0
    while saves > runs:
        before = _capacity(runs, rewrite_bound(saves, runs) - 1)
        if saves == before + 1:
            return offset
        saves -= before + 1
        runs -= 1
        offset += 1
    return None


def _merge(
    directory: Path,
    generations: list[dict],
    start: int,
    newest: dict[str, np.ndarray],
) -> int:
    """Merge ``generations[start:]`` into one by exact concatenation,
    in place; ``newest`` holds the last one's columns.  Every other
    generation is read back, so its CRC is checked before it is carried
    forward.  Returns the merged generation's bytes."""
    parts = [read_generation(directory, gen) for gen in generations[start:-1]]
    parts.append(newest)
    merged = {name: np.concatenate([part[name] for part in parts]) for name in newest}
    entry = _write_generation(
        directory, merged, generations[start]["seq"][0],
        generations[-1]["seq"][1], [gen["file"] for gen in generations],
    )
    for gen in generations[start:]:
        (directory / gen["file"]).unlink()
    generations[start:] = [entry]
    return entry["bytes"]


# --------------------------------------------------------------------- #
# Save and open
# --------------------------------------------------------------------- #


def _link_base(directory: Path, base: Saved | None) -> list[dict] | None:
    """Hard-link ``base``'s generations into ``directory``; ``None`` when
    the base is absent or not intact (then nothing stays linked).

    Only sizes are checked here: reading every base generation would
    cost what linking saves.  Their CRCs are checked whenever
    compaction reads them back, and by fsck."""
    if base is None:
        return None
    linked: list[dict] = []
    try:
        for gen in base.generations:
            source = base.directory / gen["file"]
            if source.stat().st_size != gen["bytes"]:
                raise OSError(f"{source} changed size")
            os.link(source, directory / gen["file"])
            linked.append(gen)
    except OSError:  # sketchlint: disable=SL016 — fallback, not suppression: with no linkable base the save writes one full generation
        for gen in linked:
            (directory / gen["file"]).unlink(missing_ok=True)
        return None
    return linked


def write(
    header: dict,
    streams: list[tuple[dict, dict[str, Any]]],
    directory: str | Path,
    seq: int | None = None,
    base: Saved | None = None,
) -> Saved:
    """Write a store into the empty ``directory``: one new generation
    plus the manifest, on top of ``base``'s generations.

    ``streams`` pairs each stream's spec fields with its sketches (by
    :data:`SKETCHES` slot, ``None`` when absent), in a stable order:
    the stream index is part of every key.  ``seq`` is the sequence
    number the save covers (the runtime passes its WAL position): it
    ends the new generation's range.  A save without it labels that
    range ``(lo, lo + 1]``, so it must not become a base.  Every sketch
    must be flushed; components are finalized here.  Returns the
    :class:`Saved` state the next save builds on, for the caller to
    adopt once ``directory`` is committed.  A base that cannot be
    linked, or whose generation fails its CRC when compaction reads it
    back, is dropped, and the save writes one full generation instead.
    """
    directory = Path(directory)
    if base is not None:
        try:
            return _write(header, streams, directory, seq, base)
        except SerializationError:
            # A damaged base generation is not carried forward: clear
            # the directory and write everything afresh.
            for path in directory.iterdir():
                path.unlink()
    return _write(header, streams, directory, seq, None)


def _write(
    header: dict,
    streams: list[tuple[dict, dict[str, Any]]],
    directory: Path,
    seq: int | None,
    base: Saved | None,
) -> Saved:
    linked = _link_base(directory, base)
    intact = linked is not None and base is not None
    marks = dict(base.marks) if intact else {}
    saves = base.saves if intact else 0
    generations = linked or []
    gen = _Generation()
    entries = []
    for index, (spec, sketches) in enumerate(streams):
        tails: dict[str, Any] = {}
        for slot, sketch in enumerate(SKETCHES):
            live = sketches.get(sketch)
            if live is None:
                tails[sketch] = None
                continue
            tail, found = serialize.split(live)
            tails[sketch] = tail
            for log_slot in found:
                _append_slot(gen, marks, (index, slot), log_slot)
        entries.append({**spec, "tails": tails})
    lo = generations[-1]["seq"][1] if generations else 0
    hi = max(lo, seq) if seq is not None else lo + 1
    written = merged = 0
    if not gen.empty:
        arrays = gen.arrays()
        generations.append(
            _write_generation(
                directory, arrays, lo, hi, [g["file"] for g in generations]
            )
        )
        written = generations[-1]["bytes"]
        saves += 1
        start = merge_start(saves)
        if start is not None:
            merged = _merge(directory, generations, start, arrays)
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        **header,
        "streams": entries,
        "generations": generations,
    }
    text = seal_manifest(manifest)
    atomic_write_text(directory / MANIFEST_NAME, text)
    return Saved(
        directory, tuple(generations), marks, saves,
        bytes_written=written + merged + len(text.encode("utf-8")),
        merged_bytes=merged,
    )


def _append_slot(
    gen: _Generation,
    marks: dict | None,
    prefix: tuple[int, int],
    slot: Slot,
) -> None:
    """Add a log's components and rows past its watermarks in ``marks``
    (a save: open runs are finalized first), or, with no ``marks``, all
    of them plus the open runs' pending segments (a live freeze: nothing
    is finalized)."""
    log = slot.log
    mark = prefix + (slot.level,)
    known, written = (marks or {}).get(mark, (0, 0))
    if marks is not None:
        log.finalize_open()
        if (known, written) == (len(log.component_keys), len(log)):
            return  # nothing new since the watermark
    keys, columns = log.entries(written)
    if marks is None:
        pending_keys, pending = log.pending()
        keys = np.concatenate((keys, pending_keys))
        columns = [np.concatenate(pair) for pair in zip(columns, pending)]
    gen.add(
        prefix, slot, None if slot.fixed else log.components(known), (keys, columns)
    )
    if marks is not None:
        marks[mark] = (len(log.component_keys), len(log))


def sketch_columns(slots: Iterable[Slot]) -> Columns:
    """One live sketch's :func:`~repro.io.serialize.slots` as the
    columns of a checkpoint of one stream: every log in full, plus each
    open run's pending segment, in one in-memory generation under
    stream 0, sketch slot 0.  Nothing is finalized or written."""
    gen = _Generation()
    for slot in slots:
        _append_slot(gen, None, (0, 0), slot)
    return Columns({}, (gen.arrays(),))


def read_columns(
    directory: str | Path, manifest: dict, without: Collection[str] = ()
) -> Columns:
    """Read a v2 store directory's generations without building any
    sketch.  Generation files named in ``without`` are left out; every
    other one must pass its length and CRC check, or
    :class:`SerializationError` is raised."""
    directory = Path(directory)
    return Columns(
        manifest,
        tuple(
            read_generation(directory, gen)
            for gen in manifest["generations"]
            if gen["file"] not in without
        ),
    )


def read(
    directory: str | Path,
    manifest: dict,
    without: Collection[str] = (),
    columns: list[Columns] | None = None,
) -> list[tuple[dict, dict[str, Any]]]:
    """Decode a v2 store directory: ``(spec fields, sketches)`` per
    stream, in manifest order.

    Generations are read as by :func:`read_columns` (their entries are
    lost when left out; a component whose skeleton they held is rebuilt
    with default parameters).  A ``columns`` list receives the
    :class:`Columns` read, so a frozen view can be built from them
    without reading the generations again.
    """
    directory = Path(directory)
    try:
        decoded = read_columns(directory, manifest, without)
        streams, slots = _shells(manifest)
        for arrays in decoded.generations:
            _apply(arrays, slots)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SerializationError(
            f"{directory}: malformed store: {type(exc).__name__}: {exc}"
        ) from exc
    if columns is not None:
        columns.append(decoded)
    return streams


def _shells(manifest: dict) -> tuple[list, dict]:
    """Each stream's sketches rebuilt from their tails, and their log
    slots by ``(stream, sketch, level)``.  A tail the stream no longer
    holds (:func:`held`) is rebuilt only to know its slots, which map to
    ``None``, as do a legacy hierarchy's root level's:
    :func:`_apply` reads past their rows."""
    streams = []
    slots: dict[tuple, Slot | None] = {}
    for index, entry in enumerate(manifest["streams"]):
        sketches: dict[str, Any] = {}
        keep = held(entry)
        for slot, name in enumerate(SKETCHES):
            tail = entry["tails"].get(name)
            if tail is None:
                sketches[name] = None
                continue
            sketch, found = serialize.shell(tail, entry.get("fanout"))
            sketches[name] = sketch if keep[name] else None
            for log_slot in found:
                slots[(index, slot, log_slot.level)] = (
                    log_slot if keep[name] else None
                )
            for level in range(len(found) - 1, len(tail.get("levels", ()))):
                slots[(index, slot, level)] = None
        spec = {key: value for key, value in entry.items() if key != "tails"}
        streams.append((spec, sketches))
    return streams, slots


def _apply(arrays: dict[str, np.ndarray], slots: dict) -> None:
    """Append one generation's components and rows, in file order, one
    log at a time: each log's new components built from their packed
    parameters and initial values, its rows in one bulk load and each
    component's positions as a range.  Components and rows of a log
    whose slot is ``None`` are read past."""
    for kind in KINDS:
        keys = arrays[f"{kind.name}_new_key"].astype(np.int64)
        params, initials = kind.unpack(
            {name: arrays[f"{kind.name}_new_{name}"] for name in kind.fields}
        )
        for lo, hi in _stretches(keys):
            slot = slots[tuple(keys[lo, :3].tolist())]
            if slot is not None:
                row, col, sign, copy = keys[lo:hi, 3:].T
                slot.create(
                    slot.table(row, sign, copy).tolist(), col.tolist(),
                    params[lo:hi].tolist(), initials[lo:hi].tolist(),
                )
        runs = arrays[f"{kind.name}_run_key"].astype(np.int64)
        columns = [arrays[f"{kind.name}_{name}"] for name in kind.columns]
        firsts = np.concatenate(([0], np.cumsum(runs[:, 7])))
        for lo, hi in _stretches(runs):
            slot = slots[tuple(runs[lo, :3].tolist())]
            if slot is not None:
                _load_runs(slot, runs[lo:hi], firsts[lo:hi], columns)


def _stretches(keys: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each stretch of consecutive generation ``keys``
    of one log, one ``(stream, sketch, level)``."""
    if not len(keys):
        return []
    cuts = np.flatnonzero(np.any(np.diff(keys[:, :3], axis=0) != 0, axis=1)) + 1
    bounds = [0, *cuts.tolist(), len(keys)]
    return list(zip(bounds, bounds[1:]))


def _load_runs(
    slot: Slot, runs: np.ndarray, firsts: np.ndarray, columns: list[np.ndarray]
) -> None:
    """Append runs of one log (rows starting at ``firsts`` of
    ``columns``) and give each component its positions."""
    lengths = runs[:, 7]
    offsets = np.cumsum(lengths) - lengths
    rows = np.repeat(firsts - offsets, lengths) + np.arange(int(lengths.sum()))
    tables = slot.table(runs[:, 3], runs[:, 5], runs[:, 6])
    keys = tables * slot.width + runs[:, 4]
    base = slot.log.load(
        np.repeat(keys, lengths), [column[rows] for column in columns]
    )
    pwc = slot.codec is serialize.PWC
    values = slot.log.columns[1]
    times = columns[0][rows].tolist()
    for table, col, offset, length in zip(
        tables.tolist(), runs[:, 4].tolist(), offsets.tolist(), lengths.tolist()
    ):
        component = slot.tables[table].get(col)
        if component is None:  # its skeleton was in a generation left out
            slot.create([table], [col], [slot.param], [0])
            component = slot.tables[table][col]
        component._pos.extend(range(base + offset, base + offset + length))
        component._times += times[offset : offset + length]
        if pwc:
            component._last_recorded = values[base + offset + length - 1]

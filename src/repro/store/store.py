"""A facade managing persistent sketches for many named streams.

``SketchStore`` is the "multiversion data stream system" front door: you
declare what each stream should support (point queries always; heavy
hitters, quantiles and join sizes optionally), feed updates by stream
name, and query any past window.  A stream holds one Count-Min for its
point queries: its own point sketch, or, when it keeps the dyadic
heavy-hitter hierarchy, that hierarchy's level 0 (Section 3.2).
Join-enabled streams automatically share hash functions store-wide (the
Section 4.1 prerequisite), so the join size of any two of them is
queryable.  The whole store round-trips through a
directory of columnar generations via :mod:`repro.io.generations`.
"""

from __future__ import annotations

import os
import shutil
import zlib
from collections.abc import Collection
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.heavy_hitters import PersistentHeavyHitters, fanout_bits
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin
from repro.io import load as load_archive
from repro.io.atomic import replace_directory
from repro.io.generations import LEGACY_FANOUT, Columns, Saved, held, read_manifest
from repro.io.generations import read as load_sketch
from repro.io.generations import write as save_sketch


@dataclass(frozen=True)
class StreamSpec:
    """Declarative configuration of one stream's sketches.

    Attributes
    ----------
    name:
        Stream identifier (must be unique within the store).
    delta:
        Persistence error for all of this stream's sketches.
    universe:
        Required when ``heavy_hitters`` is enabled (sizes the dyadic
        hierarchy); items must lie in ``[0, universe)``.
    heavy_hitters:
        Maintain the dyadic hierarchy for window heavy hitters / top-k.
    joinable:
        Maintain a sampling-based persistent AMS sketch sharing the
        store-wide hash seed, enabling join sizes with every other
        joinable stream (and window self-joins).
    quantiles:
        Answer window rank/quantile queries.  Shares the heavy-hitter
        hierarchy when both are enabled (they use the identical index).
    fanout:
        Children per range of that hierarchy (a power of two ``b``;
        ``ceil(log_b universe)`` levels): 16 feeds a 2^16 universe 4
        levels, not the dyadic 16 (``BENCH_hierarchy.json``).
    """

    name: str
    delta: float
    universe: int | None = None
    heavy_hitters: bool = False
    joinable: bool = False
    quantiles: bool = False
    fanout: int = 16

    def __post_init__(self) -> None:
        fanout_bits(self.fanout)
        if not self.name or "/" in self.name:
            raise ValueError(f"invalid stream name {self.name!r}")
        if (self.heavy_hitters or self.quantiles) and self.universe is None:
            raise ValueError(
                f"stream {self.name!r}: heavy_hitters/quantiles require "
                "a universe"
            )


class _StreamState:
    """A stream's sketches.  ``point_sketch`` is ``None`` when the
    stream keeps the heavy-hitter hierarchy, whose level 0 answers its
    point queries instead."""

    __slots__ = ("spec", "point_sketch", "hh_sketch", "join_sketch")

    def __init__(self, spec, point_sketch, hh_sketch, join_sketch):
        self.spec = spec
        self.point_sketch = point_sketch
        self.hh_sketch = hh_sketch
        self.join_sketch = join_sketch

    @property
    def points(self):
        """The sketch answering point queries (and keeping the clock)."""
        return self.point_sketch if self.point_sketch is not None else self.hh_sketch

    def sketches(self):
        """The stream's sketches, in slot order."""
        for sketch in (self.point_sketch, self.hh_sketch, self.join_sketch):
            if sketch is not None:
                yield sketch


class SketchStore:
    """Persistent sketches for many named streams, one facade.

    Parameters
    ----------
    width, depth:
        Shape of every point/heavy-hitter sketch.
    join_width:
        Shape of the join (AMS) sketches; ``O(1/eps^2)`` semantics, so
        typically wider than ``width``.
    seed:
        Store-wide hash seed; all joinable streams share it.
    """

    def __init__(
        self,
        width: int = 2048,
        depth: int = 5,
        join_width: int = 4096,
        seed: int = 0,
    ):
        self.width = width
        self.depth = depth
        self.join_width = join_width
        self.seed = seed
        self._buffer_window: int | None = None
        self._buffer_mode = "exact"
        self._streams: dict[str, _StreamState] = {}
        # The last committed save, which the next one appends to.
        self._saved: Saved | None = None

    def _sketches(self):
        for state in self._streams.values():
            yield from state.sketches()

    def configure_buffer(
        self, window: int | None, mode: str = "exact"
    ) -> None:
        """Enable/disable the two-stage update buffer on every sketch.

        An execution-layer knob: not persisted by
        :meth:`save` (which flushes first), so pass it again after
        :meth:`open`.  Streams created later inherit the configuration.
        See :mod:`repro.core.buffer` for the exact/coalesce semantics.
        """
        self._buffer_window = window
        self._buffer_mode = mode
        for sketch in self._sketches():
            sketch.configure_buffer(window=window, mode=mode)

    def flush_buffers(self) -> None:
        """Flush every sketch's staged buffered updates."""
        for sketch in self._sketches():
            sketch.flush_buffer()

    # ------------------------------------------------------------------ #
    # Stream management
    # ------------------------------------------------------------------ #

    def create(self, spec: StreamSpec) -> None:
        """Register a stream and build its sketches
        (:func:`~repro.io.generations.held`).

        A stream with the heavy-hitter hierarchy gets no point sketch:
        the hierarchy's level 0 is a Count-Min of the same width, depth
        and Δ over the same items (exact when the universe fits the
        width), so it answers point queries.
        """
        if spec.name in self._streams:
            raise ValueError(f"stream {spec.name!r} already exists")
        keep = held(vars(spec))
        point_sketch = (
            PersistentCountMin(
                width=self.width,
                depth=self.depth,
                delta=spec.delta,
                seed=self.seed,
            )
            if keep["point"]
            else None
        )
        hh_sketch = (
            PersistentHeavyHitters(
                universe=spec.universe,
                width=self.width,
                depth=self.depth,
                delta=spec.delta,
                seed=self.seed + 1,
                fanout=spec.fanout,
            )
            if keep["hh"]
            else None
        )
        join_sketch = (
            PersistentAMS(
                width=self.join_width,
                depth=self.depth,
                delta=spec.delta,
                seed=self.seed,  # shared: mandatory for cross-stream joins
                independent_copies=2,
                # crc32, not hash(): str hashes are salted per process,
                # and the sampling stream must not depend on PYTHONHASHSEED.
                sampling_seed=zlib.crc32(spec.name.encode()) & 0x7FFFFFFF,
            )
            if keep["join"]
            else None
        )
        state = _StreamState(spec, point_sketch, hh_sketch, join_sketch)
        self._streams[spec.name] = state
        if self._buffer_window is not None:
            for sketch in state.sketches():
                sketch.configure_buffer(
                    window=self._buffer_window, mode=self._buffer_mode
                )

    def streams(self) -> list[str]:
        """Names of all registered streams."""
        return sorted(self._streams)

    def _state(self, name: str) -> _StreamState:
        state = self._streams.get(name)
        if state is None:
            raise KeyError(f"unknown stream {name!r}")
        return state

    def clock(self, name: str) -> int:
        """Stream ``name``'s clock: the time of its latest update."""
        return self._state(name).points.now

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def update(  # sketchlint: disable=SL014 — delegates to each sketch's guarded clock via untyped __slots__ state the resolver cannot type
        self, name: str, item: int, count: int = 1, time: int | None = None
    ) -> None:
        """Feed one update into every sketch of stream ``name``.

        When ``time`` is omitted each sketch advances its own clock;
        mixing omitted and explicit times is rejected by the sketches'
        monotonicity checks.
        """
        for sketch in self._state(name).sketches():
            sketch.update(item, count, time)

    def update_batch(self, name: str, times, items, counts) -> None:
        """Feed a strictly-increasing run of updates columnwise into
        every sketch of stream ``name``.

        Bit-identical to the equivalent sequence of :meth:`update` calls
        (the sketches' batch planners guarantee it); timestamps must be
        explicit and strictly increasing — batch validation happens in
        :meth:`~repro.core.base.PersistentSketch.ingest_batch` before
        any sketch state is touched.
        """
        for sketch in self._state(name).sketches():
            sketch.ingest_batch(times, items, counts)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def point(
        self, name: str, item: int, s: float = 0, t: float | None = None
    ) -> float:
        """Window frequency estimate for ``item`` in stream ``name``
        (from the heavy-hitter hierarchy's level 0 when the stream keeps
        one)."""
        return self._state(name).points.point(item, s, t)

    def heavy_hitters(
        self, name: str, phi: float, s: float = 0, t: float | None = None
    ) -> dict[int, float]:
        """Window heavy hitters of stream ``name`` (requires the spec
        to enable them)."""
        state = self._state(name)
        if not state.spec.heavy_hitters or state.hh_sketch is None:
            raise ValueError(
                f"stream {name!r} was not created with heavy_hitters=True"
            )
        return state.hh_sketch.heavy_hitters(phi, s, t)

    def top_k(
        self, name: str, k: int, s: float = 0, t: float | None = None
    ) -> list[tuple[int, float]]:
        """Window top-k of stream ``name``."""
        state = self._state(name)
        if not state.spec.heavy_hitters or state.hh_sketch is None:
            raise ValueError(
                f"stream {name!r} was not created with heavy_hitters=True"
            )
        return state.hh_sketch.top_k(k, s, t)

    def window_mass(
        self, name: str, s: float = 0, t: float | None = None
    ) -> float:
        """Estimate of ``||f_{s,t}||_1`` for stream ``name`` (requires
        the spec to enable heavy hitters, whose hierarchy tracks the
        total mass)."""
        state = self._state(name)
        if state.hh_sketch is None:
            raise ValueError(
                f"stream {name!r} was not created with heavy_hitters=True"
            )
        return state.hh_sketch.window_mass(s, t)

    def quantile(
        self, name: str, phi: float, s: float = 0, t: float | None = None
    ) -> int:
        """Window ``phi``-quantile of stream ``name``'s values."""
        return self._quantiles(name).quantile(phi, s, t)

    def rank(
        self, name: str, value: int, s: float = 0, t: float | None = None
    ) -> float:
        """Estimated number of window elements ``<= value``."""
        return self._quantiles(name).rank(value, s, t)

    def _quantiles(self, name: str):
        from repro.core.quantiles import PersistentQuantiles

        state = self._state(name)
        if not state.spec.quantiles or state.hh_sketch is None:
            raise ValueError(
                f"stream {name!r} was not created with quantiles=True"
            )
        return PersistentQuantiles(hierarchy=state.hh_sketch)

    def self_join_size(
        self, name: str, s: float = 0, t: float | None = None
    ) -> float:
        """Window second frequency moment of stream ``name``."""
        state = self._state(name)
        if state.join_sketch is None:
            raise ValueError(
                f"stream {name!r} was not created with joinable=True"
            )
        return state.join_sketch.self_join_size(s, t)

    def join_size(
        self, left: str, right: str, s: float = 0, t: float | None = None
    ) -> float:
        """Window join size between two joinable streams."""
        left_state, right_state = self._state(left), self._state(right)
        if left_state.join_sketch is None or right_state.join_sketch is None:
            raise ValueError(
                "both streams must be created with joinable=True"
            )
        return left_state.join_sketch.join_size(right_state.join_sketch, s, t)

    def persistence_words(self) -> int:
        """Total persistence space across all streams and sketches."""
        return sum(sketch.persistence_words() for sketch in self._sketches())

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    def save(self, directory: str | Path, seq: int | None = None) -> Path:
        """Write the store to ``directory`` (created if missing).

        The save is atomic at directory granularity: the manifest and
        the new generation are first written into a sibling temp
        directory, fsynced, and only then swapped into place — a crash
        mid-save leaves either the previous complete store or the new
        complete store on disk, never a half-written mix.

        With ``seq`` (the ingest runtime passes the WAL sequence number
        the save covers, which labels the new generation's range), only
        what was appended since the previous such committed save is
        written; earlier generations are hard-linked from there
        (:mod:`repro.io.generations`).  A save without ``seq`` writes
        one full generation and is no base for later saves.
        """
        directory = Path(directory)
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = directory.with_name(f".{directory.name}.saving.{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        # Snapshots must capture every absorbed update: flush each
        # sketch's staged buffer before any sketch is encoded.
        self.flush_buffers()
        try:
            saved = save_sketch(
                {
                    "width": self.width,
                    "depth": self.depth,
                    "join_width": self.join_width,
                    "seed": self.seed,
                },
                self._parts(),
                staging,
                seq,
                self._saved if seq is not None else None,
            )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        replace_directory(staging, directory)
        # Watermarks advance only once the new directory is committed.
        self._saved = (
            replace(saved, directory=directory) if seq is not None else None
        )
        return directory

    @property
    def last_save(self) -> Saved | None:
        """The last committed :meth:`save`, given ``seq``, that later
        saves build on (its directory, generations and the bytes it
        wrote); ``None`` before one, and after a save without ``seq``."""
        return self._saved

    def _parts(self) -> list[tuple[dict, dict]]:
        return [
            (
                {
                    "name": name,
                    "delta": state.spec.delta,
                    "universe": state.spec.universe,
                    "heavy_hitters": state.spec.heavy_hitters,
                    "joinable": state.spec.joinable,
                    "quantiles": state.spec.quantiles,
                    # Only a hierarchy has a fan-out to record.
                    **(
                        {"fanout": state.spec.fanout}
                        if state.hh_sketch is not None
                        else {}
                    ),
                },
                {
                    "point": state.point_sketch,
                    "hh": state.hh_sketch,
                    "join": state.join_sketch,
                },
            )
            for name, state in self._streams.items()
        ]

    @classmethod
    def open(
        cls,
        directory: str | Path,
        without: Collection[str] = (),
        columns: list[Columns] | None = None,
    ) -> "SketchStore":
        """Load a store previously written by :meth:`save`.

        A missing, corrupt or malformed manifest raises
        :class:`~repro.io.SerializationError`, as does a damaged
        generation, so checkpoint recovery can treat any damaged store
        directory uniformly and fall back.  Generation files named in
        ``without`` are left out: recovery opens a checkpoint without a
        damaged generation that fsck accounted as lost.  A ``columns``
        list receives the version 2 directory's decoded generations
        (:class:`~repro.io.generations.Columns`): recovery builds its
        first frozen view from them.  Version 1 directories (one archive
        per sketch) open read-only: the first save of the opened store
        writes version 2.
        """
        directory = Path(directory)
        manifest = read_manifest(directory)
        store = cls(
            width=manifest["width"],
            depth=manifest["depth"],
            join_width=manifest["join_width"],
            seed=manifest["seed"],
        )
        if manifest["version"] == 1:
            streams = _read_v1(directory, manifest)
        else:
            streams = load_sketch(directory, manifest, without, columns)
        for entry, sketches in streams:
            spec = StreamSpec(
                name=entry["name"],
                delta=entry["delta"],
                universe=entry["universe"],
                heavy_hitters=entry["heavy_hitters"],
                joinable=entry["joinable"],
                quantiles=entry.get("quantiles", False),
                fanout=entry.get(
                    "fanout",
                    LEGACY_FANOUT if held(entry)["hh"] else StreamSpec.fanout,
                ),
            )
            store._streams[spec.name] = _StreamState(
                spec, sketches["point"], sketches["hh"], sketches["join"]
            )
        return store


def _read_v1(directory: Path, manifest: dict) -> list[tuple[dict, dict]]:
    """Sketches of a version 1 store: one JSON-gz archive per sketch.
    The point archive of a stream with the heavy-hitter hierarchy is
    not read (:func:`repro.io.generations.held`)."""
    streams = []
    for entry in manifest["streams"]:
        name = entry["name"]
        streams.append(
            (
                entry,
                {
                    sketch: load_archive(directory / f"{name}.{sketch}.json.gz")
                    if present
                    else None
                    for sketch, present in held(entry).items()
                },
            )
        )
    return streams

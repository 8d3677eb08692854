"""Lambda-style serving state: frozen past + live tail over one runtime.

:class:`ServingRuntime` wraps an :class:`~repro.runtime.IngestRuntime`
and serves every read either from an immutable :class:`ServingView`
(a :class:`~repro.engine.frozen.FrozenStoreView` built off a durable
checkpoint) or from the live store under the write lock — never from a
merge of partial answers.  Median-of-rows estimators do not decompose
across a window split, so per-query routing is the only composition
that stays bit-equal to the pure-live answer: a query whose window ends
at or before the frozen clock is answered wholly frozen (bit-equal by
the frozen-engine contract), anything newer is answered wholly live.

Cutover never touches the live store: each view is a frozen view of
the newest checkpoint — whose ``save`` finalized its open runs at a
cadence boundary, exactly as recovery replays it — and the view
reference is swapped atomically.  The first view after a restart is the one recovery
built from the columns it decoded that checkpoint from
(:meth:`IngestRuntime.take_checkpoint_view`); every later view reads
the newest checkpoint's manifest and generations from disk and builds
its tables straight from those columns
(:func:`~repro.engine.frozen.freeze_columns`), with no tracker objects.
Readers on the old view keep it alive; nothing blocks on writers.
"""

from __future__ import annotations

import math
import threading
import time
from pathlib import Path
from typing import Any, Iterable

from repro.engine.frozen import FrozenStoreView, freeze_columns, freeze_store
from repro.io import SerializationError
from repro.io.generations import read_columns, read_manifest
from repro.runtime import IngestRuntime
from repro.server.protocol import BadRequestError
from repro.store import SketchStore
from repro.streams.records import INT64_LIMIT

_MODES = ("auto", "frozen", "live")


def _check_item(item: int) -> int:
    """The ingest rule for read probes, applied before routing so every
    route answers an out-of-range item with the same typed error."""
    if not 0 <= item < INT64_LIMIT:
        raise BadRequestError(f"item must lie in [0, 2**63), got {item}")
    return item


def _check_window(s: float, t: float | None) -> None:
    """Reject a non-finite window endpoint before routing: ``nan``
    compares false against every clock, so it would route live and come
    back as ``nan`` (or a conversion error) instead of a typed error."""
    for name, value in (("s", s), ("t", t)):
        if value is not None and not math.isfinite(value):
            raise BadRequestError(
                f"window endpoint {name} must be finite, got {value}"
            )


def _window_pair(pair: Any) -> tuple[float, float | None]:
    """One ``(s, t)`` window of a read; a non-pair or a non-numeric
    endpoint is a bad request, like a non-finite one."""
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise BadRequestError(f"window must be an (s, t) pair, got {pair!r}")
    s, t = pair
    try:
        out = (float(s), None if t is None else float(t))
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"window endpoints must be numbers, got {pair!r}"
        ) from exc
    _check_window(*out)
    return out


def _checkpoint_view(path: Path) -> FrozenStoreView:
    """Frozen view of the checkpoint at ``path``: built from its manifest
    and generation columns, never from tracker objects.  A version 1
    checkpoint has no columns; it is opened and frozen."""
    manifest = read_manifest(path)
    if manifest["version"] == 1:
        return freeze_store(SketchStore.open(path))
    return freeze_columns(read_columns(path, manifest))


class ServingView:
    """One immutable generation of the frozen past."""

    __slots__ = ("seq", "frozen", "built_at")

    def __init__(self, seq: int, frozen: FrozenStoreView, built_at: float) -> None:
        self.seq = seq
        self.frozen = frozen
        self.built_at = built_at

    def clock(self, stream: str) -> int | None:
        """Frozen stream clock, or None if the view predates the stream."""
        try:
            return self.frozen.clock(stream)
        except KeyError:
            return None


class ServingRuntime:
    """Frozen/live router over one ingest runtime.

    Writes and live reads serialize on one lock; frozen reads touch
    only the immutable view and take no lock at all.  ``maybe_cutover``
    is safe to call from a background ticker thread concurrently with
    both.

    ``freeze_every`` / ``freeze_interval_s`` set the re-freeze cadence
    in records applied past the current view and in wall-clock seconds;
    with neither set, every new checkpoint triggers a cutover.  Views
    only ever advance to checkpoint boundaries, so the frozen horizon
    trails the live tail by up to one checkpoint interval plus the
    configured cadence.

    With the update-buffer tier enabled (``--buffer-window``), both
    serving routes still agree: checkpoint saves flush every sketch's
    buffer before encoding (so the snapshots a cutover freezes already
    contain every buffered update up to their sequence), and live reads
    flush through ``flush_buffer`` on query — frozen and live answers
    for the same horizon stay bit-equal in exact mode, and coalesce-mode
    divergence is bounded by the documented window mass
    (:mod:`repro.core.buffer`).
    """

    def __init__(
        self,
        runtime: IngestRuntime,
        *,
        freeze_every: int | None = None,
        freeze_interval_s: float | None = None,
        clock: Any = time.monotonic,
    ) -> None:
        if freeze_every is not None and freeze_every < 1:
            raise ValueError(f"freeze_every must be >= 1, got {freeze_every}")
        if freeze_interval_s is not None and freeze_interval_s <= 0:
            raise ValueError(
                f"freeze_interval_s must be > 0, got {freeze_interval_s}"
            )
        self.runtime = runtime
        self.freeze_every = freeze_every
        self.freeze_interval_s = freeze_interval_s
        self.cutovers = 0
        self._clock = clock
        self._lock = threading.Lock()  # writers + live reads
        self._cutover_lock = threading.Lock()  # one cutover at a time
        self._view: ServingView | None = None

    # ------------------------------------------------------------------ #
    # Cutover
    # ------------------------------------------------------------------ #

    def view(self) -> ServingView | None:
        """The current frozen view (atomic reference read)."""
        return self._view

    def _newest_checkpoint(self) -> tuple[int, Any] | None:
        checkpoints = IngestRuntime._checkpoints(self.runtime.directory)
        return checkpoints[-1] if checkpoints else None

    def maybe_cutover(self, force: bool = False) -> dict[str, Any]:
        """Swap in a fresh frozen view when the cadence says so.

        Returns a status dict ``{"swapped": bool, "view_seq": int|None,
        "reason": str}``.  A checkpoint that vanishes (pruned) or fails
        to load mid-read is skipped; the next tick sees a newer one.
        """
        with self._cutover_lock:
            current = self._view
            newest = self._newest_checkpoint()
            if newest is None:
                return self._status(False, "no checkpoint on disk yet")
            seq, path = newest
            if current is not None and seq <= current.seq:
                return self._status(False, "view already at newest checkpoint")
            if current is not None and not force:
                due_records = (
                    self.freeze_every is not None
                    and seq - current.seq >= self.freeze_every
                )
                due_clock = (
                    self.freeze_interval_s is not None
                    and self._clock() - current.built_at >= self.freeze_interval_s
                )
                if self.freeze_every is None and self.freeze_interval_s is None:
                    due_records = True  # default cadence: every new checkpoint
                if not (due_records or due_clock):
                    return self._status(False, "cutover cadence not due")
            frozen = self.runtime.take_checkpoint_view(seq)
            if frozen is None:
                try:
                    frozen = _checkpoint_view(path)
                except (SerializationError, OSError) as exc:  # sketchlint: disable=SL016 — checkpoint pruned or damaged mid-load: this tick skips, the next one retries, and the reason is surfaced in the returned status
                    return self._status(False, f"checkpoint unreadable: {exc}")
            self._view = ServingView(seq, frozen, self._clock())
            self.cutovers += 1
            return self._status(True, f"view advanced to checkpoint seq {seq}")

    def _status(self, swapped: bool, reason: str) -> dict[str, Any]:
        view = self._view
        return {
            "swapped": swapped,
            "view_seq": None if view is None else view.seq,
            "reason": reason,
        }

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _route(
        self, stream: str, t: float | None, mode: str
    ) -> tuple[ServingView | None, float | None]:
        """Pick the side that serves this query: ``(view, t)`` or
        ``(None, t)`` for the live store.

        ``t is None`` resolves against the live stream clock *before*
        routing, so "now" means the same instant on either side.  The
        frozen side serves iff its clock covers the resolved ``t`` —
        the record at exactly the freeze tick is inside the snapshot,
        so a boundary query counts it on the frozen side and never
        twice.
        """
        if mode not in _MODES:
            raise BadRequestError(
                f"mode must be one of {'/'.join(_MODES)}, got {mode!r}"
            )
        self.runtime.monitor.check_readable()
        view = None if mode == "live" else self._view
        if view is None:
            if mode == "frozen":
                raise ValueError("no frozen view is available yet")
            return None, t
        resolved = t
        if resolved is None:
            live_clock = self.runtime._clocks.get(stream)
            if live_clock is None:
                return None, None  # unknown stream: live path raises KeyError
            resolved = float(live_clock)
        frozen_clock = view.clock(stream)
        if frozen_clock is not None and float(resolved) <= frozen_clock:
            return view, float(resolved)
        if mode == "frozen":
            raise ValueError(
                f"frozen view (clock {frozen_clock}) cannot serve t={resolved}; "
                f"the window end lies in the live tail"
            )
        return None, float(resolved)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def point(
        self,
        stream: str,
        item: int,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window frequency estimate, frozen- or live-routed."""
        _check_item(item)
        _check_window(s, t)
        view, rt = self._route(stream, t, mode)
        if view is not None:
            return float(view.frozen.point(stream, item, s, rt))
        with self._lock:
            return float(self.runtime.store.point(stream, item, s, rt))

    def point_many(
        self,
        stream: str,
        items: Iterable[int],
        windows: Any = None,
        mode: str = "auto",
    ) -> list[float]:
        """Batched window frequency estimates for one stream.

        ``windows`` is None (full history per probe), one ``(s, t)``
        pair for all probes, or one pair per probe; ``t`` may be None.
        The batch is split by routing mask — frozen-eligible probes go
        through the frozen engine, the rest through the live store — and
        reassembled in input order.  Every item must lie in
        ``[0, 2**63)`` and every window endpoint must be finite
        (:class:`BadRequestError` otherwise, on any route).
        """
        probes = [_check_item(int(item)) for item in items]
        n = len(probes)
        pairs = self._normalize_windows(windows, n)
        if mode not in _MODES:
            raise BadRequestError(
                f"mode must be one of {'/'.join(_MODES)}, got {mode!r}"
            )
        self.runtime.monitor.check_readable()
        live_clock = self.runtime._clocks.get(stream)
        if live_clock is None:
            raise KeyError(f"unknown stream {stream!r}")
        if n == 0:
            return []
        resolved = [
            (float(s), float(live_clock) if t is None else float(t))
            for s, t in pairs
        ]
        view = None if mode == "live" else self._view
        frozen_clock = view.clock(stream) if view is not None else None
        if frozen_clock is None:
            frozen_idx: list[int] = []
        else:
            frozen_idx = [
                i for i in range(n) if resolved[i][1] <= frozen_clock
            ]
        frozen_set = set(frozen_idx)
        live_idx = [i for i in range(n) if i not in frozen_set]
        if mode == "frozen" and live_idx:
            raise ValueError(
                f"frozen view (clock {frozen_clock}) cannot serve "
                f"{len(live_idx)} of {n} probes; their window ends lie in "
                f"the live tail"
            )
        out = [0.0] * n
        if frozen_idx and view is not None:
            answers = view.frozen.point_many(
                stream,
                [probes[i] for i in frozen_idx],
                [resolved[i] for i in frozen_idx],
            )
            for slot, i in enumerate(frozen_idx):
                out[i] = float(answers[slot])
        if live_idx:
            with self._lock:
                for i in live_idx:
                    s, rt = resolved[i]
                    out[i] = float(self.runtime.store.point(stream, probes[i], s, rt))
        return out

    @staticmethod
    def _normalize_windows(windows: Any, n: int) -> list[tuple[float, float | None]]:
        if windows is None:
            return [(0.0, None)] * n
        if (
            isinstance(windows, (tuple, list))
            and len(windows) == 2
            and not isinstance(windows[0], (tuple, list))
        ):
            return [_window_pair(windows)] * n
        if not isinstance(windows, (tuple, list)) or len(windows) != n:
            raise BadRequestError(
                f"expected {n} (s, t) windows, got {windows!r}; pass one "
                f"window per item or a single (s, t) pair"
            )
        return [_window_pair(pair) for pair in windows]

    def heavy_hitters(
        self,
        stream: str,
        phi: float,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> dict[int, float]:
        """Window heavy hitters, frozen- or live-routed."""
        _check_window(s, t)
        view, rt = self._route(stream, t, mode)
        if view is not None:
            hits = view.frozen.heavy_hitters(stream, phi, s, rt)
        else:
            with self._lock:
                hits = self.runtime.store.heavy_hitters(stream, phi, s, rt)
        return {int(item): float(est) for item, est in hits.items()}

    def self_join_size(
        self,
        stream: str,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window second frequency moment, frozen- or live-routed."""
        _check_window(s, t)
        view, rt = self._route(stream, t, mode)
        if view is not None:
            return float(view.frozen.self_join_size(stream, s, rt))
        with self._lock:
            return float(self.runtime.store.self_join_size(stream, s, rt))

    def window_mass(
        self,
        stream: str,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window L1 mass estimate, frozen- or live-routed."""
        _check_window(s, t)
        view, rt = self._route(stream, t, mode)
        if view is not None:
            return float(view.frozen.window_mass(stream, s, rt))
        with self._lock:
            return float(self.runtime.store.window_mass(stream, s, rt))

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def ingest(self, raw: object) -> bool:
        """Apply one raw record through the runtime (WAL-before-apply)."""
        with self._lock:
            return self.runtime.ingest(raw)

    def ingest_batch(self, raws: Iterable[object]) -> int:
        """Apply a batch of raw records; returns the applied count."""
        with self._lock:
            return self.runtime.ingest_batch(raws)

    # ------------------------------------------------------------------ #
    # Admin
    # ------------------------------------------------------------------ #

    def serving_snapshot(self) -> dict[str, Any]:
        """The serving-side status block merged into health/describe."""
        view = self._view
        applied = self.runtime.applied_seq
        return {
            "view_seq": None if view is None else view.seq,
            "view_age_s": None if view is None else self._clock() - view.built_at,
            "tail_records": applied - (0 if view is None else view.seq),
            "cutovers": self.cutovers,
            "freeze_every": self.freeze_every,
            "freeze_interval_s": self.freeze_interval_s,
        }

    def health(self) -> dict[str, Any]:
        """Runtime health plus the serving status block."""
        with self._lock:
            payload = self.runtime.health()
        payload["serving"] = self.serving_snapshot()
        return payload

    def describe(self) -> dict[str, Any]:
        """Runtime description plus the serving status block."""
        with self._lock:
            payload = self.runtime.describe()
        payload["serving"] = self.serving_snapshot()
        return payload

    def fsck(self) -> dict[str, Any]:
        """Scan-only durability audit of the runtime directory."""
        with self._lock:
            return self.runtime.fsck().as_dict()

    def close(self) -> None:
        """Seal the runtime's WAL."""
        with self._lock:
            self.runtime.close()

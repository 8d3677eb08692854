"""Frozen columnar query engine: read-optimized sketch snapshots.

Live persistent sketches answer every historical query with ``O(w)`` or
``O(d)`` independent pure-Python ``bisect`` calls — one per counter
history touched.  The paper's query-time remarks (Sections 3.3/4.2)
motivate *batched* predecessor search; this module is the serving-side
realization of that idea, in the snapshot / read-optimized-view shape of
Rinberg et al.'s concurrent sketches and Hokusai's time-partitioned
sketch serving: ``freeze(sketch)`` compiles a sketch into immutable
columnar numpy state, and the frozen object answers ``point``,
``point_many``, ``self_join_size`` and heavy-hitter queries.

There is one route in and one layout: the keyed generation columns of
:mod:`repro.io.generations`.  A store checkpoint already holds its
histories that way, so ``freeze_columns`` cuts its tables from them
without building a single tracker; ``freeze`` first lays a live
sketch's column logs out as one in-memory generation
(:func:`~repro.io.generations.sketch_columns`) and then cuts its tables
exactly the same way.  Every table is assembled by ``_build_table``.

Reads pay per probe when small and per batch when large.  A vectorized
batch costs a fixed ~350µs of numpy dispatch (much of it Carter-Wegman
hashing) however few its probes, so up to ``_SCALAR_PROBES_MAX`` probes
take a scalar route instead: ``_ScalarPointCache`` keeps the table as
Python lists and answers each probe with two ``bisect`` calls per row.
That covers ``point`` and small ``point_many`` batches; larger batches
resolve through a handful of vectorized ``np.searchsorted`` / gather /
``np.median`` operations.  A heavy-hitter level (``O(b/phi)`` children
at fan-out ``b``) is scored in one call whatever its size: its children
are hashed at once, and each distinct counter they touch is read once
at both window ends, so a level costs at most one read per tracked
counter however many children share them.  The sampled-AMS self-join
locates each row's touched columns once per snapshot and then makes one
vectorized ``eval`` per (sign, copy) table and window endpoint.

Layout
------
The segment/record arrays of *all* tracked counters of *all* rows of a
sketch are concatenated into parallel arrays (``starts``, ``ends``,
``slopes``, ``values``) with two CSR-style indirections: ``row_offsets``
maps a sketch row to its span of counter *slots*, and ``offsets`` maps a
slot to its span of segments.  Predecessor search across every (query,
row, endpoint) probe of a batch uses rank keys: position ``i`` belonging
to slot ``k`` is keyed as ``k * span + (starts[i] - base)``, which is
globally sorted, so a single ``np.searchsorted`` resolves the entire
batch — ``2 * d * n`` probes — at once.

Equality
--------
Frozen answers are **bit-equal** to the live query path (asserted in
``tests/test_frozen.py``): evaluation replays the exact float operations
of the live readers on both routes, and the live self-join paths
accumulate in sorted column order precisely so both paths sum in the
same order.

Freezing reads the live sketch without changing it: an open PLA run
enters the snapshot as the segment it would emit now, which evaluates
identically to the open-run bisector, and stays open in the sketch.
The snapshot is *as of* ``sketch.now``; the live sketch may keep
ingesting afterwards without affecting it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from repro.core.heavy_hitters import (
    PersistentHeavyHitters,
    check_item,
    check_universe,
    descend,
)
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, median_rows
from repro.core.pwc_ams import PWCAMS
from repro.engine.batch import _batch_signs, batch_hash_columns
from repro.io.generations import SKETCHES, Columns, KindColumns, held, sketch_columns
from repro.io.serialize import SerializationError, Slot, shell, slots
from repro.persistence.column_log import HISTORY, PWC, LogKind
from repro.store.sharded import ShardedPersistentSketch

#: Rank-key overflow guard: fall back to per-query bisects when
#: ``n_slots * span`` would not fit comfortably in int64.
_KEY_LIMIT = 2**62

#: Largest probe count answered by the scalar route (``_ScalarPointCache``
#: bisects per probe); above it the vectorized path's fixed numpy cost
#: (~350µs per call, much of it Carter-Wegman hashing) is amortized.
_SCALAR_PROBES_MAX = 64

Window = tuple[float, float]


def _median_floats(vals: list[float]) -> float:
    """``np.median`` of a small 1-D float list, replicated exactly:
    sort, middle element (odd) or mean of the two middles (even)."""
    vals = sorted(vals)
    mid = len(vals) // 2
    if len(vals) % 2:
        return float(vals[mid])
    return float((vals[mid - 1] + vals[mid]) / 2.0)


def _resolve_window(s: float, t: float | None, now: int) -> Window:
    """The window semantics of :meth:`PersistentSketch._resolve_window`."""
    if t is None:
        t = now
    elif t > now:
        raise ValueError(
            f"window end {t} lies beyond the snapshot clock {now}; "
            f"frozen queries cannot extrapolate past freeze time"
        )
    if s < 0:
        s = 0
    if s > t:
        raise ValueError(f"empty window: s={s} > t={t}")
    return s, t


def _window_arrays(
    windows: Window | Sequence[Window] | np.ndarray | None,
    n: int,
    now: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(ss, ts)`` float arrays, one entry per query.

    Vectorized mirror of :func:`_resolve_window`: the same clamp on
    ``s < 0`` and the same raises on ``t > now`` / ``s > t``, applied to
    the whole batch at once.
    """
    if windows is None:
        windows = (0.0, float(now))
    if (
        isinstance(windows, tuple)
        and len(windows) == 2
        and not isinstance(windows[0], tuple)
    ):
        s, t = _resolve_window(windows[0], windows[1], now)
        return np.full(n, float(s)), np.full(n, float(t))
    pairs = np.asarray(windows, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] != n:
        raise ValueError(
            f"expected {n} (s, t) windows, got shape {pairs.shape}; pass "
            f"one window per item or a single (s, t) pair"
        )
    ss = pairs[:, 0].copy()
    ts = pairs[:, 1]
    if (ts > now).any():
        bad = float(ts[ts > now][0])
        raise ValueError(
            f"window end {bad} lies beyond the snapshot clock {now}; "
            f"frozen queries cannot extrapolate past freeze time"
        )
    np.maximum(ss, 0.0, out=ss)
    if (ss > ts).any():
        idx = int(np.argmax(ss > ts))
        raise ValueError(f"empty window: s={ss[idx]} > t={ts[idx]}")
    return ss, ts


class _ColumnTable:
    """Concatenated histories of every tracked counter of a sketch.

    Two flavors share the layout: *segment* tables (PLA/PWC trackers)
    evaluate ``values[i] + slopes[i] * (clamp(t) - starts[i])`` at the
    predecessor position; *history* tables (sampled AMS) evaluate
    ``values[i] + 1/p - 1`` (Equation (1)'s compensated read).

    Slots are counters; ``row_offsets[r] : row_offsets[r + 1]`` is the
    slot span of sketch row ``r``, with ``cols`` sorted within each row.
    """

    __slots__ = (
        "row_offsets",
        "cols",
        "slot_rows",
        "offsets",
        "starts",
        "starts_f",
        "ends_f",
        "slopes",
        "values",
        "initials",
        "compensation",
        "_keys",
        "_base",
        "_span",
        "_col_keys",
        "_col_span",
    )

    def __init__(
        self,
        row_offsets: np.ndarray,
        cols: np.ndarray,
        offsets: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray | None,
        slopes: np.ndarray | None,
        values: np.ndarray,
        initials: np.ndarray,
        compensation: float | None = None,
    ) -> None:
        self.row_offsets = row_offsets
        self.cols = cols
        self.offsets = offsets
        self.starts = starts
        self.starts_f = starts.astype(np.float64)
        self.ends_f = ends.astype(np.float64) if ends is not None else None
        self.slopes = slopes
        self.values = values
        self.initials = initials
        self.compensation = compensation
        # Globally sorted rank keys for one-shot predecessor search.
        self._base = int(starts.min()) if len(starts) else 0
        self._span = (
            (int(starts.max()) - self._base + 2) if len(starts) else 2
        )
        n_slots = len(cols)
        if n_slots and n_slots * self._span < _KEY_LIMIT:
            slot_of_pos = np.repeat(
                np.arange(n_slots, dtype=np.int64), np.diff(offsets)
            )
            self._keys = slot_of_pos * self._span + (starts - self._base)
        else:
            self._keys = None
        # Row-keyed column ids: globally sorted (rows ascend, cols are
        # sorted within each row), so one searchsorted locates every
        # (query, row) probe of a batch at once.
        self._col_span = int(cols.max()) + 1 if n_slots else 1
        self.slot_rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(row_offsets)
        )
        self._col_keys = self.slot_rows * self._col_span + cols

    @property
    def n_rows(self) -> int:
        return len(self.row_offsets) - 1

    def row_cols(self, row: int) -> np.ndarray:
        """Sorted column ids tracked in sketch row ``row``."""
        return self.cols[self.row_offsets[row] : self.row_offsets[row + 1]]

    def row_slots(self, row: int) -> np.ndarray:
        """Global slot indices of sketch row ``row``."""
        return np.arange(
            self.row_offsets[row],
            self.row_offsets[row + 1],
            dtype=np.int64,
        )

    def locate_row(
        self, row: int, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, valid)`` for queried columns of one sketch row."""
        lo = int(self.row_offsets[row])
        hi = int(self.row_offsets[row + 1])
        if hi == lo:  # empty row: point at slot 0, masked out by valid
            return (
                np.zeros(len(cols), dtype=np.int64),
                np.zeros(len(cols), dtype=bool),
            )
        segment = self.cols[lo:hi]
        pos = np.searchsorted(segment, cols)
        clipped = np.minimum(pos, hi - lo - 1)
        valid = (pos < hi - lo) & (segment[clipped] == cols)
        return clipped + lo, valid

    def locate_rows(
        self, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-major ``(slots, valid)`` for an ``(n, d)`` column matrix.

        Output length is ``d * n``: row 0's slots for every query, then
        row 1's, and so on.  The global slot index of a match *is* its
        position among the row-keyed column ids, so a single
        searchsorted resolves all ``d * n`` probes.
        """
        n, d = cols.shape
        total = len(self.cols)
        if total == 0:
            return (
                np.zeros(n * d, dtype=np.int64),
                np.zeros(n * d, dtype=bool),
            )
        qkeys = (
            cols + np.arange(d, dtype=np.int64) * self._col_span
        ).T.ravel()
        pos = np.searchsorted(self._col_keys, qkeys)
        slots = np.minimum(pos, total - 1)
        # A column past every tracked one would alias into the next row.
        valid = (
            (pos < total)
            & (self._col_keys[slots] == qkeys)
            & (cols < self._col_span).T.ravel()
        )
        return slots, valid

    def _predecessors(self, slots: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Global predecessor positions (largest start <= t); -1 if none."""
        lo = self.offsets[slots]
        if self._keys is not None:
            # floor() == int64 truncation here: resolved times are >= 0.
            rel = np.minimum(
                ts.astype(np.int64) - self._base, self._span - 1
            )
            np.maximum(rel, -1, out=rel)
            pos = (
                np.searchsorted(
                    self._keys, slots * self._span + rel, side="right"
                )
                - 1
            )
        else:  # rank keys would overflow: per-query bisects
            hi = self.offsets[slots + 1]
            starts = self.starts
            pos = np.empty(len(slots), dtype=np.int64)
            for i in range(len(slots)):
                pos[i] = (
                    int(lo[i])
                    + np.searchsorted(
                        starts[int(lo[i]) : int(hi[i])], ts[i], side="right"
                    )
                    - 1
                )
        return np.where(pos < lo, -1, pos)

    def eval(
        self, slots: np.ndarray, valid: np.ndarray, ts: np.ndarray
    ) -> np.ndarray:
        """Counter values at ``ts``; 0.0 for untracked columns."""
        if len(self.cols) == 0 or len(slots) == 0:
            return np.zeros(len(slots), dtype=np.float64)
        if len(self.starts) == 0:  # counters tracked, none recorded yet
            vals = self.initials[slots]
        else:
            pos = self._predecessors(slots, ts)
            found = pos >= 0
            all_found = bool(found.all())
            idx = pos if all_found else np.where(found, pos, 0)
            if self.compensation is None:
                st = self.starts_f[idx]
                tc = np.minimum(np.maximum(ts, st), self.ends_f[idx])
                vals = self.values[idx] + self.slopes[idx] * (tc - st)
            else:
                vals = (self.values[idx] + self.compensation) - 1.0
            if not all_found:
                vals = np.where(found, vals, self.initials[slots])
        if bool(valid.all()):
            return vals
        return np.where(valid, vals, 0.0)

    def window_eval_rows(
        self,
        slots: np.ndarray,
        valid: np.ndarray,
        ss: np.ndarray,
        ts: np.ndarray,
        s_mask: np.ndarray,
    ) -> np.ndarray:
        """``value(t) - (value(s) if s > 0 else 0.0)``, shape ``(d, n)``.

        ``slots``/``valid`` are the row-major output of
        :meth:`locate_rows`; both window endpoints of every (query, row)
        probe go through a single predecessor search.  The per-probe
        float operations match the live reader exactly, so answers stay
        bit-equal.
        """
        n = len(ss)
        d = self.n_rows
        both = self.eval(
            np.concatenate((slots, slots)),
            np.concatenate((valid, valid)),
            np.concatenate((np.tile(ts, d), np.tile(ss, d))),
        )
        high = both[: d * n].reshape(d, n)
        low = np.where(s_mask, both[d * n :].reshape(d, n), 0.0)
        return high - low

    def eval_row_all(self, row: int, t: float) -> np.ndarray:
        """Values of every tracked counter of one row at scalar ``t``."""
        slots = self.row_slots(row)
        ts = np.full(len(slots), float(t))
        return self.eval(slots, np.ones(len(slots), dtype=bool), ts)


class _ScalarPointCache:
    """Plain-Python mirror of a segment table for one-probe ``point``.

    The vectorized path pays ~150µs of numpy dispatch (array wrapping,
    unique-dedup, fancy indexing) per call even for a single probe; a
    scalar probe needs two ``bisect`` calls and a handful of float ops
    per row.  Values replicate :meth:`_ColumnTable.eval` exactly — same
    truncation, clamp and multiply-add on the same floats — so the fast
    path stays bit-equal to ``point_many`` (pinned by tests).

    Built lazily on the first scalar ``point`` call; costs one pass over
    the table (tolist) and is dropped from nothing — frozen tables are
    immutable.
    """

    __slots__ = (
        "slot_of",
        "offsets",
        "starts",
        "starts_f",
        "ends_f",
        "slopes",
        "values",
        "initials",
    )

    def __init__(self, table: _ColumnTable) -> None:
        self.slot_of: list[dict[int, int]] = []
        for row in range(table.n_rows):
            lo = int(table.row_offsets[row])
            cols = table.row_cols(row).tolist()
            self.slot_of.append(
                {col: lo + i for i, col in enumerate(cols)}
            )
        self.offsets = table.offsets.tolist()
        self.starts = table.starts.tolist()
        self.starts_f = table.starts_f.tolist()
        self.ends_f = table.ends_f.tolist()
        self.slopes = table.slopes.tolist()
        self.values = table.values.tolist()
        self.initials = table.initials.tolist()

    def value_at(self, slot: int, t: float) -> float:
        """Counter value at ``t`` — scalar replay of ``eval``."""
        lo = self.offsets[slot]
        # int() truncates like eval's astype(int64); resolved t >= 0.
        pos = bisect_right(self.starts, int(t), lo, self.offsets[slot + 1]) - 1
        if pos < lo:
            return self.initials[slot]
        st = self.starts_f[pos]
        tc = min(max(float(t), st), self.ends_f[pos])
        return self.values[pos] + self.slopes[pos] * (tc - st)

    def window_diffs(
        self, cols: Sequence[int], s: float, t: float
    ) -> list[float]:
        """``value(t) - (value(s) if s > 0 else 0.0)`` per sketch row.

        One fused loop over the rows with :meth:`value_at` inlined —
        the per-row call pair costs more than the bisects on this path,
        which runs once per scalar ``point``.  Untracked columns
        contribute 0.0, exactly like ``eval``'s invalid slots.
        """
        offsets = self.offsets
        starts = self.starts
        starts_f = self.starts_f
        ends_f = self.ends_f
        slopes = self.slopes
        values = self.values
        initials = self.initials
        ti, tf = int(t), float(t)
        si, sf = int(s), float(s)
        take_low = s > 0
        diffs = []
        for row, col in enumerate(cols):
            slot = self.slot_of[row].get(col)
            if slot is None:
                diffs.append(0.0)
                continue
            lo = offsets[slot]
            hi = offsets[slot + 1]
            pos = bisect_right(starts, ti, lo, hi) - 1
            if pos < lo:
                high = initials[slot]
            else:
                st = starts_f[pos]
                tc = min(max(tf, st), ends_f[pos])
                high = values[pos] + slopes[pos] * (tc - st)
            if take_low:
                pos = bisect_right(starts, si, lo, hi) - 1
                if pos < lo:
                    high -= initials[slot]
                else:
                    st = starts_f[pos]
                    tc = min(max(sf, st), ends_f[pos])
                    high -= values[pos] + slopes[pos] * (tc - st)
            diffs.append(high)
        return diffs


def _export(kind: LogKind, entries: dict[str, np.ndarray]) -> tuple:
    """Table columns ``(starts, ends, slopes, values)`` of a kind's rows.

    PLA segments are taken verbatim.  A PWC record is a zero-slope point
    segment: read clamped to ``[start, end]`` it evaluates like
    :meth:`~repro.pla.piecewise_constant.OnlinePWC.value_at`.  A history
    entry has no extent (``ends``/``slopes`` None) and a float value: a
    read adds the ``1/p - 1`` compensation of Equation (1).
    """
    if kind is HISTORY:
        return entries["times"], None, None, entries["values"].astype(np.float64)
    if kind is PWC:
        times = entries["times"]
        return times, times, np.zeros(len(times)), entries["values"]
    return (
        entries["t_start"], entries["t_end"], entries["slope"],
        entries["value_at_start"],
    )


def _build_table(
    kinds: dict[str, KindColumns],
    prefix: tuple[int, int],
    slot: Slot,
    sign: int,
    copy: int,
    compensation: float | None,
) -> _ColumnTable:
    """The frozen table of the ``(sign, copy)`` components of log
    ``slot`` of sketch ``prefix`` (stream, sketch slot), cut from
    generation columns ``kinds``: a checkpoint's, or a live sketch's
    (:func:`~repro.io.generations.sketch_columns`).  Every frozen table
    is assembled here.

    A component is the counter keyed ``(row, col)``.  Its skeleton is
    in the columns, or in the slot for a fixed one; one whose skeleton
    was in a generation left out is rebuilt with default parameters and
    starts from 0.  Slots are the components sorted by key, and a stable
    sort of the entries (each component's in append order) by slot gives
    the per-counter CSR layout.  Segment tables evaluate
    ``ends``/``slopes``; history tables pass ``compensation``.
    """
    kind = slot.log.kind
    n_rows = len(slot.tables) // (slot.signs * slot.copies)
    table = kinds[kind.name].table(prefix + (slot.level, sign, copy))
    fixed = (
        {(0, col): c.initial_value for col, c in slot.tables[0].items()}
        if slot.fixed
        else {}
    )
    fixed_key = np.array(list(fixed), dtype=np.int64).reshape(-1, 2)
    row_ids = np.concatenate((table.rows, fixed_key[:, 0]))
    cols = np.concatenate((table.cols, fixed_key[:, 1]))
    span = int(max(cols.max(initial=0), table.entry_cols.max(initial=0))) + 1
    keys = row_ids * span + cols
    entry_keys = table.entry_rows * span + table.entry_cols
    orphans = np.setdiff1d(entry_keys, keys)
    keys = np.concatenate((keys, orphans))
    initials = np.concatenate(
        (kind.unpack(table.fields)[1], list(fixed.values()), np.zeros(len(orphans)))
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    slot_of = np.searchsorted(keys, entry_keys)
    by_slot = np.argsort(slot_of, kind="stable")
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot_of, minlength=len(keys)), out=offsets[1:])
    starts, ends, slopes, values = _export(kind, table.entries)
    return _ColumnTable(
        np.searchsorted(keys, np.arange(n_rows + 1, dtype=np.int64) * span),
        keys % span,
        offsets,
        starts[by_slot],
        None if ends is None else ends[by_slot],
        None if slopes is None else slopes[by_slot],
        values[by_slot],
        initials[order].astype(np.float64),
        compensation,
    )


# --------------------------------------------------------------------- #
# Frozen sketches
# --------------------------------------------------------------------- #


def _expand_unique(
    d: int, u: int, inv: np.ndarray
) -> np.ndarray:
    """Gather indices mapping row-major unique-item probes to the batch.

    Skewed workloads repeat items heavily; hashing and slot location run
    once per distinct item and fan back out with this index.
    """
    return (
        np.arange(d, dtype=np.intp)[:, None] * u + inv[None, :]
    ).ravel()


class FrozenCountMin:
    """Frozen :class:`PersistentCountMin` / :class:`PWCCountMin` snapshot."""

    def __init__(self, sketch: PersistentCountMin, table: _ColumnTable) -> None:
        self.width = sketch.width
        self.depth = sketch.depth
        self.now = sketch.now
        self.name = f"frozen({sketch.name})"
        self.hashes = sketch.hashes
        self._table = table
        self._scalar_cache: _ScalarPointCache | None = None
        self._slot_map: np.ndarray | None = None

    # -- point ---------------------------------------------------------- #

    def _scalar_points(
        self,
        items: Sequence[int],
        ss: Iterable[float],
        ts: Iterable[float],
    ) -> list[float]:
        """Per-probe estimates over resolved windows, one scalar probe
        at a time — bit-equal to the vectorized path (pinned by tests)
        and cheaper than it for up to ``_SCALAR_PROBES_MAX`` probes."""
        cache = self._scalar_cache
        if cache is None:
            cache = self._scalar_cache = _ScalarPointCache(self._table)
        buckets = self.hashes.buckets
        return [
            _median_floats(cache.window_diffs(buckets(item), s, t))
            for item, s, t in zip(items, ss, ts)
        ]

    def point_many(
        self,
        items: Sequence[int] | np.ndarray,
        windows: Window | Sequence[Window] | np.ndarray | None = None,
    ) -> np.ndarray:
        """``point`` over many (item, window) probes.

        ``windows`` is a single ``(s, t)`` pair applied to every item, a
        sequence (or ``(n, 2)`` array) of per-item pairs, or ``None``
        for ``(0, now]``.  Bit-equal to calling :meth:`point` per probe.
        Batches of at most ``_SCALAR_PROBES_MAX`` non-negative items take
        the scalar route; larger ones (and negative items, whose hash
        error the vectorized path raises) go through one vectorized pass.
        """
        items = np.asarray(items, dtype=np.int64)
        n = len(items)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        ss, ts = _window_arrays(windows, n, self.now)
        if n <= _SCALAR_PROBES_MAX:
            probes = items.tolist()
            if min(probes) >= 0:
                return np.array(
                    self._scalar_points(probes, ss.tolist(), ts.tolist()),
                    dtype=np.float64,
                )
        unique, inverse = np.unique(items, return_inverse=True)
        cols = batch_hash_columns(self.hashes, unique)
        slots, valid = self._table.locate_rows(cols)
        gather = _expand_unique(self.depth, len(unique), inverse)
        estimates = self._table.window_eval_rows(
            slots[gather], valid[gather], ss, ts, ss > 0
        )
        return np.median(estimates, axis=0)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]``: scalar fast path, bit-equal to
        ``point_many([item], (s, t))`` (no array wrapping or dedup)."""
        s, t = _resolve_window(s, t, self.now)
        return self._scalar_points((item,), (s,), (t,))[0]

    def window_estimates(
        self, items: np.ndarray, s: float = 0, t: float | None = None
    ) -> np.ndarray:
        """:meth:`point` of every item of an int64 array over one window,
        bit-equal to the live
        :meth:`~repro.core.persistent_countmin.PersistentCountMin.window_estimates`.

        The items are hashed in one call and their counters looked up in
        the ``(depth, width)`` slot map; each distinct tracked counter is
        read at both window ends in one ``eval``, and an untracked one
        reads 0.0.  The heavy-hitter descent scores a level with it.
        """
        s, t = _resolve_window(s, t, self.now)
        table = self._table
        slot_map = self._slot_map
        if slot_map is None:
            # Slot -1 (untracked) indexes the zero past the last slot.
            slot_map = np.full((self.depth, self.width), -1, dtype=np.int64)
            slot_map[table.slot_rows, table.cols] = np.arange(len(table.cols))
            self._slot_map = slot_map
        slots = slot_map[
            np.arange(self.depth)[:, None], self.hashes.buckets_many(items)
        ]
        n_slots = len(table.cols)
        touched = np.zeros(n_slots + 1, dtype=bool)
        touched[slots] = True
        read = np.flatnonzero(touched[:n_slots])
        n = len(read)
        both = table.eval(
            np.concatenate((read, read)),
            np.ones(2 * n, dtype=bool),
            np.concatenate((np.full(n, float(t)), np.full(n, float(s)))),
        )
        windows = np.zeros(n_slots + 1, dtype=np.float64)
        windows[read] = both[:n] - (both[n:] if s > 0 else 0.0)
        return median_rows(windows[slots])

    # -- self-join ------------------------------------------------------ #

    def _window_diffs(self, row: int, s: float, t: float) -> np.ndarray:
        high = self._table.eval_row_all(row, t)
        if s > 0:
            high = high - self._table.eval_row_all(row, s)
        return high

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Count-Min style self-join estimate (min over rows)."""
        s, t = _resolve_window(s, t, self.now)
        best = None
        for row in range(self.depth):
            total = 0.0
            for diff in self._window_diffs(row, s, t).tolist():
                total += diff * diff
            if best is None or total < best:
                best = total
        return best or 0.0


class FrozenPWCAMS:
    """Frozen :class:`PWCAMS` snapshot (signed trackers)."""

    def __init__(self, sketch: PWCAMS, table: _ColumnTable) -> None:
        self.width = sketch.width
        self.depth = sketch.depth
        self.now = sketch.now
        self.name = f"frozen({sketch.name})"
        self.buckets = sketch.buckets
        self.signs = sketch.signs
        self._table = table
        self._scalar_cache: _ScalarPointCache | None = None

    def point_many(
        self,
        items: Sequence[int] | np.ndarray,
        windows: Window | Sequence[Window] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized signed ``point`` (median of sign * window counter)."""
        items = np.asarray(items, dtype=np.int64)
        n = len(items)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        ss, ts = _window_arrays(windows, n, self.now)
        unique, inverse = np.unique(items, return_inverse=True)
        cols = batch_hash_columns(self.buckets, unique)
        sgns = _batch_signs(self.signs, unique)[inverse]
        slots, valid = self._table.locate_rows(cols)
        gather = _expand_unique(self.depth, len(unique), inverse)
        estimates = sgns.T * self._table.window_eval_rows(
            slots[gather], valid[gather], ss, ts, ss > 0
        )
        return np.median(estimates, axis=0)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]``: scalar fast path, bit-equal to
        ``point_many([item], (s, t))``."""
        s, t = _resolve_window(s, t, self.now)
        cache = self._scalar_cache
        if cache is None:
            cache = self._scalar_cache = _ScalarPointCache(self._table)
        diffs = cache.window_diffs(self.buckets.buckets(item), s, t)
        sgns = self.signs.signs(item)
        return _median_floats(
            [sgn * diff for sgn, diff in zip(sgns, diffs)]
        )

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Biased self-join estimate (median over rows), as live."""
        s, t = _resolve_window(s, t, self.now)
        row_estimates = []
        for row in range(self.depth):
            diffs = self._table.eval_row_all(row, t)
            if s > 0:
                diffs = diffs - self._table.eval_row_all(row, s)
            total = 0.0
            for diff in diffs.tolist():
                total += diff * diff
            row_estimates.append(total)
        return median(row_estimates)


class FrozenAMS:
    """Frozen :class:`PersistentAMS` snapshot (sampled history lists)."""

    def __init__(
        self, sketch: PersistentAMS, tables: list[list[_ColumnTable]]
    ) -> None:
        self.width = sketch.width
        self.depth = sketch.depth
        self.now = sketch.now
        self.copies = sketch.copies
        self.name = "frozen(Sample)"
        self.buckets = sketch.buckets
        self.signs = sketch.signs
        # _tables[b][copy]: all sketch rows of one (sign, copy) component.
        self._tables = tables
        self._plan: tuple[list[int], list] | None = None

    def point_many(
        self,
        items: Sequence[int] | np.ndarray,
        windows: Window | Sequence[Window] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized ``point`` (Theorem 4.1 estimator) over many probes."""
        items = np.asarray(items, dtype=np.int64)
        n = len(items)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        ss, ts = _window_arrays(windows, n, self.now)
        unique, inverse = np.unique(items, return_inverse=True)
        cols = batch_hash_columns(self.buckets, unique)
        sgns = _batch_signs(self.signs, unique)[inverse]
        d = self.depth
        gather = _expand_unique(d, len(unique), inverse)
        both_t = np.concatenate((np.tile(ts, d), np.tile(ss, d)))
        # Unbiased counter estimate C(t) = pos(t) - neg(t), both window
        # endpoints of every (query, row) probe in one batch per table.
        components = []
        for table in (self._tables[1][0], self._tables[0][0]):
            slots, valid = table.locate_rows(cols)
            slots = slots[gather]
            valid = valid[gather]
            components.append(
                table.eval(
                    np.concatenate((slots, slots)),
                    np.concatenate((valid, valid)),
                    both_t,
                )
            )
        vals = components[0] - components[1]
        # Live counter_estimate returns 0.0 outright for t <= 0.
        vals = np.where(both_t <= 0, 0.0, vals)
        high = vals[: d * n].reshape(d, n)
        low = np.where(ss > 0, vals[d * n :].reshape(d, n), 0.0)
        estimates = sgns.T * (high - low)
        return np.median(estimates, axis=0)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` from the frozen snapshot."""
        s, t = _resolve_window(s, t, self.now)
        return float(self.point_many([item], (s, t))[0])

    def _join_plan(self) -> tuple[list[int], list]:
        """Row bounds and per-table located slots of the self-join.

        Each row's touched columns (the union of copy 0's positive and
        negative histories, sorted like the live path) are concatenated
        row after row; ``bounds[row] : bounds[row + 1]`` is the row's
        span.  For copies 0 and 1, ``(pos, neg)`` holds the
        ``(slots, valid)`` of those columns in the positive and negative
        tables.  Built on the first self-join and kept: the snapshot is
        immutable.
        """
        if self._plan is None:
            row_cols = [
                np.union1d(
                    self._tables[1][0].row_cols(row),
                    self._tables[0][0].row_cols(row),
                )
                for row in range(self.depth)
            ]
            bounds = [0]
            for cols in row_cols:
                bounds.append(bounds[-1] + len(cols))
            located = []
            for copy in (0, 1):
                per_sign = []
                for b in (1, 0):
                    table = self._tables[b][copy]
                    found = [
                        table.locate_row(row, cols)
                        for row, cols in enumerate(row_cols)
                    ]
                    per_sign.append(
                        (
                            np.concatenate([f[0] for f in found]),
                            np.concatenate([f[1] for f in found]),
                        )
                    )
                located.append(per_sign)
            self._plan = (bounds, located)
        return self._plan

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Estimate ``||f_{s,t}||_2^2`` (Theorem 4.2 with f = g).

        One ``eval`` per (sign, copy) table and window endpoint over the
        whole :meth:`_join_plan`; products are summed per row in sorted
        column order with Python ``+=``, exactly like the live path.
        """
        if self.copies < 2:
            raise ValueError(
                "self-join estimation needs independent_copies >= 2"
            )
        s, t = _resolve_window(s, t, self.now)
        bounds, located = self._join_plan()
        size = bounds[-1]

        def counters(copy: int, at: float) -> np.ndarray:
            """Unbiased counter estimates ``C(at) = pos(at) - neg(at)``."""
            if at <= 0:  # live counter_estimate returns 0.0 outright
                return np.zeros(size, dtype=np.float64)
            ts = np.full(size, float(at))
            (pos_slots, pos_valid), (neg_slots, neg_valid) = located[copy]
            pos = self._tables[1][copy].eval(pos_slots, pos_valid, ts)
            return pos - self._tables[0][copy].eval(neg_slots, neg_valid, ts)

        products = None
        for copy in (0, 1):
            window = counters(copy, t)
            if s > 0:
                window = window - counters(copy, s)
            products = window if products is None else products * window
        values = products.tolist()
        row_estimates = []
        for row in range(self.depth):
            total = 0.0
            for value in values[bounds[row] : bounds[row + 1]]:
                total += value
            row_estimates.append(total)
        return median(row_estimates)


class FrozenHeavyHitters:
    """Frozen :class:`PersistentHeavyHitters` (level stack + mass)."""

    def __init__(
        self,
        structure: PersistentHeavyHitters,
        levels: list[FrozenCountMin],
        mass: _ColumnTable,
    ) -> None:
        self.universe = structure.universe
        self.levels = structure.levels
        self._bits = structure._bits
        self.now = structure.now
        self.name = f"frozen({structure.name})"
        self._sketches = levels
        # One tracker read at two points per query: numpy dispatch would
        # cost more than the two bisects.
        self._mass = _ScalarPointCache(mass)

    def window_mass(self, s: float = 0, t: float | None = None) -> float:
        """Estimate of ``||f_{s,t}||_1`` from the frozen mass tracker."""
        s, t = _resolve_window(s, t, self.now)
        high = self._mass.value_at(0, t)
        low = self._mass.value_at(0, s) if s > 0 else 0.0
        return max(high - low, 0.0)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Point estimate from the finest (leaf) frozen level; an item
        outside the universe raises :class:`ValueError`, as live."""
        check_item(item, self.universe)
        s, t = _resolve_window(s, t, self.now)
        return self._sketches[0].point(item, s, t)

    def point_many(
        self,
        items: Sequence[int] | np.ndarray,
        windows: Window | Sequence[Window] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized point estimates from the finest frozen level."""
        items = np.asarray(items, dtype=np.int64)
        check_universe(items, self.universe)
        return self._sketches[0].point_many(items, windows)

    def heavy_hitters(
        self,
        phi: float,
        s: float = 0,
        t: float | None = None,
        max_candidates: int | None = None,
    ) -> dict[int, float]:
        """Heavy-hitter descent, bit-equal to the live structure.

        Same traversal as the live structure (Theorem 3.2,
        :func:`~repro.core.heavy_hitters.descend`); each level is scored
        in one :meth:`FrozenCountMin.window_estimates` call.
        """
        if not 0 < phi < 1:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        s, t = _resolve_window(s, t, self.now)
        threshold = phi * self.window_mass(s, t)
        cap = max_candidates or max(16, math.ceil(4.0 / phi))
        return descend(
            self.levels, self._bits, self.universe, threshold, cap,
            lambda level, ranges: self._sketches[level].window_estimates(
                ranges, s, t
            ),
        )


class FrozenShardedSketch:
    """Frozen :class:`ShardedPersistentSketch`: per-shard frozen snapshots."""

    def __init__(self, store: ShardedPersistentSketch) -> None:
        store.flush_buffer()
        self.shard_length = store.shard_length
        self.now = store.now
        self.name = "frozen(sharded)"
        self._dropped_through = store._dropped_through
        self._shards = {
            shard_id: freeze(shard)
            for shard_id, shard in sorted(store._shards.items())
        }

    def _shard_id(self, time: float) -> int:
        return (int(time) - 1) // self.shard_length

    def _window_shard_spans(
        self, ss: np.ndarray, ts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """First/last shard ids per window, matching the scalar
        ``_shard_id(s + 1)`` / ``_shard_id(t)`` arithmetic.

        ``astype`` truncation equals ``int()`` for the non-negative
        inputs here, and ``(t - 1) // L`` already yields ``first - 1``
        when ``t`` truncates to 0 (empty window), so one expression
        covers both scalar branches.
        """
        firsts = ((ss + 1).astype(np.int64) - 1) // self.shard_length
        lasts = (ts.astype(np.int64) - 1) // self.shard_length
        return firsts, lasts

    def point_many(
        self,
        items: Sequence[int] | np.ndarray,
        windows: Window | Sequence[Window] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized sharded ``point``: per-shard batches, summed.

        Per-shard contributions accumulate in ascending shard order —
        the same order as the live path's ``range(first, last + 1)``
        loop — so totals stay bit-equal.
        """
        items = np.asarray(items, dtype=np.int64)
        n = len(items)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        ss, ts = _window_arrays(windows, n, self.now)
        firsts, lasts = self._window_shard_spans(ss, ts)
        if ((firsts <= self._dropped_through) & (ss < ts)).any():
            raise ValueError(
                "window reaches into expired shards; narrow s past "
                "the retention boundary"
            )
        totals = np.zeros(n, dtype=np.float64)
        for shard_id, shard in self._shards.items():
            start = shard_id * self.shard_length
            end = start + self.shard_length
            local_s = np.maximum(ss, float(start))
            local_t = np.minimum(np.minimum(ts, float(end)), float(shard.now))
            active = (
                (firsts <= shard_id)
                & (lasts >= shard_id)
                & (local_s < local_t)
            )
            if not active.any():
                continue
            idx = np.flatnonzero(active)
            totals[idx] += shard.point_many(
                items[idx],
                np.column_stack((local_s[idx], local_t[idx])),
            )
        return totals

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` from the frozen snapshot."""
        s, t = _resolve_window(s, t, self.now)
        return float(self.point_many([item], (s, t))[0])

    @property
    def shard_count(self) -> int:
        return len(self._shards)


# --------------------------------------------------------------------- #
# Compiler entry point
# --------------------------------------------------------------------- #


def _frozen_sketch(
    sketch: PersistentCountMin | PWCAMS | PersistentAMS | PersistentHeavyHitters,
    found: list[Slot],
    kinds: dict[str, KindColumns],
    prefix: tuple[int, int],
) -> FrozenCountMin | FrozenPWCAMS | FrozenAMS | FrozenHeavyHitters:
    """Frozen form of ``sketch``, live or a checkpoint's shell, given its
    :func:`~repro.io.serialize.slots`: every table is cut from the
    generation columns ``kinds`` of sketch ``prefix`` (stream, sketch
    slot)."""
    if isinstance(sketch, PersistentHeavyHitters):
        mass, *levels = found
        return FrozenHeavyHitters(
            sketch,
            [
                FrozenCountMin(level_sketch, _build_table(kinds, prefix, slot, 0, 0, None))
                for level_sketch, slot in zip(sketch._sketches, levels)
            ],
            _build_table(kinds, prefix, mass, 0, 0, None),
        )
    (slot,) = found
    if isinstance(sketch, PersistentAMS):
        compensation = 1.0 / sketch.probability
        return FrozenAMS(
            sketch,
            [
                [
                    _build_table(kinds, prefix, slot, b, copy, compensation)
                    for copy in range(sketch.copies)
                ]
                for b in range(2)
            ],
        )
    table = _build_table(kinds, prefix, slot, 0, 0, None)
    if isinstance(sketch, PWCAMS):
        return FrozenPWCAMS(sketch, table)
    return FrozenCountMin(sketch, table)


def freeze(
    sketch: PersistentCountMin
    | PWCAMS
    | PersistentAMS
    | PersistentHeavyHitters
    | ShardedPersistentSketch,
) -> (
    FrozenCountMin
    | FrozenPWCAMS
    | FrozenAMS
    | FrozenHeavyHitters
    | FrozenShardedSketch
):
    """Compile a live persistent sketch into a frozen columnar snapshot.

    Flushes staged updates, then lays the sketch's column logs out as
    one in-memory generation (:func:`~repro.io.generations.sketch_columns`,
    which reads open PLA runs' pending segments without finalizing
    them) and cuts its tables from those columns exactly as
    :func:`freeze_columns` cuts a checkpoint's.  The snapshot is as of
    ``sketch.now``; the returned object answers
    ``point`` / ``point_many`` / ``self_join_size`` (and, for the dyadic
    structure, ``heavy_hitters`` / ``window_mass``) with answers
    bit-equal to the live query path at a fraction of the cost.
    """
    flush = getattr(sketch, "flush_buffer", None)
    if callable(flush):
        flush()
    if isinstance(sketch, ShardedPersistentSketch):
        return FrozenShardedSketch(sketch)
    if not isinstance(
        sketch, (PersistentCountMin, PWCAMS, PersistentAMS, PersistentHeavyHitters)
    ):
        raise TypeError(
            f"freeze() does not support {type(sketch).__name__}; supported: "
            f"PersistentCountMin, PWCCountMin, PWCAMS, PersistentAMS, "
            f"PersistentHeavyHitters, ShardedPersistentSketch"
        )
    found = slots(sketch)
    return _frozen_sketch(sketch, found, sketch_columns(found).kinds(), (0, 0))


class FrozenStoreView:
    """Immutable multi-stream query view over a whole sketch store.

    Built by :func:`freeze_store` from a live store, or by
    :func:`freeze_columns` from a checkpoint's columns: every stream's
    point sketch or heavy-hitter hierarchy (whose level 0 then answers
    point queries), and its join sketch where the stream spec enables
    one, in frozen columnar form, keyed by stream name.
    :class:`repro.server.ServingRuntime` serves its frozen route from
    one, built off the newest checkpoint — including while the runtime
    is degraded and refuses writes.

    The view is as-of snapshot time: the live store may keep ingesting
    afterwards without affecting answers here.  Cross-stream
    ``join_size`` and the quantile estimators stay live-only (they need
    the live hierarchy pairing); query them on the store itself.
    """

    def __init__(self, streams: dict[str, tuple]) -> None:
        """``streams`` maps a stream name to its frozen ``(point, hh,
        join)`` sketches, ``None`` where the stream has none; a stream
        without a point sketch answers point queries from ``hh``."""
        self._point: dict = {}
        self._hh: dict = {}
        self._join: dict = {}
        self._clocks: dict = {}
        for name, (point, hh, join) in streams.items():
            self._point[name] = point if point is not None else hh
            if hh is not None:
                self._hh[name] = hh
            if join is not None:
                self._join[name] = join
            self._clocks[name] = int(self._point[name].now)

    def streams(self) -> list:
        """Names of all frozen streams."""
        return sorted(self._point)

    def clock(self, name: str) -> int:
        """Stream clock at snapshot time."""
        self._frozen(self._point, name)
        return self._clocks[name]

    def _frozen(self, table: dict, name: str):
        frozen = table.get(name)
        if frozen is None:
            if name not in self._point:
                raise KeyError(f"unknown stream {name!r}")
            raise ValueError(
                f"stream {name!r} was not created with the sketch this "
                "query needs (heavy_hitters/joinable)"
            )
        return frozen

    def point(
        self, name: str, item: int, s: float = 0, t: float | None = None
    ) -> float:
        """Window frequency estimate, bit-equal to the live path."""
        return self._frozen(self._point, name).point(item, s, t)

    def point_many(
        self,
        name: str,
        items: Sequence[int] | np.ndarray,
        windows: Sequence[tuple],
    ) -> np.ndarray:
        """Vectorized window frequency estimates for one stream."""
        return self._frozen(self._point, name).point_many(items, windows)

    def heavy_hitters(
        self, name: str, phi: float, s: float = 0, t: float | None = None
    ) -> dict:
        """Window heavy hitters (requires ``heavy_hitters=True`` spec)."""
        return self._frozen(self._hh, name).heavy_hitters(phi, s, t)

    def self_join_size(
        self, name: str, s: float = 0, t: float | None = None
    ) -> float:
        """Window second frequency moment (requires ``joinable=True``)."""
        return self._frozen(self._join, name).self_join_size(s, t)

    def window_mass(
        self, name: str, s: float = 0, t: float | None = None
    ) -> float:
        """Estimate of ``||f_{s,t}||_1`` (requires ``heavy_hitters=True``)."""
        return self._frozen(self._hh, name).window_mass(s, t)


def freeze_store(store) -> FrozenStoreView:
    """Freeze every stream of ``store`` into a :class:`FrozenStoreView`.

    Flushes every sketch's staged updates first, then compiles each
    stream's sketches via :func:`freeze`.
    """
    store.flush_buffers()
    streams = {}
    for name in store.streams():
        state = store._state(name)
        streams[name] = tuple(
            None if sketch is None else freeze(sketch)
            for sketch in (state.point_sketch, state.hh_sketch, state.join_sketch)
        )
    return FrozenStoreView(streams)


def freeze_columns(columns: Columns) -> FrozenStoreView:
    """A :class:`FrozenStoreView` of a version 2 checkpoint, built
    straight from its generation columns.

    Each sketch is a shell rebuilt from its manifest tail
    (:func:`repro.io.serialize.shell`) for its shape, clock and hashes;
    its tables are cut from the concatenated generations.  No tracker
    is built, finalized or exported: the checkpoint's save finalized
    every run already.  A tail the stream no longer holds (the point
    sketch of an older checkpoint's hierarchy stream) is left out, as
    :meth:`~repro.store.SketchStore.open` leaves it out.  The view
    equals ``freeze_store`` of the store the same checkpoint opens,
    array for array.  Malformed columns raise
    :class:`~repro.io.SerializationError`.
    """
    try:
        kinds = columns.kinds()
        streams = {}
        for index, entry in enumerate(columns.manifest["streams"]):
            frozen = []
            keep = held(entry)
            for slot, name in enumerate(SKETCHES):
                tail = entry["tails"].get(name)
                if tail is None or not keep[name]:
                    frozen.append(None)
                    continue
                sketch, found = shell(tail, entry.get("fanout"))
                frozen.append(_frozen_sketch(sketch, found, kinds, (index, slot)))
            streams[entry["name"]] = tuple(frozen)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SerializationError(
            f"malformed checkpoint columns: {type(exc).__name__}: {exc}"
        ) from exc
    return FrozenStoreView(streams)

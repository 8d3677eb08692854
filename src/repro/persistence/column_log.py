"""Append-only column logs: the one layout of a sketch's history.

Every finalized piece of counter history is a row of flat machine words,
as the paper counts persistent space (Section 6.2): a PLA segment is
``(t_start, t_end, slope, value_at_start)``, a piecewise-constant record
or a sampled history entry is ``(time, value)``.  A persistent sketch
keeps all rows of one kind in one :class:`ColumnLog`, each tagged with
its component's integer key.  A component appends in its own time order;
rows of different components interleave as ingest reached them, so only
each component's own order is defined.  A tracker keeps its open state
and the log positions and times of its own rows, and reads by
predecessor search over those.  Checkpoints (:mod:`repro.io.generations`), loads and live
freezes work on the log's columns, never on tracker objects.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis import contracts

_DTYPES = {"q": np.dtype(np.int64), "d": np.dtype(np.float64)}


@dataclass(frozen=True)
class LogKind:
    """The row layout of one kind of history, and the skeleton fields a
    generation packs per component (:mod:`repro.io.generations`)."""

    name: str
    columns: tuple[str, ...]
    typecodes: str
    fields: tuple[str, ...]
    field_dtypes: tuple[type, ...]
    #: Machine words per row, per Section 6.2.
    words: int

    @property
    def dtypes(self) -> tuple[np.dtype[Any], ...]:
        return tuple(_DTYPES[code] for code in self.typecodes)

    def pack(
        self, params: np.ndarray, initials: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Skeleton field columns of components ``(param, initial)``.  A
        PLA skeleton's staging fields (``young``, ``t0``, ``v0``,
        ``young_initial``) are written empty: a save finalizes every
        open run, so nothing is ever staged."""
        values = {
            "young": 0, "t0": -1, "v0": 0.0, "young_initial": 0.0,
            self.fields[0]: params, "initial_value": initials,
        }
        return {
            name: np.full(len(params), values[name], dtype=dtype)
            for name, dtype in zip(self.fields, self.field_dtypes)
        }

    def unpack(
        self, fields: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(params, initials)`` of packed skeleton field columns; a PLA
        skeleton with ``young`` set keeps its initial value in
        ``young_initial``."""
        initials = fields["initial_value"]
        if self is PLA:
            initials = np.where(
                fields["young"] != 0, fields["young_initial"], initials
            )
        return fields[self.fields[0]], initials


PLA = LogKind(
    "pla",
    ("t_start", "t_end", "slope", "value_at_start"),
    "qqdd",
    ("delta", "initial_value", "young", "t0", "v0", "young_initial"),
    (np.float64, np.float64, np.int64, np.int64, np.float64, np.float64),
    3,
)
HISTORY = LogKind(
    "history",
    ("times", "values"),
    "qq",
    ("probability", "initial_value"),
    (np.float64, np.int64),
    2,
)
PWC = LogKind(
    "pwc", ("times", "values"), "qd", ("delta", "initial_value"),
    (np.float64, np.float64), 2,
)

#: Every kind, in the order a generation writes them.
KINDS = (PLA, HISTORY, PWC)


def _column(values: array[Any], start: int, dtype: np.dtype[Any]) -> np.ndarray:
    """A numpy copy of ``values[start:]``.  A zero-copy view would pin
    the array's buffer, and the log could not grow while it lived."""
    return np.frombuffer(values, dtype=dtype)[start:].copy()


class ColumnLog:
    """The rows of one kind of history of one sketch.

    ``keys`` and ``columns`` (one ``array`` per column of :attr:`kind`)
    grow together; a row's index is its *position*.  ``open`` maps the
    key of every PLA tracker with an open run to the tracker, so a save
    finalizes only those and a freeze reads their pending segments.
    Each component is also recorded when created (key, parameter -
    ``delta`` or the sampling probability - and initial value): the
    skeletons a generation writes.
    """

    __slots__ = (
        "kind", "keys", "columns", "open",
        "component_keys", "component_params", "component_initials",
    )

    def __init__(self, kind: LogKind) -> None:
        self.kind = kind
        self.keys: array[int] = array("q")
        self.columns: tuple[array[Any], ...] = tuple(
            array(code) for code in kind.typecodes
        )
        self.open: dict[int, Any] = {}
        self.component_keys: array[int] = array("q")
        self.component_params: array[float] = array("d")
        self.component_initials: array[float] = array("d")

    def __len__(self) -> int:
        return len(self.keys)

    def words(self) -> int:
        """Space of every row in machine words (Section 6.2)."""
        return self.kind.words * len(self.keys)

    # -- writing ------------------------------------------------------- #

    def register(self, key: int, param: float, initial: float) -> None:
        """Record a new component's skeleton."""
        self.component_keys.append(key)
        self.component_params.append(param)
        self.component_initials.append(initial)

    def append(self, component: Any, *row: Any) -> None:
        """Append one row of ``component`` (a tracker: its ``key``, the
        positions ``_pos`` and times ``_times`` of its rows, extended
        here); its time must follow theirs."""
        times = component._times
        if times and row[0] <= times[-1]:
            raise ValueError(
                f"rows must be appended in time order: {row[0]} <= {times[-1]}"
            )
        component._pos.append(len(self.keys))
        times.append(row[0])
        self.keys.append(component.key)
        for column, value in zip(self.columns, row):
            column.append(value)

    def extend(self, component: Any, columns: Sequence[Sequence[Any]]) -> None:
        """Append many rows of ``component`` as they come; callers that
        cannot vouch for their time order check it first."""
        start = len(self.keys)
        count = len(columns[0])
        component._pos.extend(range(start, start + count))
        component._times.extend(columns[0])
        self.keys.extend([component.key] * count)
        for column, values in zip(self.columns, columns):
            column.extend(values)

    def load(self, keys: np.ndarray, columns: Sequence[np.ndarray]) -> int:
        """Append rows from numpy columns in bulk; returns the position
        of the first."""
        start = len(self.keys)
        self.keys.frombytes(np.ascontiguousarray(keys, dtype=np.int64).tobytes())
        for column, dtype, values in zip(self.columns, self.kind.dtypes, columns):
            column.frombytes(np.ascontiguousarray(values, dtype=dtype).tobytes())
        return start

    def finalize_open(self) -> None:
        """Close every open run, in ``open`` order: its pending segment
        becomes a row.

        With contracts on, each run closes through its tracker's
        ``finalize``, which checks the segment against Delta.  With them
        off, a PLA log closes its runs in one pass: their rows - what
        each ``OnlinePLA.finalize`` would append - go straight to the
        columns, then each tracker records its row's position and time
        and resets its run.  A row out of time order stops the pass:
        the runs before it are closed, and its tracker's ``finalize``
        raises the log's time-order error.
        """
        trackers = list(self.open.values())
        if self.kind is not PLA or contracts.ENABLED:
            for tracker in trackers:
                tracker.finalize()
            return
        t_start: list[int] = []
        t_end: list[int] = []
        slope: list[float] = []
        value: list[float] = []
        for tracker in trackers:
            t0 = tracker._t0
            times = tracker._times
            if times and t0 <= times[-1]:
                break
            t_start.append(t0)
            if tracker._count == 1:
                t_end.append(t0)
                slope.append(0.0)
                value.append(tracker._first_v)
            else:
                t_end.append(t0 + int(tracker._last_x))
                slope.append(0.5 * (tracker._u_slope + tracker._l_slope))
                value.append(0.5 * (tracker._u_icept + tracker._l_icept))
        closed = len(t_start)
        pos = len(self.keys)
        self.keys.extend([tracker.key for tracker in trackers[:closed]])
        for column, values in zip(self.columns, (t_start, t_end, slope, value)):
            column.extend(values)
        for tracker, t0 in zip(trackers, t_start):
            tracker._pos.append(pos)
            pos += 1
            tracker._times.append(t0)
            tracker._reset_run()
            del self.open[tracker.key]
        if closed < len(trackers):
            trackers[closed].finalize()

    # -- reading ------------------------------------------------------- #

    def segment_at(self, component: Any, t: float) -> float:
        """A PLA component's value at ``t``: its predecessor segment
        evaluated clamped to ``[t_start, t_end]`` (the counter is constant
        between fed points), or its initial value before its first.

        A component keeps its rows' times, as a list, next to their
        positions: the predecessor search bisects that list, since a
        bisect keyed through the log's time column costs several times
        more per read."""
        i = bisect_right(component._times, t)
        value: float
        if not i:
            value = component.initial_value
            return value
        pos = component._pos[i - 1]
        t_start = component._times[i - 1]
        t_end = self.columns[1][pos]
        if t > t_end:
            t = t_end
        elif t < t_start:
            t = t_start
        value = self.columns[3][pos] + self.columns[2][pos] * (t - t_start)
        return value

    def rows(self, component: Any) -> tuple[list[Any], ...]:
        """The columns of ``component``'s rows, as Python lists."""
        positions = component._pos
        return tuple([column[p] for p in positions] for column in self.columns)

    def entries(self, start: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
        """Keys and columns of the rows from ``start`` on (copies)."""
        return _column(self.keys, start, _DTYPES["q"]), [
            _column(column, start, dtype)
            for column, dtype in zip(self.columns, self.kind.dtypes)
        ]

    def pending(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Keys and columns of the open runs' pending segments: the rows
        a finalize would append now, without appending them."""
        found = [
            (key, segment)
            for key, tracker in self.open.items()
            if (segment := tracker.pending()) is not None
        ]
        keys = np.array([key for key, _ in found], dtype=np.int64)
        return keys, [
            np.array([segment[i] for _, segment in found], dtype=dtype)
            for i, dtype in enumerate(self.kind.dtypes)
        ]

    def components(
        self, start: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keys, parameters and initial values of the components created
        from the ``start``-th on, in creation order (copies)."""
        return (
            _column(self.component_keys, start, _DTYPES["q"]),
            _column(self.component_params, start, _DTYPES["d"]),
            _column(self.component_initials, start, _DTYPES["d"]),
        )


def group(
    keys: np.ndarray, columns: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Rows grouped into per-component runs by one stable sort.

    Returns the run keys (ascending), the run lengths and the columns in
    run order; within a run, rows keep their append order.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    lengths = np.diff(np.append(starts, len(ordered)))
    return ordered[starts], lengths, [column[order] for column in columns]

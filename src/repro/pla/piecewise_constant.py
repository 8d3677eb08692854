"""Piecewise-constant counter recording — the Section 2 baseline.

The baseline persistent sketch keeps track of each counter over time but
records a ``(timestamp, value)`` pair only when the counter has deviated
from the last recorded value by more than ``delta``.  Reading at time ``t``
returns the last recorded value at or before ``t`` (the multiversion
predecessor read), which is within ``delta`` of the true counter value.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.analysis import contracts
from repro.persistence.column_log import PWC, ColumnLog


class OnlinePWC:
    """Online recorder: store the counter when it drifts more than ``delta``.

    Parameters
    ----------
    delta:
        Recording threshold.  A value is recorded when
        ``|value - last_recorded| > delta``; the implied read error is at
        most ``delta``.
    initial_value:
        Reference value before any record exists.
    log, key:
        The sketch's PWC log and this counter's key in it; a recorder
        built without one keeps a log of its own.
    """

    __slots__ = (
        "__weakref__", "delta", "initial_value", "log", "key", "_pos",
        "_times", "_last_recorded",
    )

    def __init__(
        self,
        delta: float,
        initial_value: float = 0.0,
        log: ColumnLog | None = None,
        key: int = 0,
    ) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.initial_value = initial_value
        self.log = ColumnLog(PWC) if log is None else log
        self.key = key
        self._pos: array[int] = array("q")
        self._times: list[int] = []
        self._last_recorded = float(initial_value)
        self.log.register(key, self.delta, initial_value)

    @contracts.monotone_timestamps(param="t")
    def feed(self, t: int, value: float) -> None:
        """Observe the counter value at time ``t``; record it if it drifted.

        Non-drifting observations skip the log, so out-of-order times
        between records are invisible to its append check; the
        ``@monotone_timestamps`` contract closes that gap when
        enforcement is on.
        """
        if abs(value - self._last_recorded) > self.delta:
            self.record(t, value)

    def feed_many(
        self, times: Sequence[int], values: Sequence[float]
    ) -> None:
        """Batch :meth:`feed`: observe many ``(t, value)`` pairs at once.

        Bit-identical to the scalar loop.  Under contract enforcement the
        scalar path is kept so ``@monotone_timestamps`` state advances per
        observation; otherwise a fused drift walk skips the per-record
        call overhead (the log still validates each record's order).
        Numpy columns are converted to Python scalars first so the
        recorded pairs never hold numpy scalar types.
        """
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if contracts.ENABLED:
            for t, value in zip(times, values):
                self.feed(t, value)
            return
        delta = self.delta
        last = self._last_recorded
        append = self.log.append
        for t, value in zip(times, values):
            if abs(value - last) > delta:
                append(self, t, value)
                last = value
        self._last_recorded = last

    def value_at(self, t: float) -> float:
        """Last recorded value at or before ``t`` (the multiversion
        predecessor read), or ``initial_value`` before any record."""
        i = bisect_right(self._times, t)
        if not i:
            return self.initial_value
        value: float = self.log.columns[1][self._pos[i - 1]]
        return value

    @contracts.monotone_timestamps(param="t")
    def record(self, t: int, value: float) -> None:
        """Record ``value`` at time ``t`` unconditionally; times must
        strictly increase (the log rejects an out-of-order record)."""
        self.log.append(self, t, value)
        self._last_recorded = value

    def record_count(self) -> int:
        """Number of recorded (time, value) pairs."""
        return len(self._pos)

    def finalize(self) -> None:
        """No open state: PWC records eagerly."""

    def words(self) -> int:
        """Space in machine words (2 per record, per Section 6.2)."""
        return PWC.words * len(self._pos)


def feed_runs(
    trackers: Sequence[OnlinePWC],
    bounds: Sequence[int],
    times: Sequence[int],
    values: Sequence[float],
) -> None:
    """The row feed of :func:`repro.core.columnar.feed_tracked_row`:
    run ``g``, ``times/values[bounds[g]:bounds[g + 1]]``, goes to
    ``trackers[g]`` in one :meth:`OnlinePWC.feed_many` call."""
    for tracker, lo, hi in zip(trackers, bounds, bounds[1:]):
        tracker.feed_many(times[lo:hi], values[lo:hi])

"""Piecewise-constant counter recording — the Section 2 baseline.

The baseline persistent sketch keeps track of each counter over time but
records a ``(timestamp, value)`` pair only when the counter has deviated
from the last recorded value by more than ``delta``.  Reading at time ``t``
returns the last recorded value at or before ``t`` (the multiversion
predecessor read), which is within ``delta`` of the true counter value.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.analysis import contracts

#: Machine words per record (value + timestamp), per Section 6.2.
WORDS_PER_RECORD = 2


class PiecewiseConstantFunction:
    """Read side of a piecewise-constant recording."""

    __slots__ = ("_times", "_values", "initial_value")

    def __init__(self, initial_value: float = 0.0) -> None:
        self._times: list[int] = []
        self._values: list[float] = []
        self.initial_value = initial_value

    def append(self, t: int, value: float) -> None:
        """Record ``value`` at time ``t``; times must strictly increase."""
        if self._times and t <= self._times[-1]:
            raise ValueError(
                f"record times must be strictly increasing: {t} <= "
                f"{self._times[-1]}"
            )
        self._times.append(t)
        self._values.append(value)

    def value_at(self, t: float) -> float:
        """Last recorded value at or before ``t`` (``initial_value`` if none)."""
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            return self.initial_value
        return self._values[idx]

    def __len__(self) -> int:
        return len(self._times)

    def words(self) -> int:
        """Space in machine words (2 per record, per Section 6.2)."""
        return WORDS_PER_RECORD * len(self._times)


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
    """

    __slots__ = ("__weakref__", "delta", "function", "_last_recorded")

    def __init__(self, delta: float, initial_value: float = 0.0) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.function = PiecewiseConstantFunction(initial_value=initial_value)
        self._last_recorded = float(initial_value)

    @contracts.monotone_timestamps(param="t")
    def feed(self, t: int, value: float) -> None:
        """Observe the counter value at time ``t``; record it if it drifted.

        Non-drifting observations skip the store, so out-of-order times
        between records are invisible to :class:`PiecewiseConstantFunction`
        validation; the ``@monotone_timestamps`` contract closes that gap
        when enforcement is on.
        """
        if abs(value - self._last_recorded) > self.delta:
            self.function.append(t, value)
            self._last_recorded = value

    def feed_many(
        self, times: Sequence[int], values: Sequence[float]
    ) -> None:
        """Batch :meth:`feed`: observe many ``(t, value)`` pairs at once.

        Bit-identical to the scalar loop.  Under contract enforcement the
        scalar path is kept so ``@monotone_timestamps`` state advances per
        observation; otherwise a fused drift walk skips the per-record
        call overhead (the recorded function still validates ordering).
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
        append = self.function.append
        for t, value in zip(times, values):
            if abs(value - last) > delta:
                append(t, value)
                last = value
        self._last_recorded = last

    def value_at(self, t: float) -> float:
        """Approximate counter value at time ``t``."""
        return self.function.value_at(t)

    def words(self) -> int:
        """Space in machine words."""
        return self.function.words()

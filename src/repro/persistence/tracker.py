"""Uniform interface over per-counter history compressors.

The PLA-based persistent Count-Min sketch and the PWC baselines differ only
in *how* each counter's history is compressed.  :class:`CounterTracker`
abstracts that choice so a single persistent-sketch wrapper
(:mod:`repro.core`) serves all of PLA / PWC_CountMin / PWC_AMS.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.pla.orourke import OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC


class CounterTracker(ABC):
    """History of one counter, fed on every change, readable at any time."""

    @abstractmethod
    def feed(self, t: int, value: float) -> None:
        """Observe the counter's new value at time ``t``."""

    def feed_many(self, times: Sequence[int], values: Sequence[float]) -> None:
        """Batch :meth:`feed`: observe many time-ordered ``(t, value)`` pairs.

        Bit-identical to the scalar loop by definition; concrete trackers
        override with fused implementations.  Numpy columns are converted
        to Python scalars first so the recorded state never holds numpy
        scalar types.
        """
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if isinstance(values, np.ndarray):
            values = values.tolist()
        for t, value in zip(times, values):
            self.feed(t, value)

    @abstractmethod
    def value_at(self, t: float) -> float:
        """Approximate counter value at time ``t``."""

    @abstractmethod
    def words(self) -> int:
        """Persistence space in machine words."""

    @abstractmethod
    def finalize(self) -> None:
        """Flush any buffered state (end of stream or epoch boundary)."""

    @property
    @abstractmethod
    def initial_value(self) -> float:
        """Counter value before the first recorded segment/record."""


class PLATracker(CounterTracker):
    """Piecewise-linear history with additive error ``delta`` (Section 3)."""

    __slots__ = ("_pla",)

    def __init__(self, delta: float, initial_value: float = 0.0) -> None:
        self._pla = OnlinePLA(delta=delta, initial_value=initial_value)

    def feed(self, t: int, value: float) -> None:
        self._pla.feed(t, value)

    def feed_many(self, times: Sequence[int], values: Sequence[float]) -> None:
        self._pla.feed_many(times, values)

    def value_at(self, t: float) -> float:
        return self._pla.value_at(t)

    def words(self) -> int:
        return self._pla.words()

    def segment_count(self) -> int:
        """Number of PLA segments (open run included)."""
        return self._pla.segment_count()

    def finalize(self) -> None:
        self._pla.finalize()

    @property
    def initial_value(self) -> float:
        return self._pla.function.initial_value


class YoungPLATracker(PLATracker):
    """Slim first-touch tier in front of :class:`PLATracker`.

    High-cardinality streams create a tracker per touched counter, and
    most of those trackers only ever see a handful of updates — there,
    building O'Rourke's full hull machinery on first touch dominates the
    ingest cost (the SF-sketch slim/fat split, PAPERS.md).  A young
    tracker stages the first observation in two slots and materializes
    the backing :class:`~repro.pla.orourke.OnlinePLA` only on the second
    feed or on any cold-path call (finalize, segment counts).

    Exactness: a single staged point answers every query identically to
    a one-point ``OnlinePLA`` — one open run emits no segments, so
    ``words()`` is 0 and ``value_at`` steps from the initial value to
    the staged value at the staged time.  Materialization replays the
    staged point before anything else, so the compressed history is
    bit-identical to eager feeding regardless of when it happens.
    """

    __slots__ = ("_delta", "_initial", "_t0", "_v0")

    def __init__(self, delta: float, initial_value: float = 0.0) -> None:
        # ``_pla`` is deliberately left unset (slim state); ``_t0 < 0``
        # means no observation has been staged yet (stream times are
        # strictly positive integers).
        self._delta = float(delta)
        self._initial = float(initial_value)
        self._t0 = -1
        self._v0 = initial_value

    def _materialize(self) -> OnlinePLA:
        pla = OnlinePLA(delta=self._delta, initial_value=self._initial)
        if self._t0 >= 0:
            pla.feed(self._t0, self._v0)
        self._pla = pla
        return pla

    def feed(self, t: int, value: float) -> None:
        try:
            pla = self._pla
        except AttributeError:
            if self._t0 < 0:
                self._t0 = t
                self._v0 = value
                return
            pla = self._materialize()
        pla.feed(t, value)

    def feed_many(self, times: Sequence[int], values: Sequence[float]) -> None:
        try:
            pla = self._pla
        except AttributeError:
            if self._t0 < 0:
                if len(times) == 0:
                    return
                # Stage exactly what eager ``feed_many`` would feed:
                # numpy scalars unbox to Python ints/floats via tolist().
                first_t, first_v = times[0], values[0]
                self._t0 = (
                    first_t.item() if isinstance(first_t, np.generic) else first_t
                )
                self._v0 = (
                    first_v.item() if isinstance(first_v, np.generic) else first_v
                )
                if len(times) == 1:
                    return
                times = times[1:]
                values = values[1:]
            pla = self._materialize()
        pla.feed_many(times, values)

    def value_at(self, t: float) -> float:
        try:
            return self._pla.value_at(t)
        except AttributeError:
            if self._t0 >= 0 and t >= self._t0:
                return self._v0
            return self._initial

    def words(self) -> int:
        try:
            return self._pla.words()
        except AttributeError:
            return 0  # a lone open run has emitted no segments

    def segment_count(self) -> int:
        try:
            pla = self._pla
        except AttributeError:
            pla = self._materialize()
        return pla.segment_count()

    def finalize(self) -> None:
        try:
            pla = self._pla
        except AttributeError:
            pla = self._materialize()
        pla.finalize()

    @property
    def initial_value(self) -> float:
        return self._initial


class PWCTracker(CounterTracker):
    """Piecewise-constant history with threshold ``delta`` (Section 2)."""

    __slots__ = ("_pwc",)

    def __init__(self, delta: float, initial_value: float = 0.0) -> None:
        self._pwc = OnlinePWC(delta=delta, initial_value=initial_value)

    def feed(self, t: int, value: float) -> None:
        self._pwc.feed(t, value)

    def feed_many(self, times: Sequence[int], values: Sequence[float]) -> None:
        self._pwc.feed_many(times, values)

    def value_at(self, t: float) -> float:
        return self._pwc.value_at(t)

    def words(self) -> int:
        return self._pwc.words()

    def record_count(self) -> int:
        """Number of recorded (time, value) pairs."""
        return len(self._pwc.function)

    def finalize(self) -> None:
        """No buffered state: PWC records eagerly."""

    @property
    def initial_value(self) -> float:
        return self._pwc.function.initial_value

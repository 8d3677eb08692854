"""Read-optimized storage for a piecewise-linear counter approximation."""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Sequence

from repro.pla.segment import WORDS_PER_SEGMENT, Segment


class PiecewiseLinearFunction:
    """An append-only sequence of :class:`Segment` with predecessor lookup.

    Segments are appended in time order by the PLA generator.  Evaluation at
    a query time ``t`` picks the last segment starting at or before ``t``
    and evaluates it clamped to its covered range: between two consecutive
    fed points (and in the gap after a segment's last point) the underlying
    step-function counter is constant, so clamping is the faithful read.
    """

    __slots__ = ("_starts", "_segments", "initial_value")

    def __init__(self, initial_value: float = 0.0) -> None:
        self._starts: list[int] = []
        self._segments: list[Segment] = []
        self.initial_value = initial_value

    def append(self, segment: Segment) -> None:
        """Append ``segment``; its start must follow all existing segments."""
        if self._starts and segment.t_start <= self._starts[-1]:
            raise ValueError(
                f"segments must be appended in time order: "
                f"{segment.t_start} <= {self._starts[-1]}"
            )
        self._starts.append(segment.t_start)
        self._segments.append(segment)

    def value_at(self, t: float) -> float:
        """Approximate counter value at time ``t``.

        Returns ``initial_value`` for times before the first segment.
        """
        idx = bisect_right(self._starts, t) - 1
        if idx < 0:
            return self.initial_value
        return self._segments[idx].evaluate_clamped(t)

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    @property
    def segments(self) -> Sequence[Segment]:
        """The stored segments, in time order."""
        return self._segments

    def words(self) -> int:
        """Space in machine words (3 per segment, per Section 6.2)."""
        return WORDS_PER_SEGMENT * len(self._segments)

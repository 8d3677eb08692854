"""A suboptimal O(1)-state online PLA (swing-filter style), for ablation.

O'Rourke's algorithm (:mod:`repro.pla.orourke`) is optimal in segment
count but keeps two convex hulls per open run.  A classic cheaper
alternative anchors every candidate line at the run's *first* point and
narrows a slope funnel as points arrive: constant state, same +-delta
correctness, but the anchor constraint can force segments the optimal
algorithm avoids.

The ablation benchmark (``benchmarks/bench_ablation_pla.py``) quantifies
what the paper's choice of the optimal algorithm buys: on counter-shaped
inputs the anchored filter typically emits noticeably more segments at
equal delta.
"""

from __future__ import annotations

from array import array

from repro.persistence.column_log import PLA, ColumnLog


class SwingPLA:
    """Anchored slope-funnel PLA with O(1) state per open run.

    Guarantees every fed point lies within ``delta`` of the emitted
    piecewise-linear function (same contract as
    :class:`~repro.pla.orourke.OnlinePLA`), but is not optimal in the
    number of segments.  Emitted segments are rows of a log of its
    own.
    """

    __slots__ = (
        "delta",
        "initial_value",
        "log",
        "_pos",
        "_times",
        "key",
        "_t0",
        "_v0",
        "_last_x",
        "_count",
        "_slope_lo",
        "_slope_hi",
    )

    def __init__(self, delta: float, initial_value: float = 0.0) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.initial_value = initial_value
        self.log = ColumnLog(PLA)
        self.key = 0
        self._pos: array[int] = array("q")
        self._times: list[int] = []
        self.log.register(0, self.delta, initial_value)
        self._reset()

    def _reset(self) -> None:
        self._t0 = 0
        self._v0 = 0.0
        self._last_x = 0.0
        self._count = 0
        self._slope_lo = 0.0
        self._slope_hi = 0.0

    def feed(self, t: int, v: float) -> None:
        """Feed the counter value ``v`` observed at time ``t``."""
        if self._count == 0:
            self._t0, self._v0, self._count = t, v, 1
            return
        x = float(t - self._t0)
        if x <= self._last_x:
            raise ValueError(
                f"feed times must be strictly increasing: {t} after "
                f"{self._t0 + self._last_x}"
            )
        # Slopes through the anchor that keep the new point in the tube.
        lo = (v - self.delta - self._v0) / x
        hi = (v + self.delta - self._v0) / x
        if self._count == 1:
            self._slope_lo, self._slope_hi = lo, hi
        else:
            new_lo = max(self._slope_lo, lo)
            new_hi = min(self._slope_hi, hi)
            if new_lo > new_hi:
                # Emit under the *pre-break* funnel: narrowing first
                # would let the midpoint violate earlier constraints.
                self._emit()
                self._t0, self._v0, self._count = t, v, 1
                self._last_x = 0.0
                return
            self._slope_lo, self._slope_hi = new_lo, new_hi
        self._last_x = x
        self._count += 1

    def _emit(self) -> None:
        slope = (
            0.0
            if self._count == 1
            else 0.5 * (self._slope_lo + self._slope_hi)
        )
        self.log.append(
            self, self._t0, self._t0 + int(self._last_x), slope, self._v0
        )

    def finalize(self) -> array[int]:
        """Emit the pending segment, if any, and return the log positions
        of every emitted segment."""
        if self._count > 0:
            self._emit()
            self._reset()
        return self._pos

    def value_at(self, t: float) -> float:
        """Value of the emitted segments at ``t`` (finalize first to
        include the open run)."""
        return self.log.segment_at(self, t)

    def segment_count(self) -> int:
        """Emitted segments plus the open run, if any."""
        return len(self._pos) + (1 if self._count > 0 else 0)

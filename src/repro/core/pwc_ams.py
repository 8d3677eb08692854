"""The ``PWC_AMS`` baseline (Section 2 applied to the AMS sketch).

Each signed AMS counter is tracked with the record-on-deviation
piecewise-constant recorder.  Works for point queries (error comparable to
the persistent Count-Min baseline), but for join and self-join queries the
deterministic ``Omega(Delta)`` per-counter bias cannot be corrected and is
amplified across the ``w`` counters of a row — the deficiency the
sampling-based persistent AMS sketch exists to fix (Section 4.2).
"""

from __future__ import annotations

from functools import partial
from statistics import median

import numpy as np

from repro.core import columnar
from repro.core.base import PersistentSketch
from repro.hashing import BucketHashFamily, HashConfig, SignHashFamily
from repro.persistence.column_log import PWC, ColumnLog
from repro.pla import piecewise_constant
from repro.pla.piecewise_constant import OnlinePWC


class PWCAMS(PersistentSketch):
    """Piecewise-constant persistent AMS sketch (baseline)."""

    name = "PWC_AMS"

    def __init__(
        self,
        width: int,
        depth: int,
        delta: float,
        seed: int = 0,
    ):
        super().__init__()
        self.width = width
        self.depth = depth
        self.delta = float(delta)
        self.seed = seed
        config = HashConfig(width=width, depth=depth, seed=seed)
        self.buckets = BucketHashFamily(config)
        self.signs = SignHashFamily(config)
        self._counters: list[list[int]] = [
            [0] * width for _ in range(depth)
        ]
        self._trackers: list[dict[int, OnlinePWC]] = [
            {} for _ in range(depth)
        ]
        self._log = ColumnLog(PWC)
        self.total = 0

    def _track(self, row: int, col: int) -> OnlinePWC:
        """Create counter ``(row, col)``'s recorder on its first update."""
        tracker = OnlinePWC(self.delta, 0.0, self._log, row * self.width + col)
        self._trackers[row][col] = tracker
        return tracker

    def _ingest(self, item: int, count: int, time: int) -> None:
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        for row in range(self.depth):
            col = cols[row]
            counters = self._counters[row]
            value = counters[col] + sgns[row] * count
            counters[col] = value
            tracker = self._trackers[row].get(col)
            if tracker is None:
                tracker = self._track(row, col)
            tracker.feed(time, value)
        self.total += count

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: signed counts per row, per-(row, col) runs."""
        columns = self.buckets.buckets_many(items)
        signs = self.signs.signs_many(items)
        for row in range(self.depth):
            columnar.feed_tracked_row(
                self._counters[row],
                self._trackers[row],
                columns[row],
                times,
                signs[row] * counts,
                partial(self._track, row),
                piecewise_constant.feed_runs,
            )
        self.total += int(counts.sum())

    def counter_at(self, row: int, col: int, t: float) -> float:
        """Approximate value of counter ``C[row][col]`` at time ``t``."""
        self.flush_buffer()
        tracker = self._trackers[row].get(col)
        if tracker is None:
            return 0.0
        return tracker.value_at(t)

    def _window_counter(self, row: int, col: int, s: float, t: float) -> float:
        high = self.counter_at(row, col, t)
        low = self.counter_at(row, col, s) if s > 0 else 0.0
        return high - low

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` (median of signed window counters)."""
        s, t = self._resolve_window(s, t)
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        return median(
            sgns[row] * self._window_counter(row, cols[row], s, t)
            for row in range(self.depth)
        )

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Biased self-join estimate (no guarantee; see module docstring)."""
        s, t = self._resolve_window(s, t)
        row_estimates = []
        for row in range(self.depth):
            total = 0.0
            trackers = self._trackers[row]
            # Sorted column order: keeps the float accumulation order
            # deterministic and identical to the frozen query path.
            for col in sorted(trackers):
                tracker = trackers[col]
                diff = tracker.value_at(t) - (
                    tracker.value_at(s) if s > 0 else 0.0
                )
                total += diff * diff
            row_estimates.append(total)
        return median(row_estimates)

    def join_size(
        self, other: "PWCAMS", s: float = 0, t: float | None = None
    ) -> float:
        """Biased join-size estimate with another stream's sketch."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise ValueError(
                "join-size estimation requires sketches with identical "
                "width, depth and hash seed"
            )
        other.flush_buffer()
        s, t = self._resolve_window(s, t)
        row_estimates = []
        for row in range(self.depth):
            cols = set(self._trackers[row]) & set(other._trackers[row])
            total = 0.0
            for col in cols:
                total += self._window_counter(
                    row, col, s, t
                ) * other._window_counter(row, col, s, t)
            row_estimates.append(total)
        return median(row_estimates)

    def persistence_words(self) -> int:
        self.flush_buffer()
        return self._log.words()

    def ephemeral_words(self) -> int:
        """Size of the underlying counter array."""
        return self.width * self.depth

"""The PLA-based persistent Count-Min sketch (Section 3) and its
piecewise-constant baseline (Section 2).

Every counter ``C[j][k]`` of an ephemeral Count-Min sketch is tracked over
time by a per-counter history compressor (a
:class:`~repro.persistence.tracker.CounterTracker`): O'Rourke's online PLA
with additive error ``Delta`` for the paper's technique, or the
record-on-deviation piecewise-constant recorder for the baseline.
Trackers are created lazily, on a counter's first update, so untouched
counters cost nothing.  Every tracker appends what it records to the
sketch's one :class:`~repro.persistence.column_log.ColumnLog`, keyed
``row * width + col``.

A historical-window point query ``(i, (s, t])`` reconstructs
``C_t[j][h_j(i)] - C_s[j][h_j(i)]`` from the histories and returns the
median over rows (not the minimum: the reconstruction error is two-sided).
Theorem 3.1 bounds the error by ``eps * ||f_{s,t}||_1 + Delta`` with
probability ``1 - delta``.
"""

from __future__ import annotations

from functools import partial
from statistics import median

import numpy as np

from repro.core import columnar
from repro.core.base import PersistentSketch
from repro.hashing import BucketHashFamily, HashConfig
from repro.hashing.families import IdentityHashFamily
from repro.persistence.column_log import PLA, PWC, ColumnLog
from repro.persistence.tracker import CounterTracker
from repro.pla import orourke, piecewise_constant
from repro.pla.orourke import OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC


def median_rows(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` of a ``(depth, n)`` float array,
    bit-equal and without its per-call cost on a few rows.

    The rows are sorted column-wise by an odd-even transposition network
    of ``np.minimum``/``np.maximum`` (selections, no arithmetic); the
    median is the middle row, or the two middle rows' sum halved.
    """
    rows = list(values)
    depth = len(rows)
    for phase in range(depth):
        for i in range(phase % 2, depth - 1, 2):
            rows[i], rows[i + 1] = (
                np.minimum(rows[i], rows[i + 1]),
                np.maximum(rows[i], rows[i + 1]),
            )
    mid = depth // 2
    return rows[mid] if depth % 2 else (rows[mid - 1] + rows[mid]) / 2.0


class PersistentCountMin(PersistentSketch):
    """Persistent Count-Min sketch, generic in the history compressor.

    Parameters
    ----------
    width, depth:
        Shape of the underlying Count-Min sketch (``w = O(1/eps)``,
        ``d = O(log 1/delta)``).
    delta:
        Additive persistence error ``Delta`` of Theorems 3.1/3.2.
    seed:
        Hash seed.
    """

    #: Display name used by the evaluation harness (paper's legend).
    name = "PLA"
    #: The recorder of each counter's history (:class:`PWCCountMin`
    #: plugs in the piecewise-constant one), its row feed and its log
    #: rows' kind.
    _recorder: type[OnlinePLA] | type[OnlinePWC] = OnlinePLA
    _feed_runs = staticmethod(orourke.feed_runs)
    _kind = PLA

    def __init__(
        self,
        width: int,
        depth: int,
        delta: float,
        seed: int = 0,
        hashes: BucketHashFamily | IdentityHashFamily | None = None,
    ):
        super().__init__()
        self.width = width
        self.depth = depth
        self.delta = float(delta)
        self.seed = seed
        self.hashes = hashes or BucketHashFamily(
            HashConfig(width=width, depth=depth, seed=seed)
        )
        if self.hashes.width != width or self.hashes.depth != depth:
            raise ValueError("hash family shape does not match sketch shape")
        # Current counter values and lazily created per-counter trackers.
        self._counters: list[list[int]] = [
            [0] * width for _ in range(depth)
        ]
        self._trackers: list[dict[int, CounterTracker]] = [
            {} for _ in range(depth)
        ]
        self._log = ColumnLog(self._kind)
        self.total = 0

    def _track(self, row: int, col: int) -> CounterTracker:
        """Create counter ``(row, col)``'s tracker on its first update."""
        tracker = self._recorder(
            self.delta, 0.0, self._log, row * self.width + col
        )
        self._trackers[row][col] = tracker
        return tracker

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def _ingest(self, item: int, count: int, time: int) -> None:
        cols = self.hashes.buckets(item)
        for row in range(self.depth):
            col = cols[row]
            counters = self._counters[row]
            value = counters[col] + count
            counters[col] = value
            tracker = self._trackers[row].get(col)
            if tracker is None:
                tracker = self._track(row, col)
            tracker.feed(time, value)
        self.total += count

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: vectorized hashing, per-(row, col) change runs."""
        self._feed_columns(self.hashes.buckets_many(items), times, counts)

    def _feed_columns(
        self, columns: np.ndarray, times: np.ndarray, counts: np.ndarray
    ) -> None:
        """The columnar plan past hashing: ``columns`` is the ``(depth,
        n)`` bucket column of each update."""
        for row in range(self.depth):
            columnar.feed_tracked_row(
                self._counters[row],
                self._trackers[row],
                columns[row],
                times,
                counts,
                partial(self._track, row),
                self._feed_runs,
            )
        self.total += int(counts.sum())

    def finalize(self) -> None:
        """Flush open PLA runs.  Optional: queries also work mid-stream."""
        self.flush_buffer()
        self._log.finalize_open()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def counter_at(self, row: int, col: int, t: float) -> float:
        """Approximate value of counter ``C[row][col]`` at time ``t``."""
        self.flush_buffer()
        tracker = self._trackers[row].get(col)
        if tracker is None:
            return 0.0
        return tracker.value_at(t)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` (Theorem 3.1 error bound)."""
        s, t = self._resolve_window(s, t)
        cols = self.hashes.buckets(item)
        estimates = []
        for row in range(self.depth):
            high = self.counter_at(row, cols[row], t)
            low = self.counter_at(row, cols[row], s) if s > 0 else 0.0
            estimates.append(high - low)
        return median(estimates)

    def window_estimates(
        self, items: np.ndarray, s: float = 0, t: float | None = None
    ) -> np.ndarray:
        """:meth:`point` of every item of an int64 array over one window,
        as a float64 array, bit-equal to calling it per item.

        Each distinct counter the items touch is read once, and the row
        median is taken over the whole array.  The heavy-hitter descent
        scores a level with it: a wide frontier's children outnumber a
        row's counters, so most of their probes land on counters already
        read.  Items hash through :meth:`BucketHashFamily.buckets`, whose
        memo :meth:`point` fills too, so a range asked again is not
        hashed again.
        """
        s, t = self._resolve_window(s, t)
        columns = zip(*map(self.hashes.buckets, items.tolist()))
        windows = []
        for row_cols, trackers in zip(columns, self._trackers):
            read = dict.fromkeys(row_cols, 0.0)
            for col in read:
                tracker = trackers.get(col)
                if tracker is not None:
                    read[col] = tracker.value_at(t) - (
                        tracker.value_at(s) if s > 0 else 0.0
                    )
            windows.append(list(map(read.__getitem__, row_cols)))
        return median_rows(
            np.array(windows, dtype=np.float64).reshape(self.depth, len(items))
        )

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Count-Min style self-join estimate over the window.

        Included because the paper's Figures 9-10 evaluate
        ``PWC_CountMin`` on self-join queries; as Section 4.2 explains,
        the deterministic per-counter bias is amplified here, so no error
        guarantee is claimed.  Uses the classic minimum over rows.
        """
        s, t = self._resolve_window(s, t)
        best = None
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
            if best is None or total < best:
                best = total
        return best or 0.0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def persistence_words(self) -> int:
        self.flush_buffer()
        return self._log.words()

    def ephemeral_words(self) -> int:
        """Size of the underlying counter array."""
        return self.width * self.depth


class PWCCountMin(PersistentCountMin):
    """The ``PWC_CountMin`` baseline: piecewise-constant counter records."""

    name = "PWC_CountMin"
    _recorder = OnlinePWC
    _feed_runs = staticmethod(piecewise_constant.feed_runs)
    _kind = PWC

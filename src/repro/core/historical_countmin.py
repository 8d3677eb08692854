"""Epoch-adaptive persistent Count-Min sketch for historical queries
(Section 5.1).

For queries whose window always starts at ``s = 0``, the additive error
``Delta`` can be tied to the current stream mass: the stream is divided
into epochs within which ``||f_t||_1`` stays within a factor of 2 (tracked
exactly by a single running counter), and within epoch ``i`` every counter
is tracked by a fresh PLA run with ``Delta = eps * ||f_{t_i}||_1``.  A
query at time ``t`` is served by the epoch containing ``t``; Theorem 5.1
gives error ``eps * ||f_t||_1`` — identical to the ephemeral sketch — and
Theorem 5.3 bounds the expected size by ``O(1/eps^2 * log 1/delta)`` in
the random stream model.
"""

from __future__ import annotations

from bisect import bisect_right
from statistics import median

import numpy as np

from repro.core import columnar
from repro.core.base import PersistentSketch
from repro.hashing import BucketHashFamily, HashConfig
from repro.hashing.families import IdentityHashFamily
from repro.persistence.column_log import PLA, ColumnLog
from repro.persistence.epochs import EpochManager
from repro.pla.orourke import OnlinePLA


class _EpochedCounter:
    """Per-epoch PLA runs of one counter, created lazily on first touch."""

    __slots__ = ("epoch_ids", "trackers")

    def __init__(self) -> None:
        self.epoch_ids: list[int] = []
        self.trackers: list[OnlinePLA] = []

    def tracker_for(
        self, epoch_index: int, delta: float, start_value: float,
        log: ColumnLog, key: int,
    ) -> OnlinePLA:
        """The open tracker for ``epoch_index``, creating it (as component
        ``key`` of ``log``) if needed."""
        if not self.epoch_ids or self.epoch_ids[-1] != epoch_index:
            if self.trackers:
                # The closed epoch's open run becomes archived state: it
                # must stay queryable, so it is flushed into a segment.
                self.trackers[-1].finalize()
            self.epoch_ids.append(epoch_index)
            self.trackers.append(OnlinePLA(delta, start_value, log, key))
        return self.trackers[-1]

    def value_at(self, epoch_index: int, t: float) -> float:
        """Counter estimate at time ``t`` inside epoch ``epoch_index``.

        Falls back to the most recent earlier epoch when the counter was
        not touched in the queried epoch (its value is frozen there).
        """
        idx = bisect_right(self.epoch_ids, epoch_index) - 1
        if idx < 0:
            return 0.0
        return self.trackers[idx].value_at(t)


class HistoricalCountMin(PersistentSketch):
    """Persistent Count-Min specialized to historical (s = 0) queries.

    Parameters
    ----------
    width, depth:
        Sketch shape, ``w = O(1/eps)`` and ``d = O(log 1/delta)``.
    eps:
        Relative error target; the per-epoch PLA error is
        ``eps * ||f||_1`` at the epoch start.
    """

    name = "PLA_historical"

    def __init__(
        self,
        width: int,
        depth: int,
        eps: float,
        seed: int = 0,
        hashes: BucketHashFamily | IdentityHashFamily | None = None,
    ):
        super().__init__()
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        self.width = width
        self.depth = depth
        self.eps = eps
        self.seed = seed
        self.hashes = hashes or BucketHashFamily(
            HashConfig(width=width, depth=depth, seed=seed)
        )
        if self.hashes.width != width or self.hashes.depth != depth:
            raise ValueError("hash family shape does not match sketch shape")
        # Seed audit: this sketch draws no randomness beyond the hash
        # family (seeded via HashConfig); PLA recording is deterministic.
        self._epochs = EpochManager(factor=2.0)
        self._delta = eps  # Delta of the open epoch
        self._counters: list[list[int]] = [
            [0] * width for _ in range(depth)
        ]
        self._tracked: list[dict[int, _EpochedCounter]] = [
            {} for _ in range(depth)
        ]
        # One PLA log for every epoch's trackers.
        self._log = ColumnLog(PLA)
        self.total = 0

    def _key(self, epoch_index: int, row: int, col: int) -> int:
        """Log key of counter ``(row, col)``'s tracker in an epoch."""
        return (epoch_index * self.depth + row) * self.width + col

    def _ingest(self, item: int, count: int, time: int) -> None:
        self.total += count
        epoch = self._epochs.observe(time, max(abs(self.total), 1))
        if epoch is not None:
            self._delta = max(self.eps * epoch.start_norm, self.eps)
        current = self._epochs.current
        if current is None:
            raise RuntimeError("epoch manager has no open epoch after observe")
        cols = self.hashes.buckets(item)
        for row in range(self.depth):
            col = cols[row]
            counters = self._counters[row]
            before = counters[col]
            value = before + count
            counters[col] = value
            tracked = self._tracked[row]
            counter = tracked.get(col)
            if counter is None:
                counter = _EpochedCounter()
                tracked[col] = counter
            tracker = counter.tracker_for(
                current.index, self._delta, float(before), self._log,
                self._key(current.index, row, col),
            )
            tracker.feed(time, value)

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: simulate epochs, then vectorize each epoch slice.

        Epoch boundaries depend only on ``(time, running |total|)``, so a
        cheap sequential walk reproduces the exact epoch index and Delta
        every update saw; updates sharing an epoch then go through the
        per-(row, col) run plan, acquiring each run's tracker once via
        ``tracker_for`` — equivalent to the scalar per-update calls, which
        return the same open tracker for every later update of the epoch.
        """
        times_list = times.tolist()
        counts_list = counts.tolist()
        epoch_ids = np.empty(len(times_list), dtype=np.int64)
        deltas: list[float] = []
        total = self.total
        for idx, (time, count) in enumerate(zip(times_list, counts_list)):
            total += count
            epoch = self._epochs.observe(time, max(abs(total), 1))
            if epoch is not None:
                self._delta = max(self.eps * epoch.start_norm, self.eps)
            current = self._epochs.current
            if current is None:
                raise RuntimeError(
                    "epoch manager has no open epoch after observe"
                )
            epoch_ids[idx] = current.index
            deltas.append(self._delta)
        self.total = total
        columns = self.hashes.buckets_many(items)
        epoch_starts, epoch_ends = columnar.run_bounds(epoch_ids)
        for lo, hi in zip(epoch_starts.tolist(), epoch_ends.tolist()):
            epoch_index = int(epoch_ids[lo])
            delta = deltas[lo]
            slice_times = times[lo:hi]
            slice_counts = counts[lo:hi]
            for row in range(self.depth):
                row_cols = columns[row, lo:hi]
                order = np.argsort(row_cols, kind="stable")
                sorted_cols = row_cols[order]
                starts, ends = columnar.run_bounds(sorted_cols)
                counters = self._counters[row]
                tracked = self._tracked[row]
                cols = sorted_cols[starts].tolist()
                bases = np.array([counters[col] for col in cols], dtype=np.int64)
                values_list = columnar.run_values(
                    bases, slice_counts[order], starts, ends
                ).tolist()
                sorted_times = slice_times[order].tolist()
                for gidx, (col, g_lo, g_hi) in enumerate(
                    zip(cols, starts.tolist(), ends.tolist())
                ):
                    counter = tracked.get(col)
                    if counter is None:
                        counter = _EpochedCounter()
                        tracked[col] = counter
                    tracker = counter.tracker_for(
                        epoch_index, delta, float(bases[gidx]), self._log,
                        self._key(epoch_index, row, col),
                    )
                    tracker.feed_many(
                        sorted_times[g_lo:g_hi], values_list[g_lo:g_hi]
                    )
                    counters[col] = values_list[g_hi - 1]

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(0, t]`` (Theorem 5.1: error ``eps * ||f_t||_1``)."""
        if s != 0:
            raise ValueError(
                "HistoricalCountMin answers historical queries only (s = 0); "
                "use PersistentCountMin for general windows"
            )
        s, t = self._resolve_window(s, t)
        if len(self._epochs) == 0:
            return 0.0
        epoch = self._epochs.epoch_at(t)
        cols = self.hashes.buckets(item)
        return median(
            self._counter_at(row, cols[row], epoch.index, t)
            for row in range(self.depth)
        )

    def _counter_at(self, row: int, col: int, epoch_index: int, t: float) -> float:
        counter = self._tracked[row].get(col)
        if counter is None:
            return 0.0
        return counter.value_at(epoch_index, t)

    def epoch_count(self) -> int:
        """Number of epochs created so far."""
        return len(self._epochs)

    def persistence_words(self) -> int:
        return self._log.words()

    def ephemeral_words(self) -> int:
        """Size of the underlying counter array."""
        return self.width * self.depth

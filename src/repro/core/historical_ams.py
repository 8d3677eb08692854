"""Epoch-adaptive persistent AMS sketch for historical queries
(Section 5.2).

As with the historical Count-Min sketch, the additive error is tied to the
growing norm — here ``||f_t||_2``, which no single counter can track.  An
auxiliary small AMS sketch (:class:`~repro.sketch.l2_tracker.L2Tracker`,
width O(1), depth ``O(log m/delta)``) maintains a constant-factor estimate
of ``||f_t||_2`` valid at every time step; epochs close when the estimate
doubles, and within epoch ``i`` the sampling probability is
``1 / (eps * ||f_{t_i}||_2)``.  Each counter component records its
starting value per epoch so reads with no in-epoch predecessor fall back
to it (the Section 5.2 amendment to Equation (1)).  Theorems 5.4/5.5 give
errors ``eps * ||f_t||_2`` (point) and ``eps * ||f_t||_2 ||g_t||_2``
(join); Theorem 5.6 bounds space by ``O((sqrt(m)/eps + 1/eps^2) log 1/d)``.
"""

from __future__ import annotations

from bisect import bisect_right
from random import Random
from statistics import median

import numpy as np

from repro.core.base import PersistentSketch
from repro.hashing import BucketHashFamily, HashConfig, SignHashFamily
from repro.persistence.column_log import HISTORY, ColumnLog
from repro.persistence.epochs import EpochManager
from repro.persistence.history_list import SampledHistoryList
from repro.sketch.l2_tracker import L2Tracker


class _EpochedComponent:
    """Per-epoch history lists of one monotone counter component."""

    __slots__ = ("epoch_ids", "histories")

    def __init__(self) -> None:
        self.epoch_ids: list[int] = []
        self.histories: list[SampledHistoryList] = []

    def history_for(
        self,
        epoch_index: int,
        probability: float,
        start_value: int,
        rng: Random,
        log: ColumnLog,
        key: int,
    ) -> SampledHistoryList:
        if not self.epoch_ids or self.epoch_ids[-1] != epoch_index:
            self.epoch_ids.append(epoch_index)
            self.histories.append(
                SampledHistoryList(probability, rng, start_value, log, key)
            )
        return self.histories[-1]

    def estimate_at(self, epoch_index: int, t: float) -> float:
        idx = bisect_right(self.epoch_ids, epoch_index) - 1
        if idx < 0:
            return 0.0
        return self.histories[idx].estimate_at(t)

    def words(self) -> int:
        # Each epoch entry also stores the component's starting value and
        # epoch id (2 words), per the Section 5.2 construction.
        return sum(h.words() for h in self.histories) + 2 * len(self.histories)


class HistoricalAMS(PersistentSketch):
    """Persistent AMS sketch specialized to historical (s = 0) queries.

    Parameters
    ----------
    width, depth:
        Sketch shape, ``w = O(1/eps^2)``, ``d = O(log 1/delta)``.
    eps:
        Relative error target; per-epoch ``Delta = eps * ||f||_2`` at the
        epoch start.
    expected_length:
        Stream length hint for the auxiliary L2 tracker's union bound.
    independent_copies:
        History lists per component (2 enables self-join).
    """

    name = "Sample_historical"

    def __init__(
        self,
        width: int,
        depth: int,
        eps: float,
        seed: int = 0,
        expected_length: int = 1_000_000,
        independent_copies: int = 2,
        check_cost: int = 4,
    ):
        super().__init__()
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        self.width = width
        self.depth = depth
        self.eps = eps
        self.seed = seed
        self.copies = independent_copies
        config = HashConfig(width=width, depth=depth, seed=seed)
        self.buckets = BucketHashFamily(config)
        self.signs = SignHashFamily(config)
        # Seed audit: affine-derived from the hash seed (prime 7919);
        # the +13 offset keeps the sampler stream disjoint from
        # PersistentAMS (+11) and the aux L2 tracker (seed + 101).
        self._rng = Random(seed * 7919 + 13)
        self._aux = L2Tracker(
            expected_length=expected_length, seed=seed + 101
        )
        self._epochs = EpochManager(factor=2.0)
        self._probability = 1.0
        # Re-estimating the L2 norm costs O(width * depth) of the aux
        # sketch; since the norm moves by at most 1 per update we only
        # need to re-check every ~norm/check_cost updates.
        self._check_cost = check_cost
        self._updates_until_check = 0
        self._components: list[list[list[int]]] = [
            [[0, 0] for _ in range(width)] for _ in range(depth)
        ]
        self._tracked: list[list[list[dict[int, _EpochedComponent]]]] = [
            [
                [{} for _ in range(independent_copies)]
                for _b in range(2)
            ]
            for _ in range(depth)
        ]
        # One history log for every epoch's lists.
        self._log = ColumnLog(HISTORY)
        self.total = 0

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def _key(self, epoch_index: int, row: int, b: int, copy: int, col: int) -> int:
        """Log key of one component's history list in an epoch."""
        table = ((epoch_index * self.depth + row) * 2 + b) * self.copies + copy
        return table * self.width + col

    def _ingest(self, item: int, count: int, time: int) -> None:
        self._aux.update(item, count)
        self.total += count
        self._maybe_advance_epoch(time)
        current = self._epochs.current
        if current is None:
            raise RuntimeError("epoch manager has no open epoch after observe")
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        magnitude = abs(count)
        if magnitude == 0:
            return
        for row in range(self.depth):
            col = cols[row]
            effective = sgns[row] * count
            b = 1 if effective > 0 else 0
            component = self._components[row][col]
            before = component[b]
            value = before + magnitude
            component[b] = value
            for copy in range(self.copies):
                tracked = self._tracked[row][b][copy]
                entry = tracked.get(col)
                if entry is None:
                    entry = _EpochedComponent()
                    tracked[col] = entry
                history = entry.history_for(
                    current.index, self._probability, before, self._rng, self._log,
                    self._key(current.index, row, b, copy, col),
                )
                history.offer(time, value)

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Pre-hashed batch plan.

        The epoch advance interleaves the amortized aux-sketch check, the
        sampling-probability change and the per-offer RNG draws, so the
        walk stays sequential; hashing — the vectorizable part — is
        hoisted out through ``buckets_many``/``signs_many``.
        """
        columns = self.buckets.buckets_many(items)
        signs = self.signs.signs_many(items)
        for idx, (time, item, count) in enumerate(  # sketchlint: disable=SL010 — epoch/aux/RNG interleaving is inherently sequential
            zip(times.tolist(), items.tolist(), counts.tolist())
        ):
            self._aux.update(item, count)
            self.total += count
            self._maybe_advance_epoch(time)
            current = self._epochs.current
            if current is None:
                raise RuntimeError(
                    "epoch manager has no open epoch after observe"
                )
            magnitude = abs(count)
            if magnitude == 0:
                continue
            for row in range(self.depth):
                col = int(columns[row, idx])
                effective = int(signs[row, idx]) * count
                b = 1 if effective > 0 else 0
                component = self._components[row][col]
                before = component[b]
                value = before + magnitude
                component[b] = value
                for copy in range(self.copies):
                    tracked = self._tracked[row][b][copy]
                    entry = tracked.get(col)
                    if entry is None:
                        entry = _EpochedComponent()
                        tracked[col] = entry
                    history = entry.history_for(
                        current.index, self._probability, before, self._rng, self._log,
                        self._key(current.index, row, b, copy, col),
                    )
                    history.offer(time, value)

    def _maybe_advance_epoch(self, time: int) -> None:
        if self._epochs.current is not None and self._updates_until_check > 0:
            self._updates_until_check -= 1
            return
        norm = max(self._aux.estimate(), 1.0)
        epoch = self._epochs.observe(time, norm)
        if epoch is not None:
            delta = max(self.eps * epoch.start_norm, 1.0)
            self._probability = 1.0 / delta
        current = self._epochs.current
        if current is None:
            raise RuntimeError("epoch manager has no open epoch after observe")
        # The L2 norm moves by at most 1 per update, so it cannot double
        # before another start_norm updates; re-check a few times earlier.
        self._updates_until_check = max(
            1, int(current.start_norm) // self._check_cost
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _component_at(
        self, row: int, b: int, copy: int, col: int, epoch_index: int, t: float
    ) -> float:
        entry = self._tracked[row][b][copy].get(col)
        if entry is None:
            return 0.0
        return entry.estimate_at(epoch_index, t)

    def _counter_at(
        self, row: int, col: int, epoch_index: int, t: float, copy: int
    ) -> float:
        return self._component_at(
            row, 1, copy, col, epoch_index, t
        ) - self._component_at(row, 0, copy, col, epoch_index, t)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(0, t]`` (Theorem 5.4: error ``eps * ||f_t||_2``)."""
        if s != 0:
            raise ValueError(
                "HistoricalAMS answers historical queries only (s = 0); "
                "use PersistentAMS for general windows"
            )
        s, t = self._resolve_window(s, t)
        if len(self._epochs) == 0:
            return 0.0
        epoch = self._epochs.epoch_at(t)
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        return median(
            sgns[row]
            * self._counter_at(row, cols[row], epoch.index, t, copy=0)
            for row in range(self.depth)
        )

    def self_join_size(self, t: float | None = None) -> float:
        """Estimate ``||f_t||_2^2`` (needs ``independent_copies >= 2``)."""
        if self.copies < 2:
            raise ValueError(
                "self-join estimation needs independent_copies >= 2"
            )
        _, t = self._resolve_window(0, t)
        if len(self._epochs) == 0:
            return 0.0
        epoch = self._epochs.epoch_at(t)
        row_estimates = []
        for row in range(self.depth):
            total = 0.0
            for col in self._touched_columns(row):
                a = self._counter_at(row, col, epoch.index, t, copy=0)
                b = self._counter_at(row, col, epoch.index, t, copy=1)
                total += a * b
            row_estimates.append(total)
        return median(row_estimates)

    def join_size(self, other: "HistoricalAMS", t: float | None = None) -> float:
        """Estimate ``<f_t, g_t>`` (Theorem 5.5)."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise ValueError(
                "join-size estimation requires sketches with identical "
                "width, depth and hash seed"
            )
        _, t = self._resolve_window(0, t)
        if len(self._epochs) == 0 or len(other._epochs) == 0:
            return 0.0
        epoch_f = self._epochs.epoch_at(t)
        epoch_g = other._epochs.epoch_at(t)
        row_estimates = []
        for row in range(self.depth):
            cols = self._touched_columns(row) & other._touched_columns(row)
            total = 0.0
            for col in cols:
                total += self._counter_at(
                    row, col, epoch_f.index, t, copy=0
                ) * other._counter_at(row, col, epoch_g.index, t, copy=0)
            row_estimates.append(total)
        return median(row_estimates)

    def _touched_columns(self, row: int) -> set[int]:
        touched: set[int] = set()
        for b in range(2):
            touched.update(self._tracked[row][b][0].keys())
        return touched

    def epoch_count(self) -> int:
        """Number of epochs created so far."""
        return len(self._epochs)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def persistence_words(self) -> int:
        return (
            sum(
                entry.words()
                for row_hist in self._tracked
                for by_sign in row_hist
                for tracked in by_sign
                for entry in tracked.values()
            )
            + self._aux.words()
        )

    def ephemeral_words(self) -> int:
        """Size of the underlying component arrays."""
        return 2 * self.width * self.depth

"""Historical-window heavy hitters via the dyadic decomposition
(Section 3.2).

The universe ``[0, n)`` is decomposed into ``log2(n) + 1`` levels of
dyadic ranges; level ``l`` groups ``2^l`` consecutive elements, and a
persistent Count-Min sketch per level tracks the total frequency of every
range over time.  A heavy-hitters query descends the hierarchy: the ranges
whose estimated window frequency reaches ``phi * ||f_{s,t}||_1`` are split
and re-tested one level down, until individual elements remain
(Theorem 3.2 for the guarantees; query cost is ``O(1/phi)`` point queries
per level).

The window mass ``||f_{s,t}||_1`` itself is estimated from a single
PLA-tracked running total (exactly one counter, as Section 5.1 observes),
so the structure remains sublinear end to end.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.base import PersistentSketch
from repro.core.persistent_countmin import PersistentCountMin
from repro.hashing.families import (
    BucketHashFamily,
    IdentityHashFamily,
    buckets_stacked,
)
from repro.pla.orourke import OnlinePLA


def check_item(item: int, universe: int) -> None:
    """Reject an item outside ``[0, universe)``."""
    if not 0 <= item < universe:
        raise ValueError(f"item {item} outside universe [0, {universe})")


def check_universe(items: np.ndarray, universe: int) -> None:
    """Reject a batch holding any item outside ``[0, universe)``."""
    bad = (items < 0) | (items >= universe)
    if bad.any():
        offender = int(items[int(np.argmax(bad))])
        raise ValueError(f"item {offender} outside universe [0, {universe})")


class PersistentHeavyHitters(PersistentSketch):
    """Dyadic stack of persistent Count-Min sketches.

    Parameters
    ----------
    universe:
        Upper bound on element identifiers (items must lie in
        ``[0, universe)``).  Compact universes keep the level count small;
        see :func:`repro.eval.harness.compact_items`.
    width, depth:
        Per-level sketch shape.  Levels with at most ``width`` ranges are
        counted *exactly*: a single row with identity hashing, since
        hashing a small, fully active key space into a same-sized table
        only manufactures collisions.
    delta:
        Additive persistence error per level.
    sketch_factory:
        ``(width, depth, delta, seed, hashes=None) -> sketch`` building
        each level; defaults to the PLA-based :class:`PersistentCountMin`,
        and the benchmarks plug in
        :class:`~repro.core.persistent_countmin.PWCCountMin` for the
        baseline.
    """

    name = "PLA_HH"

    def __init__(
        self,
        universe: int,
        width: int,
        depth: int,
        delta: float,
        seed: int = 0,
        sketch_factory: Callable[..., PersistentSketch] | None = None,
        exact_small_levels: bool = True,
    ):
        super().__init__()
        if universe < 2:
            raise ValueError(f"universe must be >= 2, got {universe}")
        self.universe = universe
        self.levels = (universe - 1).bit_length()
        factory = sketch_factory or (
            lambda w, d, dl, sd, hashes=None: PersistentCountMin(
                width=w, depth=d, delta=dl, seed=sd, hashes=hashes
            )
        )
        self._sketches: list[PersistentSketch] = []
        for level in range(self.levels + 1):
            ranges = max(1, math.ceil(universe / (1 << level)))
            if exact_small_levels and ranges <= width:
                # Small level: exact per-range counters, one row.
                # Hashing a small, fully active key space into a
                # same-sized table only manufactures collisions (every
                # range carries mass, unlike level 0 where most keys are
                # rare); bench_ablation_dyadic.py quantifies the effect.
                self._sketches.append(
                    factory(
                        ranges,
                        1,
                        delta,
                        seed + level,
                        hashes=IdentityHashFamily(ranges, 1),
                    )
                )
            else:
                self._sketches.append(
                    factory(min(width, ranges), depth, delta, seed + level)
                )
        # The running total, with a PLA log of its own (one component).
        self._mass = OnlinePLA(delta=delta, initial_value=0.0)
        self._mass_total = 0

    def _ingest(self, item: int, count: int, time: int) -> None:
        check_item(item, self.universe)
        for level, sketch in enumerate(self._sketches):
            sketch.update(item >> level, count, time)
        self._mass_total += count
        self._mass.feed(time, self._mass_total)

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: forward the columns to every level at once.

        Items are validated up front, so a bad item rejects the whole
        batch before any level is touched (the scalar path applies the
        records preceding the offender first).  Each level sketch and the
        mass tracker see exactly the sequence scalar updates produce.

        The batch passed this sketch's checks, and every level's clock
        is this sketch's, so each level takes its columnar plan directly
        (its own run-length dispatch would choose it too: the batch is
        longer than a short run).  The hashed levels' ``items >> level``
        columns are hashed in one stacked evaluation.
        """
        check_universe(items, self.universe)
        shifted = [items >> level for level in range(len(self._sketches))]
        hashed = [
            level
            for level, sketch in enumerate(self._sketches)
            if isinstance(sketch.hashes, BucketHashFamily)
        ]
        columns: dict[int, np.ndarray] = {}
        if hashed:
            stacked = buckets_stacked(
                [self._sketches[level].hashes for level in hashed],
                [shifted[level] for level in hashed],
            )
            columns = dict(zip(hashed, stacked))
        clock = int(times[-1])
        for level, sketch in enumerate(self._sketches):
            level_columns = columns.get(level)
            if level_columns is None:
                level_columns = sketch.hashes.buckets_many(shifted[level])
            sketch._feed_columns(level_columns, times, counts)
            sketch._clock = clock
        totals = self._mass_total + np.cumsum(counts)
        self._mass.feed_many(times.tolist(), totals.tolist())
        self._mass_total = int(totals[-1])

    def _prevalidate_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        # Same up-front validation as the columnar plan: a bad item must
        # reject the batch before the scalar replay applies the records
        # ahead of it.
        check_universe(items, self.universe)

    def finalize(self) -> None:
        """Flush open PLA runs in every level sketch and the mass tracker.

        Optional for live queries; a freeze or a checkpoint does it to
        every component before reading its history columns.
        """
        self.flush_buffer()
        for sketch in self._sketches:
            finalize = getattr(sketch, "finalize", None)
            if finalize is not None:
                finalize()
        self._mass.finalize()

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Point estimate from the level-0 sketch.  An item outside the
        universe raises :class:`ValueError`, as its update does: level 0
        has no column for it when it counts exactly."""
        check_item(item, self.universe)
        s, t = self._resolve_window(s, t)
        return self._sketches[0].point(item, s, t)

    def window_mass(self, s: float = 0, t: float | None = None) -> float:
        """Estimate of ``||f_{s,t}||_1`` from the PLA-tracked total."""
        s, t = self._resolve_window(s, t)
        high = self._mass.value_at(t)
        low = self._mass.value_at(s) if s > 0 else 0.0
        return max(high - low, 0.0)

    def heavy_hitters(
        self,
        phi: float,
        s: float = 0,
        t: float | None = None,
        max_candidates: int | None = None,
    ) -> dict[int, float]:
        """Elements with estimated ``f_i(s, t) >= phi * ||f_{s,t}||_1``.

        Per Theorem 3.2, every element with true frequency at least
        ``(phi + eps) ||f_{s,t}||_1 + Delta`` is returned with high
        probability, and elements below ``phi ||f_{s,t}||_1`` are
        returned with probability at most ``delta``.

        ``max_candidates`` caps the per-level frontier (default
        ``max(16, ceil(4 / phi))``) to keep the descent ``O(1/phi)`` even
        when estimation noise inflates range counts.
        """
        if not 0 < phi < 1:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        s, t = self._resolve_window(s, t)
        threshold = phi * self.window_mass(s, t)
        cap = max_candidates or max(16, math.ceil(4.0 / phi))

        candidates = [0]
        for level in range(self.levels, 0, -1):
            sketch = self._sketches[level - 1]
            scored: list[tuple[float, int]] = []
            for parent in candidates:
                for child in (2 * parent, 2 * parent + 1):
                    if (child << (level - 1)) >= self.universe:
                        continue
                    estimate = sketch.point(child, s, t)
                    if estimate >= threshold:
                        scored.append((estimate, child))
            if len(scored) > cap:
                scored.sort(reverse=True)
                scored = scored[:cap]
            candidates = [child for _, child in scored]
            if not candidates:
                return {}
        return {
            item: self._sketches[0].point(item, s, t) for item in candidates
        }

    def range_sum(
        self, lo: int, hi: int, s: float = 0, t: float | None = None
    ) -> float:
        """Estimate the total frequency of items in ``[lo, hi]`` over
        ``(s, t]``.

        Uses the canonical dyadic decomposition of ``[lo, hi]`` — at most
        ``2 log2(n)`` ranges, one point query each — the range-query
        application of the dyadic technique noted in [11, 12].
        """
        if not 0 <= lo <= hi < self.universe:
            raise ValueError(
                f"range [{lo}, {hi}] outside universe [0, {self.universe})"
            )
        s, t = self._resolve_window(s, t)
        total = 0.0
        position = lo
        while position <= hi:
            # Largest dyadic block starting at `position` inside [lo, hi].
            level = (
                (position & -position).bit_length() - 1
                if position
                else self.levels
            )
            while (1 << level) > hi - position + 1:
                level -= 1
            total += self._sketches[level].point(position >> level, s, t)
            position += 1 << level
        return total

    def top_k(
        self, k: int, s: float = 0, t: float | None = None
    ) -> list[tuple[int, float]]:
        """The ~``k`` most frequent items of the window, by estimate.

        Lowers the heavy-hitter threshold until at least ``k`` items
        surface (or the threshold bottoms out), then returns the ``k``
        largest — the top-k application of Section 1.5.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        s, t = self._resolve_window(s, t)
        phi = 1.0 / (2.0 * k)
        found: dict[int, float] = {}
        while True:
            found = self.heavy_hitters(phi, s, t, max_candidates=8 * k)
            if len(found) >= k or phi < 1e-5:
                break
            phi /= 2.0
        ranked = sorted(found.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:k]

    def persistence_words(self) -> int:
        self.flush_buffer()
        return (
            sum(sketch.persistence_words() for sketch in self._sketches)
            + self._mass.words()
        )

    def ephemeral_words(self) -> int:
        """Total size of the per-level counter arrays."""
        return sum(
            sketch.ephemeral_words() for sketch in self._sketches  # type: ignore[attr-defined]
        )

"""Historical-window heavy hitters via the dyadic decomposition
(Section 3.2), generalized to a power-of-two fan-out ``b``.

The universe ``[0, n)`` is decomposed into ``ceil(log_b n)`` levels of
``b``-adic ranges; level ``l`` groups ``b^l`` consecutive elements, and a
persistent Count-Min sketch per level tracks the total frequency of every
range over time.  No level holds the root: the top level has at most
``b`` ranges, and the whole universe's mass comes from the mass tracker
below.  A heavy-hitters query descends the hierarchy: the ranges whose
estimated window frequency reaches ``phi * ||f_{s,t}||_1`` are split
into their ``b`` children and re-tested one level down, until individual
elements remain (Theorem 3.2 for the guarantees, which hold for every
``b``: each ancestor of a heavy element is heavy; query cost is
``O(b/phi)`` point queries per level).  ``b = 2`` is the paper's dyadic
hierarchy; a larger ``b`` feeds ``log2 b`` times fewer levels per update,
the Count-Min hierarchy of Cormode and Hadjieleftheriou.

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


def fanout_bits(fanout: int) -> int:
    """``log2`` of a fan-out, which must be a power of two ``>= 2``."""
    if type(fanout) is not int or fanout < 2 or fanout & (fanout - 1):
        raise ValueError(f"fanout must be a power of two >= 2, got {fanout!r}")
    return fanout.bit_length() - 1


def build_levels(
    universe: int,
    width: int,
    depth: int,
    param: float,
    seed: int,
    bits: int,
    factory: Callable[..., PersistentSketch],
    exact_small_levels: bool = True,
) -> list[PersistentSketch]:
    """The levels of a ``2^bits``-ary hierarchy over ``[0, universe)``,
    finest first: level ``l`` counts the ranges ``item >> (bits * l)``.

    There are ``ceil(log2(universe) / bits)`` of them, so the top level
    has at most ``2^bits`` ranges, and no level is a single root.  A
    level with at most ``width`` ranges counts *exactly* (with
    ``exact_small_levels``): a single row with identity hashing, since
    hashing a small, fully active key space into a same-sized table only
    manufactures collisions (every range carries mass, unlike level 0
    where most keys are rare); bench_ablation_dyadic.py quantifies the
    effect.  ``factory(width, depth, param, seed, hashes=None)`` builds
    each level, seeded ``seed + l``.
    """
    if universe < 2:
        raise ValueError(f"universe must be >= 2, got {universe}")
    levels: list[PersistentSketch] = []
    for level in range(-(-(universe - 1).bit_length() // bits)):
        ranges = ((universe - 1) >> (bits * level)) + 1
        if exact_small_levels and ranges <= width:
            levels.append(
                factory(
                    ranges, 1, param, seed + level,
                    hashes=IdentityHashFamily(ranges, 1),
                )
            )
        else:
            levels.append(factory(min(width, ranges), depth, param, seed + level))
    return levels


def descend(
    levels: int,
    bits: int,
    universe: int,
    threshold: float,
    cap: int,
    score: Callable[[int, np.ndarray], np.ndarray],
) -> dict[int, float]:
    """The heavy-hitter descent every hierarchy shares (Theorem 3.2).

    Starts by scoring every range of the top level (at most ``2^bits``),
    then keeps the ranges whose estimate reaches ``threshold`` (the
    ``cap`` largest when more do, ties broken by the larger range) and
    scores their children one level down, until the survivors are
    single items.  ``score(level, ranges)`` gives the window estimates
    of an int64 array of ``ranges`` at ``level`` as a float64 array, in
    order: each level is scored in one call.  Returns each surviving
    item's level-0 estimate, the capped ones in descending order.
    """
    offsets = np.arange(1 << bits, dtype=np.int64)
    parents = np.zeros(1, dtype=np.int64)
    estimates = np.empty(0, dtype=np.float64)
    for level in range(levels - 1, -1, -1):
        top = ((universe - 1) >> (bits * level)) + 1
        children = ((parents[:, None] << bits) + offsets).ravel()
        children = children[children < top]
        scores = score(level, children)
        keep = np.flatnonzero(scores >= threshold)
        if len(keep) > cap:
            keep = keep[np.lexsort((children[keep], scores[keep]))[::-1][:cap]]
        if not len(keep):
            return {}
        parents = children[keep]
        estimates = scores[keep]
    return dict(zip(parents.tolist(), estimates.tolist()))


def rank_top_k(
    find: Callable[[float, int], dict[int, float]], k: int
) -> list[tuple[int, float]]:
    """The ~``k`` items ``find(phi, max_candidates)`` ranks highest.

    Lowers the heavy-hitter threshold until at least ``k`` items
    surface (or the threshold bottoms out), then returns the ``k``
    largest — the top-k application of Section 1.5.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    phi = 1.0 / (2.0 * k)
    while True:
        found = find(phi, 8 * k)
        if len(found) >= k or phi < 1e-5:
            break
        phi /= 2.0
    return sorted(found.items(), key=lambda kv: kv[1], reverse=True)[:k]


class PersistentHeavyHitters(PersistentSketch):
    """``b``-ary stack of persistent Count-Min sketches.

    Parameters
    ----------
    universe:
        Upper bound on element identifiers (items must lie in
        ``[0, universe)``).  Compact universes keep the level count small;
        see :func:`repro.eval.harness.compact_items`.
    width, depth:
        Per-level sketch shape.  Levels with at most ``width`` ranges are
        counted exactly (:func:`build_levels`).
    delta:
        Additive persistence error per level.
    sketch_factory:
        ``(width, depth, delta, seed, hashes=None) -> sketch`` building
        each level; defaults to the PLA-based :class:`PersistentCountMin`,
        and the benchmarks plug in
        :class:`~repro.core.persistent_countmin.PWCCountMin` for the
        baseline.
    fanout:
        Children per range, a power of two ``b``: ``ceil(log_b n)``
        levels.  The default 2 is the paper's dyadic hierarchy.
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
        fanout: int = 2,
    ):
        super().__init__()
        self.universe = universe
        self.fanout = fanout
        self._bits = fanout_bits(fanout)
        factory = sketch_factory or (
            lambda w, d, dl, sd, hashes=None: PersistentCountMin(
                width=w, depth=d, delta=dl, seed=sd, hashes=hashes
            )
        )
        self._sketches = build_levels(
            universe, width, depth, delta, seed, self._bits, factory,
            exact_small_levels,
        )
        self.levels = len(self._sketches)
        # The running total, with a PLA log of its own (one component).
        self._mass = OnlinePLA(delta=delta, initial_value=0.0)
        self._mass_total = 0

    def _ingest(self, item: int, count: int, time: int) -> None:
        check_item(item, self.universe)
        for level, sketch in enumerate(self._sketches):
            sketch.update(item >> (self._bits * level), count, time)
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
        longer than a short run).  The hashed levels' range columns are
        hashed in one stacked evaluation.
        """
        check_universe(items, self.universe)
        shifted = [items >> (self._bits * level) for level in range(self.levels)]
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
        return descend(
            self.levels, self._bits, self.universe, threshold, cap,
            lambda level, ranges: self._sketches[level].window_estimates(
                ranges, s, t
            ),
        )

    def range_sum(
        self, lo: int, hi: int, s: float = 0, t: float | None = None
    ) -> float:
        """Estimate the total frequency of items in ``[lo, hi]`` over
        ``(s, t]``.

        Uses the canonical ``b``-adic decomposition of ``[lo, hi]`` — at
        most ``2 (b - 1)`` ranges per level, one point query each — the
        range-query application of the dyadic technique noted in
        [11, 12].  The whole universe is one range no level holds: its
        sum is :meth:`window_mass`.
        """
        if not 0 <= lo <= hi < self.universe:
            raise ValueError(
                f"range [{lo}, {hi}] outside universe [0, {self.universe})"
            )
        s, t = self._resolve_window(s, t)
        if lo == 0 and hi == self.universe - 1:
            return self.window_mass(s, t)
        total = 0.0
        position = lo
        while position <= hi:
            # Largest b-adic block starting at `position` inside [lo, hi].
            aligned = (position & -position).bit_length() - 1 if position else 64
            level = min(aligned // self._bits, self.levels - 1)
            while 1 << (self._bits * level) > hi - position + 1:
                level -= 1
            shift = self._bits * level
            total += self._sketches[level].point(position >> shift, s, t)
            position += 1 << shift
        return total

    def top_k(
        self, k: int, s: float = 0, t: float | None = None
    ) -> list[tuple[int, float]]:
        """The ~``k`` most frequent items of the window, by estimate
        (:func:`rank_top_k`)."""
        s, t = self._resolve_window(s, t)
        return rank_top_k(
            lambda phi, cap: self.heavy_hitters(phi, s, t, max_candidates=cap), k
        )

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

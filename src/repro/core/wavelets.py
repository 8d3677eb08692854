"""Historical window Haar wavelet synopses.

Section 1.2 lists wavelets [16] among the queries built on point
queries.  The Haar coefficient of the window frequency vector at node
``(level, j)`` is

    c_{level,j} = (sum(left half) - sum(right half)) / sqrt(2^level)

— two dyadic range sums, which the persistent dyadic hierarchy answers
for *any past window*.  The classic wavelet synopsis keeps the ``B``
largest-magnitude coefficients; this module finds them with a best-first
search over the coefficient tree, pruning subtrees whose total window
mass already bounds every descendant coefficient below the current
``B``-th best (for any node with block sum ``S`` and size >= 2, every
coefficient in its subtree has magnitude at most ``S / sqrt(2)``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.streams.model import Stream


@dataclass(frozen=True, slots=True)
class HaarCoefficient:
    """One Haar wavelet coefficient of a window frequency vector.

    ``level``/``position`` index the node: it covers values
    ``[position * 2^level, (position + 1) * 2^level)``, positive on the
    left half and negative on the right, scaled by ``2^{-level/2}``.
    """

    level: int
    position: int
    value: float

    @property
    def support(self) -> tuple[int, int]:
        """The covered value range ``[lo, hi]`` (inclusive)."""
        width = 1 << self.level
        lo = self.position * width
        return lo, lo + width - 1


class PersistentWavelets:
    """Top-B Haar synopses of any historical window.

    Parameters mirror :class:`~repro.core.quantiles.PersistentQuantiles`:
    either build a fresh dyadic hierarchy or share an existing one.
    """

    def __init__(
        self,
        universe: int | None = None,
        width: int = 1024,
        depth: int = 4,
        delta: float = 16,
        seed: int = 0,
        hierarchy: PersistentHeavyHitters | None = None,
    ):
        if hierarchy is not None:
            self._hierarchy = hierarchy
        else:
            if universe is None:
                raise ValueError("provide either a universe or a hierarchy")
            self._hierarchy = PersistentHeavyHitters(
                universe=universe, width=width, depth=depth, delta=delta,
                seed=seed,
            )
        # Haar needs a power-of-two domain: the universe rounded up.
        self._log_n = (self._hierarchy.universe - 1).bit_length()
        self._n = 1 << self._log_n

    @property
    def universe(self) -> int:
        """The (power-of-two padded) Haar domain size."""
        return self._n

    def update(self, item: int, count: int = 1, time: int | None = None) -> None:
        """Ingest one update."""
        self._hierarchy.update(item, count, time)

    def ingest(self, stream: Stream) -> None:
        """Ingest a whole stream."""
        self._hierarchy.ingest(stream)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def _block_sum(self, level: int, position: int, s: float, t: float) -> float:
        lo = position * (1 << level)
        hi = min(lo + (1 << level) - 1, self._hierarchy.universe - 1)
        if lo >= self._hierarchy.universe:
            return 0.0
        return self._hierarchy.range_sum(lo, hi, s, t)

    def coefficient(
        self, level: int, position: int, s: float = 0, t: float | None = None
    ) -> float:
        """Estimate one Haar coefficient of the window frequency vector."""
        if not 1 <= level <= self._log_n:
            raise ValueError(f"level must lie in [1, {self._log_n}]")
        if not 0 <= position < (self._n >> level):
            raise ValueError(
                f"position {position} out of range for level {level}"
            )
        s, t = self._hierarchy._resolve_window(s, t)
        left = self._block_sum(level - 1, 2 * position, s, t)
        right = self._block_sum(level - 1, 2 * position + 1, s, t)
        return (left - right) / math.sqrt(1 << level)

    def scaling_coefficient(self, s: float = 0, t: float | None = None) -> float:
        """The overall-average coefficient ``sum / sqrt(n)``."""
        s, t = self._hierarchy._resolve_window(s, t)
        return self._block_sum(self._log_n, 0, s, t) / math.sqrt(self._n)

    def top_coefficients(
        self, b: int, s: float = 0, t: float | None = None
    ) -> list[HaarCoefficient]:
        """The ~``b`` largest-magnitude Haar coefficients of the window.

        Best-first search: expand the node with the largest coefficient
        bound until the bound falls below the current ``b``-th best
        magnitude.  Exact up to estimation error in the range sums.
        """
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        s, t = self._hierarchy._resolve_window(s, t)

        best: list[tuple[float, HaarCoefficient]] = []  # min-heap by |c|

        def consider(coefficient: HaarCoefficient) -> None:
            entry = (abs(coefficient.value), coefficient)
            if len(best) < b:
                heapq.heappush(best, entry)
            elif entry[0] > best[0][0]:
                heapq.heapreplace(best, entry)

        def kth_best() -> float:
            return best[0][0] if len(best) == b else 0.0

        # Frontier entries: (-bound, level, position, block_sum).
        root_sum = self._block_sum(self._log_n, 0, s, t)
        frontier = [(-root_sum / math.sqrt(2.0), self._log_n, 0, root_sum)]
        while frontier:
            neg_bound, level, position, block_sum = heapq.heappop(frontier)
            if -neg_bound <= kth_best():
                break  # nothing left can enter the top-b
            left = self._block_sum(level - 1, 2 * position, s, t)
            right = block_sum - left
            consider(
                HaarCoefficient(
                    level=level,
                    position=position,
                    value=(left - right) / math.sqrt(1 << level),
                )
            )
            if level > 1:
                for child_pos, child_sum in (
                    (2 * position, left),
                    (2 * position + 1, right),
                ):
                    if child_sum > 0:
                        heapq.heappush(
                            frontier,
                            (
                                -child_sum / math.sqrt(2.0),
                                level - 1,
                                child_pos,
                                child_sum,
                            ),
                        )
        return sorted(
            (coefficient for _mag, coefficient in best),
            key=lambda c: abs(c.value),
            reverse=True,
        )

    def reconstruct(
        self,
        items: list[int],
        b: int = 16,
        s: float = 0,
        t: float | None = None,
    ) -> dict[int, float]:
        """Approximate window frequencies of ``items`` from a B-term synopsis.

        Sums the contributions of the scaling coefficient and the top-B
        wavelet coefficients at each item — the classic synopsis read.
        """
        s, t = self._hierarchy._resolve_window(s, t)
        coefficients = self.top_coefficients(b, s, t)
        scaling = self.scaling_coefficient(s, t)
        out: dict[int, float] = {}
        for item in items:
            value = scaling / math.sqrt(self._n)
            for coefficient in coefficients:
                lo, hi = coefficient.support
                if lo <= item <= hi:
                    half = (lo + hi + 1) // 2
                    sign = 1.0 if item < half else -1.0
                    value += (
                        sign
                        * coefficient.value
                        / math.sqrt(1 << coefficient.level)
                    )
            out[item] = value
        return out

    def persistence_words(self) -> int:
        """Space of the underlying hierarchy."""
        return self._hierarchy.persistence_words()

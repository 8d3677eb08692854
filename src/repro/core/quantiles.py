"""Historical window quantiles and range queries on top of the persistent
Count-Min hierarchy.

The paper notes (Section 1.2) that point queries are the building block
of range queries [11]; and the ``b``-adic range-sum trick that serves
heavy hitters equally serves *rank* queries: the rank of ``x`` in the
window ``(s, t]`` is the range sum ``[0, x]``, computable from
``O(b log_b n)`` point queries.  A quantile walks the hierarchy top
down, accumulating range masses left to right — approximate quantiles
over any past window, the query Tao et al. [30] support for historical
data only with a pointer-based, non-streaming summary.

Error: each rank estimate carries ``O(b log_b n)`` point-query errors of
``eps ||f_{s,t}||_1 + Delta`` each, so a quantile returned for rank
``phi * W`` holds a true rank within
``phi * W +- O(b log_b n (eps W + Delta))`` where ``W = ||f_{s,t}||_1``.
"""

from __future__ import annotations

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.streams.model import Stream


class PersistentQuantiles:
    """Window rank / quantile / range queries over a dyadic hierarchy.

    Wraps (or owns) a :class:`PersistentHeavyHitters` structure — the
    two query families share the identical index, so a deployment that
    wants both pays for one.

    Parameters
    ----------
    universe, width, depth, delta, seed:
        Forwarded to :class:`PersistentHeavyHitters` when no existing
        ``hierarchy`` is supplied.
    hierarchy:
        Reuse an already-ingested dyadic structure.
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
                universe=universe,
                width=width,
                depth=depth,
                delta=delta,
                seed=seed,
            )

    @property
    def universe(self) -> int:
        """The value universe ``[0, n)``."""
        return self._hierarchy.universe

    def update(self, item: int, count: int = 1, time: int | None = None) -> None:
        """Ingest one update (values are the items being ranked)."""
        self._hierarchy.update(item, count, time)

    def ingest(self, stream: Stream) -> None:
        """Ingest a whole stream."""
        self._hierarchy.ingest(stream)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def rank(self, value: int, s: float = 0, t: float | None = None) -> float:
        """Estimated number of window elements ``<= value``."""
        if not 0 <= value < self.universe:
            raise ValueError(
                f"value {value} outside universe [0, {self.universe})"
            )
        return max(self._hierarchy.range_sum(0, value, s, t), 0.0)

    def range_count(
        self, lo: int, hi: int, s: float = 0, t: float | None = None
    ) -> float:
        """Estimated number of window elements in ``[lo, hi]``."""
        return max(self._hierarchy.range_sum(lo, hi, s, t), 0.0)

    def quantile(
        self, phi: float, s: float = 0, t: float | None = None
    ) -> int:
        """Approximate ``phi``-quantile of the window's values.

        Returns the smallest value whose estimated rank reaches
        ``phi * W`` (``W`` = estimated window mass), found top down:
        at each level the walk adds the masses of the current range's
        children left to right and enters the child whose mass crosses
        the target — at most ``b`` point queries per level.
        """
        if not 0 <= phi <= 1:
            raise ValueError(f"phi must lie in [0, 1], got {phi}")
        hierarchy = self._hierarchy
        s, t = hierarchy._resolve_window(s, t)
        target = phi * hierarchy.window_mass(s, t)
        bits = hierarchy._bits
        below = 0.0  # estimated mass of the values left of `value`
        value = 0
        for level in range(hierarchy.levels - 1, -1, -1):
            point = hierarchy._sketches[level].point
            last = min(
                (value + 1) << bits, ((self.universe - 1) >> (bits * level)) + 1
            ) - 1
            value <<= bits
            while value < last:
                mass = point(value, s, t)
                if below + mass >= target:
                    break
                below += mass
                value += 1
        return value

    def median(self, s: float = 0, t: float | None = None) -> int:
        """Approximate window median."""
        return self.quantile(0.5, s, t)

    def quantiles(
        self, phis: list[float], s: float = 0, t: float | None = None
    ) -> list[int]:
        """Batch quantiles (sorted ``phis`` recommended)."""
        return [self.quantile(phi, s, t) for phi in phis]

    def persistence_words(self) -> int:
        """Space of the underlying hierarchy."""
        return self._hierarchy.persistence_words()

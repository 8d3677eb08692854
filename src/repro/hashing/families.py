"""Seeded families of bucket and sign hashes used by the sketches.

A *family* bundles the ``d`` per-row hash functions of a sketch.  Families
are value objects: two families constructed from the same
:class:`HashConfig` are identical, which is what lets two persistent AMS
sketches on different streams share hash functions for join-size estimation
(Section 4.1 of the paper: the functions "can be shared between the two
streams with O(1) communication" — here, by sharing the config).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.carter_wegman import (
    PolynomialHash,
    eval_stacked,
    polynomial_hashes,
)


def _coefficient_column(hashes: list[PolynomialHash]) -> np.ndarray:
    """Row ``r``'s coefficients at ``[r, 0, :]``: shape ``(d, 1, k)``
    uint64, broadcasting each row against a ``(n,)`` item column."""
    return np.array([h.coefficients for h in hashes], dtype=np.uint64)[:, None, :]


@dataclass(frozen=True)
class HashConfig:
    """Everything needed to reconstruct a sketch's hash functions.

    Attributes
    ----------
    width:
        Number of buckets per row (``w``).
    depth:
        Number of rows (``d``); one independent hash per row.
    seed:
        Master seed; bucket and sign families derive distinct sub-seeds.
    """

    width: int
    depth: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


class BucketHashFamily:
    """``d`` pairwise-independent hashes ``[n] -> [0, w)``.

    Each row hash is a random degree-1 polynomial over GF(2^61-1) reduced
    mod ``w``.  Results are memoised per element because streams revisit
    the same elements many times and the sketch hot loop dominates runtime.
    """

    __slots__ = ("width", "depth", "_hashes", "_coefficients", "_cache")

    def __init__(self, config: HashConfig):
        self.width = config.width
        self.depth = config.depth
        self._hashes = polynomial_hashes(
            config.depth, degree=2, seed=config.seed * 2 + 1
        )
        self._coefficients = _coefficient_column(self._hashes)
        self._cache: dict[int, tuple[int, ...]] = {}

    def buckets(self, item: int) -> tuple[int, ...]:
        """Column index of ``item`` in each of the ``d`` rows."""
        cached = self._cache.get(item)
        if cached is None:
            cached = tuple(h(item) % self.width for h in self._hashes)
            self._cache[item] = cached
        return cached

    def bucket(self, row: int, item: int) -> int:
        """Column index of ``item`` in row ``row``."""
        return self.buckets(item)[row]

    def buckets_many(self, items: np.ndarray) -> np.ndarray:
        """Column indices for a column of items: shape ``(d, n)`` int64.

        Row ``r`` equals ``[self.buckets(x)[r] for x in items]`` exactly
        (vectorized Carter-Wegman evaluation is bit-identical to the
        scalar path); the ``d`` rows are evaluated in one broadcast.
        """
        return buckets_stacked([self], [np.asarray(items)])[0]


def buckets_stacked(
    families: list[BucketHashFamily], columns: list[np.ndarray]
) -> np.ndarray:
    """:meth:`BucketHashFamily.buckets_many` of ``families[i]`` at
    ``columns[i]`` for every ``i`` in one broadcast: shape ``(L, d, n)``.

    The families share their depth ``d`` and the columns their length
    ``n``; widths may differ.
    """
    coefficients = np.stack([family._coefficients for family in families])
    widths = np.array([family.width for family in families], dtype=np.uint64)
    values = eval_stacked(coefficients, np.stack(columns)[:, None, :])
    return (values % widths[:, None, None]).astype(np.int64)


class SignHashFamily:
    """``d`` 4-wise independent sign hashes ``[n] -> {-1, +1}``.

    A degree-3 polynomial evaluated at the element; the low bit of the
    field value chooses the sign.  4-wise independence is what the AMS
    variance analysis requires [2, 9].
    """

    __slots__ = ("depth", "_hashes", "_coefficients", "_cache")

    def __init__(self, config: HashConfig):
        self.depth = config.depth
        self._hashes = polynomial_hashes(
            config.depth, degree=4, seed=config.seed * 2 + 2
        )
        self._coefficients = _coefficient_column(self._hashes)
        self._cache: dict[int, tuple[int, ...]] = {}

    def signs(self, item: int) -> tuple[int, ...]:
        """Sign (+1 or -1) of ``item`` in each of the ``d`` rows."""
        cached = self._cache.get(item)
        if cached is None:
            cached = tuple(1 - 2 * (h(item) & 1) for h in self._hashes)
            self._cache[item] = cached
        return cached

    def sign(self, row: int, item: int) -> int:
        """Sign of ``item`` in row ``row``."""
        return self.signs(item)[row]

    def signs_many(self, items: np.ndarray) -> np.ndarray:
        """Signs for a column of items: shape ``(d, n)`` int64 of +/-1,
        the ``d`` rows evaluated in one broadcast."""
        values = eval_stacked(self._coefficients, np.asarray(items))
        return 1 - 2 * (values & np.uint64(1)).astype(np.int64)


class IdentityHashFamily:
    """Degenerate bucket family: item ``i`` maps to column ``i`` in every row.

    Used when the key space is no larger than the sketch width (e.g. the
    high levels of the dyadic heavy-hitter hierarchy, where the number of
    ranges is small): counting becomes exact per key, so a single row
    suffices and collisions vanish.
    """

    __slots__ = ("width", "depth")

    def __init__(self, width: int, depth: int = 1):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth

    def buckets(self, item: int) -> tuple[int, ...]:
        """Column of ``item`` in each row (the item itself)."""
        if not 0 <= item < self.width:
            raise ValueError(
                f"item {item} outside identity range [0, {self.width})"
            )
        return (item,) * self.depth

    def bucket(self, row: int, item: int) -> int:
        """Column of ``item`` in row ``row``."""
        return self.buckets(item)[row]

    def buckets_many(self, items: np.ndarray) -> np.ndarray:
        """Columns for a column of items: shape ``(d, n)`` int64."""
        arr = np.asarray(items, dtype=np.int64)
        bad = (arr < 0) | (arr >= self.width)
        if bad.any():
            offender = int(arr[int(np.argmax(bad))])
            raise ValueError(
                f"item {offender} outside identity range [0, {self.width})"
            )
        return np.tile(arr, (self.depth, 1))


def make_bucket_family(width: int, depth: int, seed: int = 0) -> BucketHashFamily:
    """Convenience constructor for a :class:`BucketHashFamily`."""
    return BucketHashFamily(HashConfig(width=width, depth=depth, seed=seed))


def make_sign_family(depth: int, seed: int = 0) -> SignHashFamily:
    """Convenience constructor for a :class:`SignHashFamily`."""
    return SignHashFamily(HashConfig(width=1, depth=depth, seed=seed))

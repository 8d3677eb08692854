"""Polynomial hashing over the Mersenne prime field GF(2^61 - 1).

A degree-(k-1) polynomial with independently random coefficients drawn from
``GF(p)`` is a k-wise independent hash function [Carter & Wegman 1977].  We
use the Mersenne prime ``p = 2^61 - 1`` so that reduction mod p can be done
with shifts and masks instead of division, and so that hash values fit
comfortably in a machine word.

Python integers are arbitrary precision, so the arithmetic here is exact;
the fast-reduction trick still pays because it avoids the bignum division
path for the common case of < 122-bit intermediates.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

#: The Mersenne prime 2^61 - 1 used as the field modulus.
MERSENNE_PRIME = (1 << 61) - 1

_MASK61 = MERSENNE_PRIME

# uint64 limb constants for the vectorized field arithmetic below.
_U64_MASK61 = np.uint64(_MASK61)
_U64_MASK32 = np.uint64((1 << 32) - 1)
_U64_MASK29 = np.uint64((1 << 29) - 1)


def mod_mersenne(x: int) -> int:
    """Reduce a non-negative integer modulo ``2^61 - 1`` without division.

    Repeatedly folds the high bits down (``x mod 2^61 - 1 ==
    (x >> 61) + (x & mask)`` up to one final correction).
    """
    while x > _MASK61:
        x = (x >> 61) + (x & _MASK61)
    if x == _MASK61:
        return 0
    return x


def fold_mersenne_many(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mod_mersenne` for uint64 arrays below ``2^64``.

    Two shift-and-mask folds bring any uint64 value to at most ``p``;
    the final ``where`` maps ``p`` itself to 0, matching the scalar
    reduction exactly.
    """
    x = (x >> np.uint64(61)) + (x & _U64_MASK61)
    x = (x >> np.uint64(61)) + (x & _U64_MASK61)
    return np.where(x >= _U64_MASK61, x - _U64_MASK61, x)


def mulmod_mersenne_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a * b) mod p`` for uint64 arrays of field residues.

    Splits each operand into 32-bit limbs so every partial product fits
    in uint64, then folds the 128-bit product down using ``2^61 = 1`` and
    ``2^64 = 8 (mod p)``.  The five reduced terms sum to under ``2^63``,
    so :func:`fold_mersenne_many` finishes the reduction exactly.
    """
    a_hi = a >> np.uint64(32)
    a_lo = a & _U64_MASK32
    b_hi = b >> np.uint64(32)
    b_lo = b & _U64_MASK32
    hi = a_hi * b_hi  # < 2^58
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
    lo = a_lo * b_lo  # full uint64 product, no wrap
    acc = (
        (hi << np.uint64(3))  # hi * 2^64 = hi * 8 (mod p)
        + (mid >> np.uint64(29))  # mid * 2^32 folded across bit 61
        + ((mid & _U64_MASK29) << np.uint64(32))
        + (lo >> np.uint64(61))
        + (lo & _U64_MASK61)
    )
    return fold_mersenne_many(acc)


def _field_residues(xs: np.ndarray) -> np.ndarray:
    """Non-negative integers reduced mod ``p``, as uint64.

    Integer arrays fold in bulk (exact below ``2^64``); any other dtype
    — object arrays of Python ints past 64 bits — reduces element by
    element in Python's exact arithmetic.  Negative inputs raise, as
    :meth:`PolynomialHash.__call__` does.
    """
    if xs.dtype.kind not in "iu":
        values = [int(x) for x in xs.ravel().tolist()]
        if values and min(values) < 0:
            raise ValueError("hash inputs must be non-negative")
        return np.array(
            [mod_mersenne(x) for x in values], dtype=np.uint64
        ).reshape(xs.shape)
    if xs.dtype.kind == "i" and xs.size and int(xs.min()) < 0:
        raise ValueError("hash inputs must be non-negative")
    return fold_mersenne_many(xs.astype(np.uint64))


def eval_stacked(coefficients: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate a stack of polynomials in one broadcast.

    ``coefficients[..., j]`` holds degree-``j`` coefficients (uint64
    field residues, lowest degree first, as
    :attr:`PolynomialHash.coefficients`); it broadcasts against ``xs``.
    Horner's rule runs once over the whole stack, so entry ``idx`` of
    the result is the polynomial ``coefficients[idx]`` at ``xs[idx]``,
    bit-identical to :meth:`PolynomialHash.__call__` (evaluation
    commutes with reducing the inputs mod ``p`` first).
    """
    x = _field_residues(xs)
    acc = coefficients[..., -1] + np.zeros_like(x)
    for j in range(coefficients.shape[-1] - 2, -1, -1):
        acc = fold_mersenne_many(
            mulmod_mersenne_many(acc, x) + coefficients[..., j]
        )
    return acc


class PolynomialHash:
    """A k-wise independent hash ``[n] -> [0, p)`` from a random polynomial.

    Evaluates ``a_{k-1} x^{k-1} + ... + a_1 x + a_0 mod p`` by Horner's rule.
    The leading coefficient is forced nonzero so the polynomial has full
    degree (required for exact k-wise independence of the standard
    construction).

    Parameters
    ----------
    degree:
        Number of coefficients ``k``; the resulting family is k-wise
        independent.  ``degree=2`` gives pairwise, ``degree=4`` 4-wise.
    rng:
        Source of randomness for the coefficients.
    """

    __slots__ = ("coefficients",)

    def __init__(self, degree: int, rng: random.Random):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        coeffs = [rng.randrange(MERSENNE_PRIME) for _ in range(degree)]
        if degree > 1:
            # Leading coefficient must be nonzero for full independence.
            coeffs[-1] = 1 + rng.randrange(MERSENNE_PRIME - 1)
        self.coefficients: tuple[int, ...] = tuple(coeffs)

    def __call__(self, x: int) -> int:
        """Evaluate the polynomial at ``x``; result lies in ``[0, p)``.

        ``x`` must be non-negative, as in :meth:`eval_many`: Python's
        arbitrary-precision arithmetic would otherwise return a negative
        "field value" that ``% width`` silently folds into some column.
        """
        if x < 0:
            raise ValueError("hash inputs must be non-negative")
        acc = 0
        for c in reversed(self.coefficients):
            acc = mod_mersenne(acc * x + c)
        return acc

    def eval_many(self, xs: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__`: evaluate at every element of ``xs``.

        :func:`eval_stacked` with this one polynomial: bit-identical to
        the scalar Horner loop for any non-negative inputs.
        """
        return eval_stacked(
            np.array(self.coefficients, dtype=np.uint64), np.asarray(xs)
        )

    def hash_array(self, xs: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized evaluation; alias of :meth:`eval_many`."""
        return self.eval_many(xs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolynomialHash(degree={len(self.coefficients)})"


def polynomial_hashes(
    count: int, degree: int, seed: int
) -> list[PolynomialHash]:
    """Create ``count`` independent :class:`PolynomialHash` functions."""
    rng = random.Random(seed)
    return [PolynomialHash(degree, rng) for _ in range(count)]


def batched(iterable: Iterable[int], size: int) -> Iterable[list[int]]:
    """Yield lists of at most ``size`` items from ``iterable``."""
    batch: list[int] = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch

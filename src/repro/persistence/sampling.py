"""Bulk uniform draws, bit-compatible with ``random.Random.random()``.

The sampled-AMS batch ingest path must accept exactly the same offers as
a scalar loop would, which means consuming exactly the same pseudo-random
numbers in exactly the same order.  Both CPython's ``random.Random`` and
numpy's legacy ``RandomState`` generator sit on the same Mersenne-Twister
core and derive each double identically from two consecutive 32-bit
outputs (``(a >> 5) * 2^26 + (b >> 6)) / 2^53``), so a block of draws can
be produced vectorized by transplanting the state into numpy, drawing,
and writing the advanced state back.
"""

from __future__ import annotations

import threading
from random import Random

import numpy as np

#: One numpy generator per thread: each call overwrites its whole state
#: with the caller's, so it never needs seeding or rebuilding.
_generators = threading.local()


def _generator() -> np.random.RandomState:
    generator = getattr(_generators, "rng", None)
    if generator is None:
        generator = _generators.rng = np.random.RandomState(0)  # sketchlint: disable=SL001 — every call overwrites its state with the caller's seeded Random
    return generator


def bulk_uniforms(rng: Random, n: int) -> np.ndarray:
    """Draw ``n`` uniforms exactly as ``[rng.random() for _ in range(n)]``.

    Returns a float64 array bit-equal to the scalar draws and leaves
    ``rng`` in exactly the state the scalar loop would have left it, so
    scalar and batch consumers can interleave freely.  Falls back to the
    scalar loop if the interpreter's state layout is unrecognized.
    """
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    state = rng.getstate()
    if state[0] != 3 or len(state[1]) != 625:
        return np.array([rng.random() for _ in range(n)], dtype=np.float64)
    np_rng = _generator()
    np_rng.set_state(
        ("MT19937", np.array(state[1][:624], dtype=np.uint32), state[1][624])
    )
    out = np_rng.random_sample(n)
    _, key, pos = np_rng.get_state(legacy=True)[:3]
    rng.setstate((3, tuple(key.tolist()) + (int(pos),), state[2]))
    return out

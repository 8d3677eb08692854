"""The array descent against the list-based reference descent.

``repro.core.heavy_hitters.descend`` scores a whole level in one call and
picks its survivors with numpy.  ``_reference_descend`` below is the
list-based descent it replaced, scoring one range per ``point`` call and
ranking ``(estimate, range)`` tuples; every structure's answer must equal
the reference's exactly, as a dict and in key order (the cap's ties, at
the cut and among survivors, are where the two could part).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.historical_heavy_hitters import HistoricalHeavyHitters
from repro.core.persistent_countmin import (
    PersistentCountMin,
    PWCCountMin,
    median_rows,
)
from repro.engine import freeze
from repro.streams.generators import zipf_stream

UNIVERSE = 2**10
#: Records land at ticks 1..GAP_START and GAP_END + 1.., so windows
#: inside (GAP_START, GAP_END] hold no mass: their threshold is 0.
GAP_START, GAP_END = 600, 900
LENGTH = 1200


def _reference_descend(levels, bits, universe, threshold, cap, estimates):
    """The list-based descent: ``estimates(level, ranges)`` is a list."""
    candidates = [0]
    scored = []
    for level in range(levels - 1, -1, -1):
        top = ((universe - 1) >> (bits * level)) + 1
        children = [
            child
            for parent in candidates
            for child in range(parent << bits, min((parent + 1) << bits, top))
        ]
        scored = [
            (estimate, child)
            for estimate, child in zip(estimates(level, children), children)
            if estimate >= threshold
        ]
        if len(scored) > cap:
            scored.sort(reverse=True)
            del scored[cap:]
        if not scored:
            return {}
        candidates = [child for _, child in scored]
    return {child: estimate for estimate, child in scored}


def _stream():
    stream = zipf_stream(LENGTH, universe=UNIVERSE, exponent=1.3, seed=23)
    times = np.arange(1, LENGTH + 1, dtype=np.int64)
    times[GAP_START:] += GAP_END - GAP_START
    stream.times = times
    return stream


_STRUCTURES: dict = {}


def _structures(fanout):
    """A live hierarchy of fan-out ``fanout`` (narrow, so its hashed
    levels collide), its frozen snapshot, and the historical one."""
    if fanout not in _STRUCTURES:
        stream = _stream()
        live = PersistentHeavyHitters(
            universe=UNIVERSE, width=24, depth=3, delta=4.0, seed=5,
            fanout=fanout,
        )
        live.ingest(stream)
        historical = HistoricalHeavyHitters(
            universe=UNIVERSE, width=24, depth=3, eps=0.05, seed=5
        )
        historical.ingest(stream)
        _STRUCTURES[fanout] = live, freeze(live), historical
    return _STRUCTURES[fanout]


def _cap(phi, max_candidates):
    return max_candidates or max(16, math.ceil(4.0 / phi))


windows = st.one_of(
    st.tuples(st.integers(0, LENGTH + GAP_END), st.integers(0, LENGTH + GAP_END)),
    st.tuples(st.integers(GAP_START, GAP_END), st.integers(GAP_START, GAP_END)),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    fanout=st.sampled_from([2, 4, 16]),
    phi=st.sampled_from([1e-4, 1e-3, 0.01, 0.05, 0.2, 0.6]),
    window=windows,
    max_candidates=st.sampled_from([None, 1, 2, 3, 5, 8]),
)
def test_array_descent_equals_the_reference(fanout, phi, window, max_candidates):
    live, frozen, historical = _structures(fanout)
    s, t = sorted(window)
    t = min(t, live.now)
    s = min(s, t)
    cap = _cap(phi, max_candidates)

    def reference(structure, threshold, s, t):
        return _reference_descend(
            structure.levels, structure._bits, UNIVERSE, threshold, cap,
            lambda level, ranges: [
                structure._sketches[level].point(r, s, t) for r in ranges
            ],
        )

    expected = reference(live, phi * live.window_mass(s, t), s, t)
    got = live.heavy_hitters(phi, s, t, max_candidates=max_candidates)
    assert list(got.items()) == list(expected.items())
    frozen_got = frozen.heavy_hitters(phi, s, t, max_candidates=max_candidates)
    assert list(frozen_got.items()) == list(
        reference(frozen, phi * frozen.window_mass(s, t), s, t).items()
    )
    assert list(frozen_got.items()) == list(got.items())
    historical_got = historical.heavy_hitters(phi, t, max_candidates=max_candidates)
    assert list(historical_got.items()) == list(
        reference(historical, phi * historical.mass(t), 0, t).items()
    )


def test_zero_mass_windows_saturate_the_cap_with_ties():
    """A window inside the gap has threshold 0, so every level keeps
    ``cap`` of its many tied ranges: the tie order must match too."""
    for fanout in (2, 4, 16):
        live, frozen, _ = _structures(fanout)
        s, t = GAP_START + 10, GAP_END - 10
        assert live.window_mass(s, t) == 0.0  # sketchlint: disable=SL002 — a PLA segment reads flat past its last point, so both ends of an update-free window read the same total: exactly 0
        for max_candidates in (1, 3, 7):
            cap = _cap(0.1, max_candidates)
            expected = _reference_descend(
                live.levels, live._bits, UNIVERSE, 0.0, cap,
                lambda level, ranges: [
                    live._sketches[level].point(r, s, t) for r in ranges
                ],
            )
            assert len(expected) == cap
            for structure in (live, frozen):
                got = structure.heavy_hitters(
                    0.1, s, t, max_candidates=max_candidates
                )
                assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("sketch_class", [PersistentCountMin, PWCCountMin])
def test_window_estimates_equal_point_per_item(depth, sketch_class):
    """A level scorer's values are ``point``'s, item by item, at odd and
    even depths (an even median averages two rows), live and frozen,
    with untracked items among them."""
    sketch = sketch_class(width=256, depth=depth, delta=2.0, seed=depth)
    sketch.ingest(_stream())
    frozen = freeze(sketch)
    items = np.arange(0, UNIVERSE, 7, dtype=np.int64)
    for s, t in [(0, sketch.now), (0, 0), (150, 640), (GAP_START, GAP_END)]:
        expected = [sketch.point(item, s, t) for item in items.tolist()]
        assert sketch.window_estimates(items, s, t).tolist() == expected
        assert frozen.window_estimates(items, s, t).tolist() == expected


@settings(max_examples=80, deadline=None)
@given(
    depth=st.integers(1, 8),
    n=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_median_rows_is_np_median(depth, n, seed, ties):
    """The row median the level scorers take is ``np.median(axis=0)``,
    bit for bit, on ties and at odd and even depths."""
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=1e3, size=(depth, n))
    if ties:
        values = np.round(values / 500) * 0.5
    assert median_rows(values).tolist() == np.median(values, axis=0).tolist()

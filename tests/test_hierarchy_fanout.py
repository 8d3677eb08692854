"""The heavy-hitter hierarchy at fan-outs 2, 4 and 16.

A hierarchy of fan-out ``b`` keeps ``ceil(log_b n)`` levels and no root:
level ``l`` counts the ranges ``item >> (l log2 b)``.  These properties
must hold at every fan-out, on the live structure and on its frozen
snapshot:

- Theorem 3.2's recall: every item whose true window frequency reaches
  ``(phi + eps) ||f_{s,t}||_1`` plus the persistence error is returned
  (each of its ancestors is at least as heavy, so the descent keeps it);
- frozen == live and batch == scalar, bit for bit, in heavy hitters,
  point estimates, window mass, range sums and quantiles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.heavy_hitters import PersistentHeavyHitters, fanout_bits
from repro.core.quantiles import PersistentQuantiles
from repro.engine import freeze

FANOUTS = (2, 4, 16)
UNIVERSE = 1024
WIDTH = 128
DEPTH = 4
DELTA = 4.0


def hierarchy(fanout: int, seed: int = 3) -> PersistentHeavyHitters:
    return PersistentHeavyHitters(
        universe=UNIVERSE, width=WIDTH, depth=DEPTH, delta=DELTA, seed=seed,
        fanout=fanout,
    )


@st.composite
def skewed_records(draw):
    """Columns of a cash-register stream over ``[0, UNIVERSE)``: a few
    hot items mixed with uniform background, counts 1-3, strictly
    increasing times with gaps."""
    hot = draw(st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=4))
    n = draw(st.integers(20, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    items = np.where(
        rng.random(n) < 0.6,
        rng.choice(np.array(hot), size=n),
        rng.integers(0, UNIVERSE, size=n),
    ).astype(np.int64)
    counts = rng.integers(1, 4, size=n).astype(np.int64)
    times = np.cumsum(rng.integers(1, 3, size=n)).astype(np.int64)
    return times, items, counts


def window_truth(times, items, counts, s, t) -> np.ndarray:
    inside = (times > s) & (times <= t)
    return np.bincount(items[inside], weights=counts[inside], minlength=UNIVERSE)


@pytest.mark.parametrize("fanout", FANOUTS)
def test_level_layout(fanout):
    """``ceil(log_b n)`` levels, none of them a root: the top level has
    between 2 and ``b`` ranges, and a level counts ``item >> (l log2 b)``."""
    for universe in (2, 3, 200, 1024, 2**16, 2**16 + 1):
        hh = PersistentHeavyHitters(
            universe=universe, width=64, depth=2, delta=1.0, fanout=fanout
        )
        bits = fanout_bits(fanout)
        assert hh.levels == math.ceil((universe - 1).bit_length() / bits)
        top = ((universe - 1) >> (bits * (hh.levels - 1))) + 1
        assert 2 <= top <= fanout
        hh.update(universe - 1, 1, 1)
        for level, sketch in enumerate(hh._sketches):
            assert sketch.point((universe - 1) >> (bits * level)) >= 1


@pytest.mark.parametrize("fanout", (0, 1, 3, 6, 2.0, True))
def test_fanout_must_be_a_power_of_two(fanout):
    with pytest.raises(ValueError, match="power of two"):
        hierarchy(fanout)


@pytest.mark.parametrize("fanout", FANOUTS)
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(records=skewed_records(), cut=st.floats(0.0, 0.6))
def test_theorem_3_2_recall_live_and_frozen(fanout, records, cut):
    """Every item with ``f_i(s, t] >= (phi + eps) (W + 2 Delta) + 2 Delta``
    is returned.  A Count-Min range estimate of a cash-register stream
    never falls below its true count by more than the persistence error
    of its two window ends (``2 Delta``), and the threshold's window mass
    carries the same error: each ancestor of such an item clears it."""
    times, items, counts = records
    hh = hierarchy(fanout)
    hh.ingest_batch(times, items, counts)
    frozen = freeze(hh)
    t = int(times[-1])
    s = int(cut * t)
    truth = window_truth(times, items, counts, s, t)
    mass = float(truth.sum())
    eps = math.e / WIDTH
    for phi in (0.05, 0.1, 0.25):
        bound = (phi + eps) * (mass + 2 * DELTA) + 2 * DELTA
        must = set(np.flatnonzero(truth >= bound).tolist())
        live = hh.heavy_hitters(phi, s, t)
        assert must <= set(live), (phi, must - set(live))
        assert frozen.heavy_hitters(phi, s, t) == live


@pytest.mark.parametrize("fanout", FANOUTS)
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(records=skewed_records(), data=st.data())
def test_batch_equals_scalar_and_frozen_equals_live(fanout, records, data):
    times, items, counts = records
    batch = hierarchy(fanout)
    batch.ingest_batch(times, items, counts)
    scalar = hierarchy(fanout)
    for time, item, count in zip(times.tolist(), items.tolist(), counts.tolist()):
        scalar.update(item, count, time)
    frozen = freeze(batch)
    t = int(times[-1])
    s = data.draw(st.integers(0, t - 1))
    lo = data.draw(st.integers(0, UNIVERSE - 1))
    hi = data.draw(st.integers(lo, UNIVERSE - 1))
    for phi in (0.02, 0.1):
        got = batch.heavy_hitters(phi, s, t)
        assert got == scalar.heavy_hitters(phi, s, t)
        assert frozen.heavy_hitters(phi, s, t) == got
        capped = batch.heavy_hitters(phi, s, t, max_candidates=2)
        assert frozen.heavy_hitters(phi, s, t, max_candidates=2) == capped
    assert batch.range_sum(lo, hi, s, t) == scalar.range_sum(lo, hi, s, t)
    assert frozen.window_mass(s, t) == batch.window_mass(s, t)
    probes = data.draw(st.lists(st.integers(0, UNIVERSE - 1), max_size=80))
    assert frozen.point_many(probes, (s, t)).tolist() == [
        batch.point(item, s, t) for item in probes
    ]
    quantiles = [PersistentQuantiles(hierarchy=h) for h in (batch, scalar)]
    assert quantiles[0].quantiles([0.1, 0.5, 0.9], s, t) == quantiles[
        1
    ].quantiles([0.1, 0.5, 0.9], s, t)


@pytest.mark.parametrize("fanout", FANOUTS)
def test_range_sum_is_the_b_adic_decomposition(fanout):
    """A range sum adds level estimates of aligned blocks: with exact
    levels and a negligible persistence error, it is the exact window
    count; the whole universe is the window mass."""
    rng = np.random.default_rng(fanout)
    n = 600
    items = rng.integers(0, 300, size=n).astype(np.int64)
    counts = np.ones(n, dtype=np.int64)
    times = np.arange(1, n + 1, dtype=np.int64)
    hh = PersistentHeavyHitters(
        universe=300, width=512, depth=1, delta=1e-9, fanout=fanout
    )
    hh.ingest_batch(times, items, counts)
    truth = np.bincount(items, minlength=300)
    for lo, hi in ((0, 0), (0, 298), (1, 299), (17, 17), (5, 250), (255, 256)):
        exact = truth[lo : hi + 1].sum()
        assert hh.range_sum(lo, hi) == pytest.approx(exact, abs=1e-6)
    assert hh.range_sum(0, 299) == hh.window_mass()

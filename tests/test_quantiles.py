"""Tests for historical window quantiles and range counts."""

import numpy as np
import pytest

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.quantiles import PersistentQuantiles
from repro.streams.model import Stream


@pytest.fixture(scope="module")
def values_and_quantiles():
    """A stream of numeric readings with a known distribution shift."""
    rng = np.random.default_rng(111)
    first = rng.integers(100, 200, size=3000)  # early regime
    second = rng.integers(600, 700, size=3000)  # late regime
    items = np.concatenate([first, second])
    stream = Stream(items=items, universe=1024)
    quantiles = PersistentQuantiles(
        universe=1024, width=1024, depth=4, delta=8
    )
    quantiles.ingest(stream)
    return items, quantiles


def true_quantile(values, phi):
    ordered = np.sort(values)
    idx = min(len(ordered) - 1, int(phi * len(ordered)))
    return int(ordered[idx])


class TestRank:
    def test_rank_monotone_in_value(self, values_and_quantiles):
        _, quantiles = values_and_quantiles
        ranks = [quantiles.rank(v) for v in (50, 150, 400, 650, 1023)]
        assert ranks == sorted(ranks)

    def test_rank_endpoints(self, values_and_quantiles):
        items, quantiles = values_and_quantiles
        assert quantiles.rank(1023) == pytest.approx(len(items), rel=0.05)
        assert quantiles.rank(50) <= 0.02 * len(items)

    def test_rank_validation(self, values_and_quantiles):
        _, quantiles = values_and_quantiles
        with pytest.raises(ValueError):
            quantiles.rank(-1)
        with pytest.raises(ValueError):
            quantiles.rank(1024)


class TestRangeCount:
    def test_window_range_count(self, values_and_quantiles):
        items, quantiles = values_and_quantiles
        # First half of the stream: values all in [100, 200).
        estimate = quantiles.range_count(100, 199, s=0, t=3000)
        assert estimate == pytest.approx(3000, rel=0.1)
        assert quantiles.range_count(600, 699, s=0, t=3000) <= 300


class TestQuantiles:
    def test_median_shifts_with_window(self, values_and_quantiles):
        items, quantiles = values_and_quantiles
        early = quantiles.median(s=0, t=3000)
        late = quantiles.median(s=3000, t=6000)
        overall = quantiles.median()
        assert 100 <= early <= 210
        assert 590 <= late <= 710
        # Median of the union falls between the regimes' boundaries.
        assert 150 <= overall <= 700

    def test_quantiles_track_truth(self, values_and_quantiles):
        items, quantiles = values_and_quantiles
        for phi in (0.1, 0.25, 0.75, 0.9):
            estimate = quantiles.quantile(phi)
            truth = true_quantile(items, phi)
            # Rank error translates to a small phi offset; compare ranks.
            true_rank = np.searchsorted(np.sort(items), estimate, "right")
            assert abs(true_rank / len(items) - phi) < 0.08

    def test_batch_quantiles_sorted(self, values_and_quantiles):
        _, quantiles = values_and_quantiles
        batch = quantiles.quantiles([0.1, 0.5, 0.9])
        assert batch == sorted(batch)

    def test_phi_validation(self, values_and_quantiles):
        _, quantiles = values_and_quantiles
        with pytest.raises(ValueError):
            quantiles.quantile(1.5)


class TestConstruction:
    def test_requires_universe_or_hierarchy(self):
        with pytest.raises(ValueError):
            PersistentQuantiles()

    def test_shared_hierarchy(self, values_and_quantiles):
        """Quantiles and heavy hitters can share one index."""
        items, _ = values_and_quantiles
        hierarchy = PersistentHeavyHitters(
            universe=1024, width=1024, depth=4, delta=8
        )
        hierarchy.ingest(Stream(items=items, universe=1024))
        quantiles = PersistentQuantiles(hierarchy=hierarchy)
        assert quantiles.universe == 1024
        assert 100 <= quantiles.median(s=0, t=3000) <= 210
        assert quantiles.persistence_words() == hierarchy.persistence_words()


@pytest.mark.parametrize("fanout", (2, 4, 16))
def test_quantile_rank_error_at_every_fanout(fanout):
    """The top-down walk returns a value whose exact window rank lies
    near ``phi * W``.  Its error is the sum of the probes it adds up
    (at most ``b - 1`` per level), each a Count-Min overestimate of at
    most ``eps W`` (``eps = e / 256``) at a hashed level, plus ``2 Delta``
    of persistence error.  That worst case is loose; the observed error
    is at most ~1.1% of ``W`` at every fan-out here, and 3% pins it."""
    rng = np.random.default_rng(fanout)
    n = 6000
    items = (np.minimum(rng.zipf(1.2, size=n), 585) * 7).astype(np.int64)
    items[::3] = rng.integers(0, 4096, size=len(items[::3]))
    hierarchy = PersistentHeavyHitters(
        universe=4096, width=256, depth=4, delta=4, fanout=fanout
    )
    hierarchy.ingest(Stream(items=items, universe=4096))
    quantiles = PersistentQuantiles(hierarchy=hierarchy)
    for s, t in ((0, n), (1500, 4500)):
        window = np.sort(items[s:t])
        mass = len(window)
        for phi in (0.01, 0.25, 0.5, 0.9, 0.99):
            value = quantiles.quantile(phi, s, t)
            # `value` is the smallest whose rank reaches phi * W: the
            # items below it fall short of the target, those through it
            # reach it, up to the estimation error.
            below = np.searchsorted(window, value, "left")
            through = np.searchsorted(window, value, "right")
            assert below <= phi * mass + 0.03 * mass, (phi, below)
            assert through >= phi * mass - 0.03 * mass, (phi, through)

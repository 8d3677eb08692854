"""Tests for the anchored (suboptimal) swing-filter PLA."""

import numpy as np
import pytest

from repro.pla.orourke import OnlinePLA
from repro.pla.swing import SwingPLA


def random_walk_points(n=2000, p=0.4, seed=0):
    rng = np.random.default_rng(seed)
    points, v = [], 0.0
    for t in range(1, n + 1):
        v += float(rng.choice([-1, 0, 1], p=[p / 2, 1 - p, p / 2]))
        points.append((t, v))
    return points


class TestCorrectness:
    def test_all_points_within_delta(self):
        delta = 3.0
        swing = SwingPLA(delta=delta)
        points = random_walk_points(seed=1)
        for t, v in points:
            swing.feed(t, v)
        swing.finalize()
        for t, v in points:
            assert abs(swing.value_at(t) - v) <= delta + 1e-6

    def test_single_point(self):
        swing = SwingPLA(delta=1.0)
        swing.feed(5, 9.0)
        swing.finalize()
        assert swing.value_at(5) == 9.0

    def test_exact_line_single_segment(self):
        swing = SwingPLA(delta=0.5)
        for t in range(1, 100):
            swing.feed(t, 3.0 * t)
        assert len(swing.finalize()) == 1

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            SwingPLA(delta=0)
        swing = SwingPLA(delta=1.0)
        swing.feed(1, 0.0)
        swing.feed(2, 0.0)
        with pytest.raises(ValueError):
            swing.feed(2, 0.0)

    def test_segment_count_includes_open_run(self):
        swing = SwingPLA(delta=1.0)
        swing.feed(1, 0.0)
        assert swing.segment_count() == 1


class TestAblation:
    def test_never_beats_optimal(self):
        """O'Rourke is optimal: the anchored filter can only match or
        exceed its segment count."""
        for seed in range(5):
            points = random_walk_points(n=1500, seed=seed)
            optimal = OnlinePLA(delta=2.0)
            anchored = SwingPLA(delta=2.0)
            for t, v in points:
                optimal.feed(t, v)
                anchored.feed(t, v)
            n_optimal = len(optimal.finalize())
            n_anchored = len(anchored.finalize())
            assert n_anchored >= n_optimal

    def test_anchored_pays_on_drifting_walks(self):
        """On at least some realistic counters the gap is material —
        the reason the paper uses the optimal algorithm."""
        gaps = []
        for seed in range(8):
            points = random_walk_points(n=3000, p=0.8, seed=seed)
            optimal = OnlinePLA(delta=3.0)
            anchored = SwingPLA(delta=3.0)
            for t, v in points:
                optimal.feed(t, v)
                anchored.feed(t, v)
            gaps.append(
                len(anchored.finalize()) - len(optimal.finalize())
            )
        assert sum(gaps) > 0

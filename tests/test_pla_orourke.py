"""Tests for O'Rourke's online PLA: correctness, optimality, reads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.pla.orourke import OnlinePLA
from repro.persistence.column_log import PLA, ColumnLog
from repro.pla.segment import Segment


def brute_force_feasible(points: list[tuple[int, float]], delta: float) -> bool:
    """LP check: does a single line pass within delta of all points?"""
    a_ub, b_ub = [], []
    for t, v in points:
        a_ub.append([t, 1.0])
        b_ub.append(v + delta)
        a_ub.append([-t, -1.0])
        b_ub.append(-(v - delta))
    res = linprog(
        [0.0, 0.0], A_ub=a_ub, b_ub=b_ub,
        bounds=[(None, None), (None, None)], method="highs",
    )
    return res.status == 0


def brute_force_segments(points: list[tuple[int, float]], delta: float) -> int:
    """Optimal greedy segment count via LP feasibility (slow reference)."""
    count, current = 0, []
    for p in points:
        current.append(p)
        if not brute_force_feasible(current, delta):
            count += 1
            current = [p]
    return count + (1 if current else 0)


def feed_all(points, delta):
    pla = OnlinePLA(delta=delta)
    for t, v in points:
        pla.feed(t, v)
    return pla


class TestCorrectness:
    def test_single_point_run(self):
        pla = feed_all([(5, 3.0)], delta=1.0)
        fn = pla.finalize()
        assert len(fn) == 1
        assert pla.value_at(5) == 3.0

    def test_exact_line_is_one_segment(self):
        points = [(t, 2.0 * t + 1) for t in range(1, 200)]
        pla = feed_all(points, delta=0.5)
        fn = pla.finalize()
        assert len(fn) == 1
        for t, v in points:
            assert pla.value_at(t) == pytest.approx(v, abs=0.5 + 1e-9)

    def test_step_function_needs_segments(self):
        # Counter jumps by 10 > 2*delta each step: one run can still hold
        # them on a line, but a zig-zag cannot.
        points = [(1, 0.0), (2, 10.0), (3, 0.0), (4, 10.0), (5, 0.0)]
        pla = feed_all(points, delta=1.0)
        fn = pla.finalize()
        assert len(fn) >= 2

    def test_all_points_within_delta(self):
        rng = np.random.default_rng(7)
        delta = 4.0
        points = []
        v, t = 0.0, 0
        for _ in range(3000):
            t += int(rng.integers(1, 4))
            v += float(rng.choice([-1, 1]))
            points.append((t, v))
        pla = feed_all(points, delta)
        pla.finalize()
        for t, v in points:
            assert abs(pla.value_at(t) - v) <= delta + 1e-6

    def test_monotone_counter_within_delta(self):
        rng = np.random.default_rng(3)
        delta = 3.0
        points = []
        v = 0
        for t in range(1, 2000):
            if rng.random() < 0.4:
                v += 1
                points.append((t, float(v)))
        pla = feed_all(points, delta)
        pla.finalize()
        for t, v in points:
            assert abs(pla.value_at(t) - v) <= delta + 1e-6


class TestOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_lp_reference_on_walks(self, seed):
        rng = np.random.default_rng(seed)
        delta = 2.0
        points = []
        v = 0.0
        for t in range(1, 120):
            v += float(rng.choice([-1.0, 0.0, 1.0]))
            points.append((t, v))
        pla = feed_all(points, delta)
        fn = pla.finalize()
        assert len(fn) == brute_force_segments(points, delta)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=2, max_size=40
        ),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_optimal_and_correct_on_arbitrary_walks(self, deltas_v, delta):
        points = []
        v = 0.0
        for t, dv in enumerate(deltas_v, start=1):
            v += dv
            points.append((t, v))
        pla = feed_all(points, delta)
        fn = pla.finalize()
        assert len(fn) == brute_force_segments(points, delta)
        for t, v in points:
            assert abs(pla.value_at(t) - v) <= delta + 1e-6


class TestReads:
    def test_value_before_first_point_is_initial(self):
        pla = OnlinePLA(delta=1.0, initial_value=7.0)
        pla.feed(10, 20.0)
        assert pla.value_at(3) == 7.0

    def test_open_run_read_within_delta(self):
        delta = 2.0
        pla = OnlinePLA(delta=delta)
        points = [(t, float(t // 2)) for t in range(1, 50)]
        for t, v in points:
            pla.feed(t, v)
        # Nothing finalized, but reads must still be accurate.
        for t, v in points:
            assert abs(pla.value_at(t) - v) <= delta + 1e-6

    def test_read_in_gap_clamps_to_last_value(self):
        pla = OnlinePLA(delta=0.5)
        pla.feed(1, 1.0)
        pla.feed(2, 2.0)
        pla.finalize()
        # No changes between t=2 and any later time: value holds.
        assert pla.value_at(100) == pytest.approx(2.0, abs=0.5 + 1e-9)

    def test_read_beyond_open_run_clamps(self):
        pla = OnlinePLA(delta=0.5)
        pla.feed(1, 1.0)
        pla.feed(2, 2.0)
        assert pla.value_at(50) == pytest.approx(2.0, abs=0.5 + 1e-9)


class TestInterface:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            OnlinePLA(delta=0.0)

    def test_rejects_non_increasing_times(self):
        pla = OnlinePLA(delta=1.0)
        pla.feed(1, 1.0)
        pla.feed(2, 2.0)
        with pytest.raises(ValueError):
            pla.feed(2, 3.0)

    def test_finalize_is_idempotent(self):
        pla = OnlinePLA(delta=1.0)
        pla.feed(1, 1.0)
        fn = pla.finalize()
        n = len(fn)
        assert len(pla.finalize()) == n

    def test_feed_after_finalize_starts_new_run(self):
        pla = OnlinePLA(delta=1.0)
        pla.feed(1, 1.0)
        pla.finalize()
        pla.feed(10, 100.0)
        assert len(pla.finalize()) == 2
        assert pla.value_at(10) == pytest.approx(100.0, abs=1.0)

    def test_words_counts_emitted_segments_only(self):
        pla = OnlinePLA(delta=1.0)
        pla.feed(1, 1.0)
        assert pla.words() == 0  # open run is live state, not archive
        assert pla.segment_count() == 1
        assert pla.segment_count(include_open=False) == 0
        pla.finalize()
        assert pla.words() == 3

    def test_on_segment_callback(self):
        """Emitted segments are rows of the tracker's log, under its key,
        at the positions ``finalize`` returns."""
        pla = OnlinePLA(delta=0.5, log=ColumnLog(PLA), key=7)
        pla.feed(1, 0.0)
        pla.feed(2, 10.0)
        pla.feed(3, 0.0)
        positions = pla.finalize()
        assert len(positions) >= 2
        assert list(pla.log.keys) == [7] * len(positions)
        segments = [Segment(*row) for row in zip(*pla.log.rows(pla))]
        assert segments[0].t_start == 1 and segments[-1].t_end == 3
        for t, v in ((1, 0.0), (2, 10.0), (3, 0.0)):
            assert pla.value_at(t) == pytest.approx(v, abs=0.5 + 1e-9)

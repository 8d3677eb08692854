"""Tests for segment and record rows in a column log, and the
piecewise-constant recorder."""

from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.persistence.column_log import PLA, ColumnLog
from repro.pla.piecewise_constant import OnlinePWC
from repro.pla.segment import Segment


class TestSegment:
    def test_evaluation(self):
        seg = Segment(t_start=10, t_end=20, slope=2.0, value_at_start=5.0)
        assert seg(10) == 5.0
        assert seg(15) == 15.0

    def test_clamping(self):
        seg = Segment(t_start=10, t_end=20, slope=1.0, value_at_start=0.0)
        assert seg.evaluate_clamped(5) == 0.0
        assert seg.evaluate_clamped(25) == 10.0
        assert seg.evaluate_clamped(12) == 2.0

    def test_immutability(self):
        seg = Segment(t_start=0, t_end=1, slope=0.0, value_at_start=0.0)
        with pytest.raises(AttributeError):
            seg.slope = 1.0  # type: ignore[misc]


def _component(key=0, initial_value=0.0):
    """What a log needs of a component: its key, initial value and the
    positions and times of its rows."""
    return SimpleNamespace(
        key=key, initial_value=initial_value, _pos=array("q"), _times=array("q")
    )


def _segments(*rows, initial_value=0.0):
    """A PLA column log holding ``rows`` as one component's segments."""
    log = ColumnLog(PLA)
    component = _component(initial_value=initial_value)
    for row in rows:
        log.append(component, *row)
    return log, component


class TestPiecewiseLinearFunction:
    """Reads of PLA segment rows in a column log."""

    def test_initial_value_before_first_segment(self):
        log, fn = _segments((10, 20, 0.0, 1.0), initial_value=9.0)
        assert log.segment_at(fn, 5) == 9.0
        assert log.segment_at(fn, 15) == 1.0

    def test_segment_selection(self):
        log, fn = _segments((0, 10, 1.0, 0.0), (20, 30, 0.0, 99.0))
        assert log.segment_at(fn, 5) == 5.0
        assert log.segment_at(fn, 15) == 10.0  # gap: clamped to first segment end
        assert log.segment_at(fn, 25) == 99.0
        assert log.segment_at(fn, 1000) == 99.0

    def test_rejects_out_of_order_appends(self):
        log, fn = _segments((10, 20, 0.0, 0.0))
        with pytest.raises(ValueError):
            log.append(fn, 10, 25, 0.0, 0.0)
        # Another component's rows interleave freely.
        log.append(_component(key=1), 3, 4, 0.0, 0.0)
        assert len(log) == 2

    def test_words_accounting(self):
        log, fn = _segments()
        assert log.words() == 0
        log, fn = _segments((0, 1, 0.0, 0.0), (2, 3, 0.0, 0.0))
        assert log.words() == 6
        assert len(fn._pos) == 2
        assert log.rows(fn) == ([0, 2], [1, 3], [0.0, 0.0], [0.0, 0.0])


class TestPiecewiseConstantFunction:
    """Records made with ``OnlinePWC.record``: rows of its column log,
    read back by the predecessor read."""

    def test_predecessor_read(self):
        fn = OnlinePWC(delta=1.0)
        fn.record(5, 10.0)
        fn.record(9, 20.0)
        assert fn.value_at(4) == 0.0
        assert fn.value_at(5) == 10.0
        assert fn.value_at(8) == 10.0
        assert fn.value_at(100) == 20.0
        assert fn.log.rows(fn) == ([5, 9], [10.0, 20.0])

    def test_rejects_out_of_order(self):
        fn = OnlinePWC(delta=1.0)
        fn.record(5, 1.0)
        with pytest.raises(ValueError):
            fn.record(5, 2.0)
        with contracts.enforced(False), pytest.raises(ValueError):
            fn.log.append(fn, 5, 2.0)

    def test_words(self):
        fn = OnlinePWC(delta=1.0)
        fn.record(1, 1.0)
        fn.record(2, 2.0)
        assert fn.words() == 4 == fn.log.words()


class TestOnlinePWC:
    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            OnlinePWC(delta=0)

    def test_records_only_on_deviation(self):
        pwc = OnlinePWC(delta=5.0)
        for t, v in enumerate([1, 2, 3, 4, 5], start=1):
            pwc.feed(t, float(v))
        assert pwc.record_count() == 0  # never deviated by > 5
        pwc.feed(6, 7.0)
        assert pwc.record_count() == 1

    def test_read_error_bounded_by_delta(self):
        """Invariant: |recorded read - true value| <= delta at feed times."""
        import numpy as np

        rng = np.random.default_rng(11)
        delta = 7.0
        pwc = OnlinePWC(delta=delta)
        values = {}
        v = 0.0
        for t in range(1, 2000):
            v += float(rng.choice([-1, 0, 1]))
            pwc.feed(t, v)
            values[t] = v
        for t, v in values.items():
            assert abs(pwc.value_at(t) - v) <= delta

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=100),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_error_bound_property(self, steps, delta):
        pwc = OnlinePWC(delta=delta)
        v = 0.0
        history = []
        for t, dv in enumerate(steps, start=1):
            v += dv
            pwc.feed(t, v)
            history.append((t, v))
        for t, v in history:
            assert abs(pwc.value_at(t) - v) <= delta

    def test_space_cliff_below_delta(self):
        """Counters that never exceed delta cost zero words (Fig. 3b)."""
        pwc = OnlinePWC(delta=100.0)
        for t in range(1, 50):
            pwc.feed(t, float(t))  # max value 49 < 100
        assert pwc.words() == 0

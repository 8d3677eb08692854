"""Tests for the uniform counter-tracker interface."""

import pytest

from repro.persistence.tracker import CounterTracker
from repro.pla.orourke import OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(OnlinePLA, id="PLATracker"),
        pytest.param(OnlinePWC, id="PWCTracker"),
    ],
)
class TestConformance:
    def test_is_counter_tracker(self, factory):
        assert isinstance(factory(delta=2.0), CounterTracker)

    def test_read_error_bounded(self, factory):
        delta = 3.0
        tracker = factory(delta=delta)
        values = {}
        v = 0.0
        for t in range(1, 500):
            v += (t * 7919) % 3 - 1  # deterministic pseudo-walk in {-1,0,1}
            tracker.feed(t, v)
            values[t] = v
        tracker.finalize()
        for t, v in values.items():
            assert abs(tracker.value_at(t) - v) <= delta + 1

    def test_initial_value(self, factory):
        tracker = factory(delta=1.0, initial_value=42.0)
        assert tracker.value_at(10) == 42.0

    def test_words_non_negative(self, factory):
        tracker = factory(delta=1.0)
        assert tracker.words() >= 0
        for t in range(1, 100):
            tracker.feed(t, float(t * 5))
        tracker.finalize()
        assert tracker.words() > 0


class TestSpecifics:
    def test_pla_segment_count(self):
        tracker = OnlinePLA(delta=1.0)
        tracker.feed(1, 0.0)
        assert tracker.segment_count() == 1

    def test_pwc_record_count(self):
        tracker = OnlinePWC(delta=1.0)
        tracker.feed(1, 10.0)
        assert tracker.record_count() == 1
        tracker.feed(2, 10.5)  # within delta: not recorded
        assert tracker.record_count() == 1

"""Tests for the sampled counter histories (Section 4.1)."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persistence.column_log import HISTORY, ColumnLog
from repro.persistence.history_list import SampledHistoryList


class TestValidation:
    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_invalid_probability(self, p):
        with pytest.raises(ValueError):
            SampledHistoryList(probability=p, rng=Random(0))


class TestSampling:
    def test_probability_one_records_everything(self):
        history = SampledHistoryList(probability=1.0, rng=Random(1))
        for t in range(1, 101):
            history.offer(t, t)
        assert len(history) == 100

    def test_sampling_rate_statistics(self):
        history = SampledHistoryList(probability=0.1, rng=Random(2))
        n = 20_000
        for t in range(1, n + 1):
            history.offer(t, t)
        # Binomial(20000, 0.1): mean 2000, sd ~ 42; allow 6 sigma.
        assert abs(len(history) - 2000) < 260

    def test_force_sample(self):
        history = SampledHistoryList(probability=0.001, rng=Random(3))
        history.force_sample(5, 42)
        assert len(history) == 1
        assert history.last_sampled_at(10) == (5, 42)


class TestEstimates:
    def test_no_predecessor_returns_initial(self):
        history = SampledHistoryList(
            probability=0.5, rng=Random(4), initial_value=7
        )
        assert history.estimate_at(100) == 7.0

    def test_compensation_applied(self):
        delta = 10
        history = SampledHistoryList(probability=1.0 / delta, rng=Random(5))
        history.force_sample(3, 20)
        assert history.estimate_at(3) == 20 + delta - 1
        assert history.estimate_at(2) == 0.0

    def test_compensation_reads_a_shared_log(self):
        """Lists of one sketch share a column log; each reads only its
        own rows, however they interleave."""
        delta = 4
        log = ColumnLog(HISTORY)
        a = SampledHistoryList(1.0 / delta, Random(5), 2, log, key=0)
        b = SampledHistoryList(1.0 / delta, Random(5), 0, log, key=1)
        a.force_sample(3, 20)
        b.force_sample(4, 7)
        a.force_sample(6, 30)
        assert len(log) == 3 and list(log.keys) == [0, 1, 0]
        assert a.estimate_at(2) == 2.0  # sketchlint: disable=SL002 — no predecessor: the initial value, verbatim
        assert a.estimate_at(5) == 20 + delta - 1
        assert a.estimate_at(9) == 30 + delta - 1
        assert b.estimate_at(9) == 7 + delta - 1
        assert a.sample_times() == [3, 6]
        assert log.rows(a) == ([3, 6], [20, 30])

    def test_predecessor_selection(self):
        history = SampledHistoryList(probability=1.0, rng=Random(6))
        history.force_sample(1, 10)
        history.force_sample(5, 50)
        assert history.last_sampled_at(4) == (1, 10)
        assert history.last_sampled_at(5) == (5, 50)
        assert history.last_sampled_at(0) is None

    def test_unbiasedness_of_compensated_estimate(self):
        """Lemma A.5: E[estimate - truth] = 0 over the sampling randomness.

        Simulates many independent history lists over the same monotone
        counter and checks the empirical mean of the estimate at a fixed
        time against the true counter value.
        """
        delta = 8
        truth_at_t = 200
        total = 0.0
        runs = 400
        for seed in range(runs):
            history = SampledHistoryList(
                probability=1.0 / delta, rng=Random(seed)
            )
            for value in range(1, truth_at_t + 1):
                history.offer(value, value)  # counter = time here
            total += history.estimate_at(truth_at_t)
        mean = total / runs
        # sd per run <= delta (Lemma A.5: E[X^2] <= 1/p^2); mean sd ~ delta/20.
        assert abs(mean - truth_at_t) < 5 * delta / runs**0.5 + 1.0

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=50))
    def test_estimate_monotone_in_time(self, n):
        """With all values sampled, estimates are monotone for a monotone
        counter."""
        history = SampledHistoryList(probability=1.0, rng=Random(9))
        for t in range(1, n + 1):
            history.offer(t, t)
        estimates = [history.estimate_at(t) for t in range(1, n + 1)]
        assert estimates == sorted(estimates)


class TestAccounting:
    def test_words(self):
        history = SampledHistoryList(probability=1.0, rng=Random(10))
        history.offer(1, 1)
        history.offer(2, 2)
        assert history.words() == 4

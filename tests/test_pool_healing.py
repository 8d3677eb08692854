"""WorkerPool self-healing edge cases, exercised at the pool layer.

``tests/test_parallel.py`` pins the sketch-level contract (a killed
worker heals bit-identically); this suite drives the raw
:class:`~repro.parallel.pool.WorkerPool` through the mechanisms behind
it: reply-deadline detection of hung workers, journal replay on
respawn, scripted respawn failures exhausting the budget into the
inline serial fallback, deterministic handler bugs poisoning the pool
(never retried into a wrong answer), and ``close(terminate=True)``
escalation.  Fault scripting goes through
:func:`~repro.parallel.pool.pool_faults` with a
:class:`~repro.runtime.faults.FaultPlan` — the same plan object the
chaos matrix drives end to end.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.parallel import (
    IngestError,
    WorkerPool,
    fork_available,
    pool_faults,
)
from repro.runtime import FaultPlan

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool requires os.fork"
)


class SumHandler:
    """Minimal handler: accumulates fed integers, collects the total.

    The journal-replay contract is observable through it: the collect
    total equals the sum of every payload ever fed since the last
    collect, no matter how many times the worker died in between.
    """

    def __init__(self, index=0, nworkers=0):
        self.index = index
        self.total = 0

    def feed(self, payload):
        self.total += int(payload)

    def collect(self):
        return self.total


class FlakyOnceFactory:
    """Builds handlers that fail once per marker file, then work.

    Models a transient in-worker failure: the first incarnation trips
    (leaving the marker on shared disk), the *respawned* worker re-runs
    the journal and succeeds — healing, not poisoning, is the right
    outcome.
    """

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, index, nworkers):
        factory = self

        class FlakyOnce(SumHandler):
            def feed(self, payload):
                if payload == 13 and not factory.marker.exists():
                    factory.marker.write_text("tripped")
                    raise RuntimeError("transient glitch on 13")
                super().feed(payload)

        return FlakyOnce(index, nworkers)


class AlwaysRaisesHandler(SumHandler):
    """Deterministic bug: every incarnation raises on the same input."""

    def feed(self, payload):
        if payload == 13:
            raise RuntimeError("deterministic bug on 13")
        super().feed(payload)


def make_pool(**kwargs):
    kwargs.setdefault("nworkers", 2)
    kwargs.setdefault("handler_factory", SumHandler)
    kwargs.setdefault("sleep", lambda _t: None)
    return WorkerPool(kwargs.pop("nworkers"), kwargs.pop("handler_factory"), **kwargs)


def wait_for_death(pid):
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# --------------------------------------------------------------------- #
# Healthy-path journal semantics
# --------------------------------------------------------------------- #


def test_feed_collect_roundtrip_and_journal_lifecycle():
    pool = make_pool()
    try:
        pool.feed([1, 2])
        pool.feed([10, 20])
        assert len(pool._journal) == 2
        assert pool.collect() == [11, 22]
        # Collect ships cumulative worker state to the master, which
        # merges it — so the replay journal is safe to clear: a future
        # respawn forks a master that already holds the merged state.
        assert pool._journal == []
        pool.feed([5, 7])
        assert pool.collect() == [16, 29]
    finally:
        pool.close(terminate=True)
    assert pool.closed
    with pytest.raises(IngestError, match="closed"):
        pool.feed([0, 0])


def test_pool_requires_two_workers():
    with pytest.raises(ValueError, match="workers"):
        WorkerPool(1, SumHandler)


# --------------------------------------------------------------------- #
# Dead workers: respawn + replay
# --------------------------------------------------------------------- #


def test_killed_worker_respawns_and_replays_journal():
    pool = make_pool()
    try:
        pool.feed([1, 100])
        pool.feed([2, 200])
        victim = pool.pids[0]
        os.kill(victim, signal.SIGKILL)
        wait_for_death(victim)
        pool.feed([3, 300])  # heals: respawn + replay of both past feeds
        assert pool.respawns >= 1
        assert pool.pids[0] != victim and pool.pids[0] != 0
        assert pool.collect() == [6, 600]
    finally:
        pool.close(terminate=True)


def test_scripted_kill_via_fault_plan():
    plan = FaultPlan(pool_kill_worker=1, pool_kill_at_batch=2)
    pool = make_pool()
    try:
        with pool_faults(plan):
            pool.feed([1, 10])
            pool.feed([2, 20])  # worker 1 is SIGKILLed just before dispatch
            assert pool.respawns >= 1
        assert pool.collect() == [3, 30]
    finally:
        pool.close(terminate=True)


def test_transient_worker_error_heals_by_replay(tmp_path):
    pool = make_pool(handler_factory=FlakyOnceFactory(tmp_path / "trip"))
    try:
        pool.feed([1, 1])
        pool.feed([13, 2])  # first incarnation raises; replay succeeds
        assert pool.respawns >= 1
        assert pool.collect() == [14, 3]
    finally:
        pool.close(terminate=True)


def test_deterministic_handler_bug_poisons_pool():
    """A handler that raises again on replay is a bug, not a fault:
    the pool must surface IngestError, never silently drop the batch."""
    pool = make_pool(handler_factory=AlwaysRaisesHandler)
    try:
        pool.feed([1, 1])
        with pytest.raises(IngestError, match="deterministic bug"):
            pool.feed([13, 2])
        assert pool.closed, "a poisoned pool refuses further use"
    finally:
        pool.close(terminate=True)


# --------------------------------------------------------------------- #
# Hung workers: reply deadlines
# --------------------------------------------------------------------- #


def test_hung_worker_times_out_and_heals():
    plan = FaultPlan(
        pool_hang_worker=0,
        pool_hang_at_batch=2,
        pool_hang_seconds=30.0,
        pool_reply_deadline_s=0.2,
    )
    pool = make_pool()
    try:
        with pool_faults(plan):
            pool.feed([1, 10])
            start = time.monotonic()
            pool.feed([2, 20])  # worker 0 sleeps 30s; deadline fires at 0.2s
            elapsed = time.monotonic() - start
        assert pool.timeouts >= 1
        assert pool.respawns >= 1
        assert elapsed < 10.0, "deadline must fire long before the hang ends"
        assert pool.collect() == [3, 30]
    finally:
        pool.close(terminate=True)


# --------------------------------------------------------------------- #
# Respawn exhaustion: graceful inline serial fallback
# --------------------------------------------------------------------- #


def test_respawn_exhaustion_falls_back_to_inline_serial():
    plan = FaultPlan(
        pool_kill_worker=0, pool_kill_at_batch=2, pool_fail_respawns=99
    )
    sleeps = []
    pool = make_pool(max_respawns=2, sleep=sleeps.append)
    try:
        with pool_faults(plan):
            pool.feed([1, 10])
            pool.feed([2, 20])  # kill + every respawn scripted to fail
        assert pool.serial_fallbacks == 1
        assert pool.inline_workers == [0]
        assert pool.pids[0] == 0, "slot 0 now runs in the master process"
        # Backoff between respawn attempts, capped exponential.
        assert sleeps and all(s <= 1.0 for s in sleeps)
        # The inline handler replayed the journal: totals are exact.
        pool.feed([3, 30])
        assert pool.collect() == [6, 60]
    finally:
        pool.close(terminate=True)


def test_inline_slot_survives_collect_epochs():
    plan = FaultPlan(
        pool_kill_worker=1, pool_kill_at_batch=1, pool_fail_respawns=99
    )
    pool = make_pool(max_respawns=1)
    try:
        with pool_faults(plan):
            pool.feed([1, 10])
        assert pool.inline_workers == [1]
        assert pool.collect() == [1, 10]
        pool.feed([2, 20])
        assert pool.collect() == [3, 30]
    finally:
        pool.close(terminate=True)


# --------------------------------------------------------------------- #
# Shutdown: graceful exit and terminate escalation
# --------------------------------------------------------------------- #


def test_graceful_close_joins_workers():
    pool = make_pool()
    pids = list(pool.pids)
    pool.feed([1, 2])
    pool.close()
    assert pool.closed
    for pid in pids:
        wait_for_death(pid)
    pool.close()  # idempotent


def test_terminate_escalates_to_kill():
    """close(terminate=True) must not hang on a worker that ignores
    SIGTERM; escalation SIGKILLs it within the join timeout."""

    class IgnoresTerm(SumHandler):
        def __init__(self, index=0, nworkers=0):
            super().__init__(index, nworkers)
            signal.signal(signal.SIGTERM, signal.SIG_IGN)

    pool = WorkerPool(2, IgnoresTerm)
    pids = list(pool.pids)
    pool.feed([1, 2])  # ensure the handlers (and SIG_IGN) are installed
    start = time.monotonic()
    pool.close(terminate=True)
    assert time.monotonic() - start < 15.0
    for pid in pids:
        wait_for_death(pid)
    assert pool.stuck_workers == 0


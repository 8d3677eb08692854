"""Degraded-mode supervision: the HealthMonitor state machine and the
IngestRuntime integration around it.

The contract under test: a durability failure flips the runtime to
``DEGRADED_READONLY`` — writes are refused with a typed
:class:`DegradedError` naming the cause, queries keep serving — and a
recoverable cause heals through hysteresis probing (``heal_after``
consecutive successful probes), while sticky causes (fsck-reported data
loss) heal only through explicit operator acknowledgment.  ``FAILED``
(apply divergence after durability) refuses reads too and cannot be
acknowledged back.
"""

from __future__ import annotations

import errno

import pytest

from repro.runtime import (
    DegradedError,
    FaultPlan,
    HealthMonitor,
    HealthState,
    IngestPolicy,
    IngestRuntime,
    SnapshotRetryError,
)
from repro.server.serving import ServingRuntime
from tests.test_runtime_batch import make_raws, make_store

# --------------------------------------------------------------------- #
# HealthMonitor state machine (pure, probe-stubbed)
# --------------------------------------------------------------------- #


class ScriptedProbe:
    """Probe stub returning a scripted sequence (last value repeats)."""

    def __init__(self, *results):
        self.results = list(results)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if len(self.results) > 1:
            return self.results.pop(0)
        return self.results[0]


def monitor(probe=None, **kwargs):
    kwargs.setdefault("probe_interval", 1)
    kwargs.setdefault("heal_after", 2)
    return HealthMonitor(".", probe=probe, **kwargs)


def test_healthy_monitor_gates_nothing():
    mon = monitor()
    mon.check_writable()
    mon.check_readable()
    assert mon.state is HealthState.HEALTHY
    assert mon.snapshot()["state"] == "healthy"


def test_degrade_rejects_writes_with_typed_error():
    mon = monitor(probe=ScriptedProbe(False))
    mon.degrade("wal-io-error", "disk went away")
    with pytest.raises(DegradedError) as excinfo:
        mon.check_writable()
    assert excinfo.value.state is HealthState.DEGRADED_READONLY
    assert excinfo.value.cause == "wal-io-error"
    assert "disk went away" in excinfo.value.detail
    mon.check_readable()  # queries keep serving
    assert mon.rejected_writes == 1


def test_hysteresis_heals_after_consecutive_probe_successes():
    probe = ScriptedProbe(False, True, True)
    mon = monitor(probe=probe, probe_interval=1, heal_after=2)
    mon.degrade("disk-full", "ENOSPC")
    with pytest.raises(DegradedError):
        mon.check_writable()  # probe -> False, streak resets
    with pytest.raises(DegradedError):
        mon.check_writable()  # probe -> True, streak 1 of 2
    mon.check_writable()  # probe -> True, streak 2: healed, write proceeds
    assert mon.state is HealthState.HEALTHY
    assert mon.heals == 1 and probe.calls == 3


def test_single_probe_success_is_not_enough():
    """A flapping disk must not flap the state machine."""
    probe = ScriptedProbe(True, False, True, False)
    mon = monitor(probe=probe, probe_interval=1, heal_after=2)
    mon.degrade("disk-full", "ENOSPC")
    for _ in range(4):
        with pytest.raises(DegradedError):
            mon.check_writable()
    assert mon.state is HealthState.DEGRADED_READONLY
    assert mon.heals == 0


def test_probe_interval_limits_probe_frequency():
    probe = ScriptedProbe(False)
    mon = monitor(probe=probe, probe_interval=4, heal_after=1)
    mon.degrade("wal-io-error", "flaky")
    for _ in range(8):
        with pytest.raises(DegradedError):
            mon.check_writable()
    # First rejection after a degradation probes immediately; then every
    # fourth: rejections 1 and 5 probed.
    assert probe.calls == 2


def test_sticky_cause_never_probes_and_needs_acknowledge():
    probe = ScriptedProbe(True)
    mon = monitor(probe=probe)
    mon.degrade("wal-quarantined", "fsck lost 9 records", recoverable=False)
    for _ in range(5):
        with pytest.raises(DegradedError):
            mon.check_writable()
    assert probe.calls == 0, "sticky degradations must not self-heal"
    assert mon.state is HealthState.DEGRADED_READONLY
    mon.acknowledge()
    assert mon.state is HealthState.HEALTHY
    mon.check_writable()


def test_sticky_cause_wins_over_later_recoverable_one():
    mon = monitor(probe=ScriptedProbe(True))
    mon.degrade("wal-quarantined", "data loss", recoverable=False)
    mon.degrade("disk-full", "ENOSPC")  # must not displace the sticky cause
    assert mon.cause == "wal-quarantined"
    assert not mon.recoverable


def test_failed_refuses_reads_and_acknowledge():
    mon = monitor()
    mon.fail("apply-divergence", "exception after WAL durability")
    with pytest.raises(DegradedError):
        mon.check_writable()
    with pytest.raises(DegradedError):
        mon.check_readable()
    with pytest.raises(DegradedError, match="cannot be acknowledged"):
        mon.acknowledge()
    assert mon.state is HealthState.FAILED


def test_degrade_is_noop_once_failed():
    mon = monitor()
    mon.fail("apply-divergence", "boom")
    mon.degrade("disk-full", "ENOSPC")
    assert mon.state is HealthState.FAILED
    assert mon.cause == "apply-divergence"


def test_snapshot_counters_and_checkpoint_age():
    clock = iter([10.0, 25.0]).__next__
    mon = HealthMonitor(".", probe=ScriptedProbe(False), clock=clock)
    assert mon.checkpoint_age() is None
    mon.note_checkpoint()  # at t=10
    mon.note_quarantine(2, 1)
    view = mon.snapshot()  # age read at t=25
    assert view["checkpoint_age_s"] == pytest.approx(15.0)
    assert view["quarantined_segments"] == 2
    assert view["quarantined_checkpoints"] == 1


def test_constructor_validation():
    with pytest.raises(ValueError, match="probe_interval"):
        HealthMonitor(".", probe_interval=0)
    with pytest.raises(ValueError, match="heal_after"):
        HealthMonitor(".", heal_after=0)


def test_real_directory_probe_round_trips(tmp_path):
    mon = HealthMonitor(tmp_path)
    assert mon.probe() is True
    assert not (tmp_path / ".health-probe").exists()
    assert HealthMonitor(tmp_path / "does-not-exist").probe() is False


# --------------------------------------------------------------------- #
# IngestRuntime integration: degradation causes and end-to-end healing
# --------------------------------------------------------------------- #


def no_sleep(_t):
    return None


def test_snapshot_retries_exhausted_degrades_but_keeps_serving(tmp_path):
    plan = FaultPlan(io_error_at_checkpoint=1, io_error_count=99)
    runtime = IngestRuntime.create(
        tmp_path / "rt",
        make_store(),
        checkpoint_every=10,
        policy=IngestPolicy(max_retries=2),
        faults=plan,
        sleep=no_sleep,
        probe=ScriptedProbe(False),
    )
    raws = make_raws(n=30, dirty=False)
    for raw in raws[:9]:
        runtime.ingest(raw)
    # The 10th record triggers the checkpoint; its snapshot I/O fails
    # past the retry budget.  The record itself is already durable, so
    # ingest absorbs the failure — the *next* write surfaces the state.
    runtime.ingest(raws[9])
    health = runtime.health()
    assert health["state"] == "degraded-readonly"
    assert health["cause"] == "snapshot-retries-exhausted"
    with pytest.raises(DegradedError, match="snapshot-retries-exhausted"):
        runtime.ingest(raws[10])
    # Live queries and serving reads on both routes still serve.
    now = runtime._clocks["urls"]
    live = runtime.store.point("urls", 1, 0, now)
    serving = ServingRuntime(runtime)
    assert serving.maybe_cutover(force=True)["swapped"] is True
    assert serving.view().frozen.streams() == ["ads", "urls"]
    assert serving.point("urls", 1, 0, 0, mode="frozen") == 0.0  # sketchlint: disable=SL002 — an empty window (0, 0] answers exactly 0
    assert serving.point("urls", 1) == live  # t=None resolves live
    runtime.close()


def test_enospc_classified_as_disk_full(tmp_path):
    plan = FaultPlan(
        io_error_at_checkpoint=1, io_error_count=99, io_error_enospc=True
    )
    runtime = IngestRuntime.create(
        tmp_path / "rt",
        make_store(),
        checkpoint_every=1000,  # no cadence: the explicit call is attempt 1
        policy=IngestPolicy(max_retries=1),
        faults=plan,
        sleep=no_sleep,
        probe=ScriptedProbe(False),
    )
    raws = make_raws(n=10, dirty=False)
    for raw in raws[:5]:
        runtime.ingest(raw)
    with pytest.raises(SnapshotRetryError) as excinfo:
        runtime.checkpoint()  # explicit checkpoint re-raises
    assert getattr(excinfo.value.__cause__, "errno", None) == errno.ENOSPC
    assert runtime.health()["cause"] == "disk-full"
    runtime.close()


def test_degraded_runtime_heals_through_probe_and_resumes(tmp_path):
    probe = ScriptedProbe(True)
    plan = FaultPlan(io_error_at_checkpoint=1, io_error_count=3)
    runtime = IngestRuntime.create(
        tmp_path / "rt",
        make_store(),
        checkpoint_every=10,
        policy=IngestPolicy(max_retries=1),
        faults=plan,
        sleep=no_sleep,
        probe=probe,
    )
    runtime.monitor.probe_interval = 1
    runtime.monitor.heal_after = 2
    raws = make_raws(n=40, dirty=False)
    for raw in raws[:10]:
        runtime.ingest(raw)
    assert runtime.health()["state"] == "degraded-readonly"
    rejected = 0
    applied = 0
    for raw in raws[10:]:
        try:
            applied += runtime.ingest(raw)
        except DegradedError:
            rejected += 1
    assert rejected > 0, "some writes must bounce while degraded"
    assert applied > 0, "healing must let later writes through"
    assert runtime.health()["state"] == "healthy"
    assert runtime.health()["heals"] == 1
    # Post-heal writes are durable: recovery replays to the same seq.
    applied_seq = runtime.applied_seq
    runtime.close()
    recovered = IngestRuntime.recover(tmp_path / "rt", checkpoint_every=10)
    assert recovered.applied_seq == applied_seq
    recovered.close()


def test_failed_runtime_refuses_frozen_view(tmp_path):
    runtime = IngestRuntime.create(tmp_path / "rt", make_store())
    serving = ServingRuntime(runtime)
    assert serving.maybe_cutover(force=True)["swapped"] is True
    runtime.monitor.fail("apply-divergence", "post-durability exception")
    # Neither route serves: the frozen view is refused like live state.
    for mode in ("frozen", "live"):
        with pytest.raises(DegradedError):
            serving.point("urls", 1, 0, 0, mode=mode)
    with pytest.raises(DegradedError):
        runtime.ingest({"stream": "urls", "item": 1, "time": 1})
    runtime.close()


def test_describe_and_health_surface_monitor_state(tmp_path):
    runtime = IngestRuntime.create(tmp_path / "rt", make_store())
    for raw in make_raws(n=7, dirty=False):
        runtime.ingest(raw)
    health = runtime.health()
    assert health["state"] == "healthy"
    assert health["applied_seq"] == 7
    assert health["wal_lag"] == 7  # no checkpoint yet at cadence 1000
    assert runtime.describe()["health"]["state"] == "healthy"
    report = runtime.fsck()  # online scrub: scan-only on a live runtime
    assert report.clean
    runtime.close()

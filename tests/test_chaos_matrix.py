"""Chaos matrix: every injectable fault x every subsystem, end to end.

ISSUE 7's acceptance harness.  Each cell drives one
:class:`~repro.runtime.faults.FaultPlan` fault through the full stack —
WAL + checkpoint durability, the fsck scrubber, the health state
machine and the serving daemon — and asserts one of exactly
two outcomes:

* **full recovery**: the surviving runtime answers bit-identically to
  an uninterrupted serial twin, or
* **clean degradation**: the runtime is ``DEGRADED_READONLY`` with the
  right cause, still serves queries (whose answers match the twin at
  the acknowledged prefix), refuses writes with a typed
  :class:`DegradedError`, and resumes exactly where it left off once
  the operator acknowledges.

Never a third outcome — in particular, never a *wrong* answer.

Run with ``-m chaos`` (CI runs the matrix under ``REPRO_CONTRACTS=1``).
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    DegradedError,
    FaultPlan,
    IngestPolicy,
    IngestRuntime,
    SimulatedCrash,
)
from tests.test_runtime_recovery import (
    CHECKPOINT_EVERY,
    assert_identical_answers,
    make_records,
    make_store,
    run_uninterrupted,
)

pytestmark = pytest.mark.chaos

N_RECORDS = 260  # == len(make_records()); checkpoints land every 50

#: Layout after a clean 260-record run at cadence 50 (verified by
#: ``test_fsck``): retained checkpoints ckpt-200 + ckpt-250, WAL segment
#: 1 holds seqs 201..250 (fully covered by the best checkpoint), segment
#: 2 holds the tail 251..260 that only the WAL knows.
COVERED_SEGMENT = 1
TAIL_SEGMENT = 2
BEST_COVERED_SEQ = 250


def build_victim(root, records, **kwargs):
    runtime = IngestRuntime.create(
        root / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        sleep=lambda _t: None,
        **kwargs,
    )
    for raw in records:
        runtime.ingest(raw)
    runtime.close()
    return root / "victim"


def recover(directory, **kwargs):
    return IngestRuntime.recover(
        directory, checkpoint_every=CHECKPOINT_EVERY, **kwargs
    )


# --------------------------------------------------------------------- #
# At-rest damage: fsck-led recovery
# --------------------------------------------------------------------- #

#: Cells whose damage never touches an acknowledged record that only the
#: WAL holds: recovery must be silently loss-free and bit-identical.
LOSS_FREE_AT_REST = {
    "flip-covered-segment": FaultPlan(
        flip_byte_in_segment=COVERED_SEGMENT, flip_byte_offset=10
    ),
    "truncate-best-checkpoint": FaultPlan(truncate_checkpoint_at_rest=2),
    "delete-best-checkpoint": FaultPlan(delete_checkpoint_at_rest=2),
    "delete-pointer": FaultPlan(delete_pointer_at_rest=True),
    "corrupt-pointer": FaultPlan(corrupt_pointer_at_rest=True),
}


@pytest.mark.parametrize("cell", sorted(LOSS_FREE_AT_REST))
def test_loss_free_at_rest_damage_recovers_bit_identically(tmp_path, cell):
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    directory = build_victim(tmp_path, records)
    actions = LOSS_FREE_AT_REST[cell].apply_at_rest(directory)
    assert actions, f"{cell}: the plan must actually damage something"

    recovered = recover(directory)
    assert recovered.health()["state"] == "healthy"
    assert recovered.applied_seq == N_RECORDS
    assert_identical_answers(twin, recovered)


def test_torn_tail_at_rest_recovers_bit_identically(tmp_path):
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    directory = build_victim(tmp_path, records)
    segments = sorted((directory / "wal").glob("segment-*.wal"))
    with open(segments[-1], "a", encoding="utf-8") as handle:
        handle.write('{"seq": 261, "crc": "torn-mid')  # no newline

    recovered = recover(directory)
    assert recovered.health()["state"] == "healthy"
    assert recovered.applied_seq == N_RECORDS, "a torn frame was never acked"
    assert_identical_answers(twin, recovered)


def test_uncovered_corruption_degrades_then_acknowledge_resumes(tmp_path):
    """The only at-rest cell with real loss: bit-rot in WAL frames the
    best checkpoint does not cover.  fsck quarantines, recovery comes up
    degraded read-only at the last trustworthy prefix, queries still
    answer (and answer *right*), and acknowledging the loss reopens
    writes exactly at the quarantine point."""
    records = make_records()
    prefix_twin = run_uninterrupted(tmp_path, records[:BEST_COVERED_SEQ])
    directory = build_victim(tmp_path, records)
    FaultPlan(
        flip_byte_in_segment=TAIL_SEGMENT, flip_byte_offset=10
    ).apply_at_rest(directory)

    recovered = recover(directory)
    health = recovered.health()
    assert health["state"] == "degraded-readonly"
    assert health["cause"] == "wal-quarantined"
    assert not health["recoverable"], "data loss must not self-heal"
    assert recovered.applied_seq == BEST_COVERED_SEQ
    assert recovered.fsck_report.data_loss

    # Still serving — and serving the *right* answers for the prefix.
    assert_identical_answers(prefix_twin, recovered)
    # But refusing writes with the typed error naming the cause.
    with pytest.raises(DegradedError, match="wal-quarantined"):
        recovered.ingest(records[BEST_COVERED_SEQ])

    # Operator accepts the loss; the client re-sends the unacked tail.
    recovered.acknowledge_data_loss()
    for raw in records[BEST_COVERED_SEQ:]:
        assert recovered.ingest(raw) is True
    assert recovered.health()["state"] == "healthy"
    full_twin = run_uninterrupted(tmp_path / "full", records)
    assert_identical_answers(full_twin, recovered)


# --------------------------------------------------------------------- #
# Crash faults: process death at the worst moments
# --------------------------------------------------------------------- #

CRASH_CELLS = {
    "crash-before-append": FaultPlan(crash_before_record=130),
    "torn-live-write": FaultPlan(torn_write_at_record=130),
    "crash-after-durable": FaultPlan(crash_after_record=130),
    "crash-mid-checkpoint": FaultPlan(crash_at_checkpoint=3),
    "truncate-committed-snapshot": FaultPlan(truncate_snapshot_at_checkpoint=3),
}


@pytest.mark.parametrize("cell", sorted(CRASH_CELLS))
def test_crash_cells_recover_bit_identically(tmp_path, cell):
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=CRASH_CELLS[cell],
        sleep=lambda _t: None,
    )
    crashed = False
    for raw in records:
        try:
            victim.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, f"{cell}: fault never fired"

    recovered = recover(tmp_path / "victim")
    assert recovered.health()["state"] == "healthy"
    for raw in records[recovered.applied_seq :]:
        assert recovered.ingest(raw) is True
    assert_identical_answers(twin, recovered)


# --------------------------------------------------------------------- #
# Crash-mid-buffer: staged updates die with the process, the WAL wins
# --------------------------------------------------------------------- #

#: Window 37 never divides the crash seq (130) or the checkpoint cadence
#: (50), so every cell dies with records staged in the update buffer.
BUFFER_WINDOW = 37

EXACT_BUFFER_CRASH_CELLS = {
    "exact-crash-mid-window": FaultPlan(crash_after_record=130),
    "exact-torn-write-mid-window": FaultPlan(torn_write_at_record=130),
    "exact-crash-mid-checkpoint": FaultPlan(crash_at_checkpoint=2),
}


@pytest.mark.parametrize("cell", sorted(EXACT_BUFFER_CRASH_CELLS))
def test_crash_mid_buffer_exact_recovers_bit_identically(tmp_path, cell):
    """ISSUE 10's chaos cells: kill the process while the update buffer
    holds staged records.  Every buffered record was WAL-durable before
    it was staged, so the in-memory window dies with the process and
    unbuffered replay restores exactly what an unbuffered twin holds —
    buffering below the ack line costs zero durability."""
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=EXACT_BUFFER_CRASH_CELLS[cell],
        sleep=lambda _t: None,
        buffer_window=BUFFER_WINDOW,
        buffer_mode="exact",
    )
    crashed = False
    for raw in records:
        try:
            victim.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, f"{cell}: fault never fired"

    recovered = recover(
        tmp_path / "victim",
        buffer_window=BUFFER_WINDOW,
        buffer_mode="exact",
    )
    assert recovered.health()["state"] == "healthy"
    for raw in records[recovered.applied_seq :]:
        assert recovered.ingest(raw) is True
    recovered.store.flush_buffers()
    assert_identical_answers(twin, recovered)


def test_crash_mid_buffer_coalesce_before_checkpoint_is_loss_free(tmp_path):
    """Coalesce mode crash before any checkpoint: the WAL holds the raw
    uncoalesced records, so replay restores the *exact* history — more
    faithful than the crashed run's lossy in-memory trajectory ever was.
    """
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=10_000,  # the crash lands before checkpoint 1
        faults=FaultPlan(crash_after_record=130),
        sleep=lambda _t: None,
        buffer_window=BUFFER_WINDOW,
        buffer_mode="coalesce",
    )
    crashed = False
    for raw in records:
        try:
            victim.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, "fault never fired"

    recovered = recover(tmp_path / "victim")
    assert recovered.health()["state"] == "healthy"
    for raw in records[recovered.applied_seq :]:
        assert recovered.ingest(raw) is True
    assert_identical_answers(twin, recovered)


def test_crash_mid_buffer_coalesce_after_checkpoint_stays_in_bounds(tmp_path):
    """Coalesce mode crash *after* checkpoints: the snapshots embed the
    coalesced (lossy) trajectory, so recovery is not bit-identical to an
    exact twin — but it must be deterministic, loss-free in net mass,
    and inside the documented widened envelope at the flush boundary
    (every counter's last touch carries its exact cumulative value, so
    full-range answers differ from exact only by the +/-delta PLA
    recording error on each endpoint)."""
    records = make_records()
    twin = run_uninterrupted(tmp_path, records)
    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=FaultPlan(crash_after_record=130),
        sleep=lambda _t: None,
        buffer_window=BUFFER_WINDOW,
        buffer_mode="coalesce",
    )
    crashed = False
    for raw in records:
        try:
            victim.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, "fault never fired"

    recovered = recover(tmp_path / "victim")
    assert recovered.health()["state"] == "healthy"
    for raw in records[recovered.applied_seq :]:
        assert recovered.ingest(raw) is True

    # Determinism: a second recovery of the same directory (replaying
    # only the durable prefix) lands on the same applied_seq and the
    # same answers for that prefix as the first recovery did.
    twin_b = recover(tmp_path / "victim")
    assert twin_b.applied_seq >= 130

    # Envelope: full-range point answers stay within the documented
    # per-endpoint PLA delta (4 for this store) of the exact twin.
    t = twin.clock("urls")
    assert recovered.clock("urls") == t
    for item in range(0, 64, 7):
        exact = twin.store.point("urls", item, 0, t)
        lossy = recovered.store.point("urls", item, 0, t)
        assert abs(lossy - exact) <= 2 * 4, (item, lossy, exact)


# --------------------------------------------------------------------- #
# Resource exhaustion: degrade, probe, heal, resume
# --------------------------------------------------------------------- #


def test_enospc_degrades_heals_and_loses_nothing(tmp_path):
    """Snapshot I/O hits ENOSPC past the retry budget: the runtime flips
    degraded read-only but keeps every durable record; once the probe
    sees the disk back, writes resume and the on-disk state recovers to
    exactly the live answers."""
    records = make_records()
    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=FaultPlan(
            io_error_at_checkpoint=1, io_error_count=2, io_error_enospc=True
        ),
        policy=IngestPolicy(max_retries=1),  # both injected errors exhaust it
        sleep=lambda _t: None,
        probe=lambda: True,
    )
    victim.monitor.probe_interval = 1
    victim.monitor.heal_after = 2
    rejections = 0
    for raw in records:
        for _attempt in range(10):
            try:
                victim.ingest(raw)
                break
            except DegradedError as exc:
                assert exc.cause == "disk-full"
                rejections += 1
        else:
            pytest.fail("degradation never healed through the probe")
    assert rejections > 0, "the ENOSPC window must actually reject writes"
    assert victim.health()["state"] == "healthy"
    assert victim.health()["heals"] == 1
    assert victim.applied_seq == N_RECORDS

    # Durability equivalence: the recovered incarnation answers exactly
    # like the live one that weathered the outage.
    victim.close()
    recovered = recover(tmp_path / "victim")
    assert recovered.applied_seq == N_RECORDS
    assert_identical_answers(victim, recovered)


# --------------------------------------------------------------------- #
# Serving daemon: crash/restart under concurrent client load
# --------------------------------------------------------------------- #


def test_server_crash_under_load_restarts_bit_identically(tmp_path):
    """ISSUE 8's serving cell: kill the daemon mid-ingest while reader
    clients hammer it, restart over the recovered runtime, re-send the
    unacknowledged tail through the server, and the served answers must
    be bit-identical to an uninterrupted twin.

    One deterministic writer keeps the WAL/checkpoint interleaving
    reproducible; the three concurrent readers add the load (and must
    see only correct answers or dead connections — never wrong ones).
    """
    import threading

    from repro.server import Client, ServingRuntime, SketchServer

    records = make_records()
    twin = run_uninterrupted(tmp_path, records)

    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=FaultPlan(crash_after_record=130),
        sleep=lambda _t: None,
    )
    server = SketchServer(
        ServingRuntime(victim), cutover_poll_s=0.05
    ).start()
    host, port = server.address

    stop = threading.Event()
    reader_errors: list[BaseException] = []

    def reader(item):
        try:
            with Client(host, port, timeout=5.0) as c:
                while not stop.is_set():
                    c.point("urls", item)
                    c.health()
        except (ConnectionError, OSError):
            pass  # the daemon died under us — expected in this cell
        except BaseException as exc:  # noqa: B036  # sketchlint: disable=SL004 — collected and re-asserted on the main thread
            reader_errors.append(exc)

    readers = [
        threading.Thread(target=reader, args=(item,)) for item in range(3)
    ]
    for thread in readers:
        thread.start()

    acked = 0
    crashed = False
    with Client(host, port, timeout=5.0) as writer:
        for raw in records:
            try:
                assert writer.ingest_record(raw) is True
                acked += 1
            except ConnectionError:
                crashed = True
                break
    stop.set()
    for thread in readers:
        thread.join(timeout=30)
    assert crashed, "the scripted crash never fired"
    assert server.crashed is True
    assert not reader_errors, reader_errors
    assert acked == 129  # record 130 was durable but never acknowledged

    # Restart over the recovered directory, exactly as `repro serve
    # --resume` would, and finish the workload through the server.
    recovered = recover(tmp_path / "victim")
    restarted = SketchServer(
        ServingRuntime(recovered), cutover_poll_s=0.05
    ).start()
    try:
        host2, port2 = restarted.address
        with Client(host2, port2, timeout=5.0) as c:
            applied = c.describe()["applied_seq"]
            assert applied >= acked
            for raw in records[applied:]:
                assert c.ingest_record(raw) is True
            assert c.describe()["applied_seq"] == N_RECORDS
            assert c.health()["state"] == "healthy"
            # Served answers match the twin on both routing sides.
            assert c.cutover()["view_seq"] is not None
            t = twin.clock("urls")
            for item in range(0, 64, 7):
                want = twin.store.point("urls", item, 0, t)
                assert c.point("urls", item, 0, t, mode="live") == want
            fc = restarted.serving.view().clock("urls")
            for item in range(0, 64, 7):
                want = twin.store.point("urls", item, 0, fc)
                assert c.point("urls", item, 0, fc, mode="frozen") == want
    finally:
        restarted.stop()
    # The full embedded-API equivalence sweep, sketch family by family.
    assert_identical_answers(twin, recovered)

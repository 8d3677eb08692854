"""Crash-recovery property tests: kill-and-recover vs an uninterrupted twin.

The acceptance property (ISSUE 2): killing ingestion at *any* injected
fault point and recovering must yield a runtime whose query answers are
identical to an uninterrupted twin that ingested the same records with
the same checkpoint cadence — including the sampled AMS sketches, whose
RNG state rides along in the snapshot.  The twin is an
:class:`IngestRuntime` (not a bare store) because snapshotting finalizes
open PLA runs, so checkpoint positions shape future segmentation.
"""

import random
from pathlib import Path

import pytest

from repro.analysis import contracts
from repro.core.persistent_countmin import PWCCountMin
from repro.runtime import (
    FaultPlan,
    IngestPolicy,
    IngestRuntime,
    MalformedRecordError,
    RecoveryError,
    SimulatedCrash,
)
from repro.store import SketchStore, StreamSpec
from tests.test_batch_ingest import columnar_only

pytestmark = pytest.mark.faults

UNIVERSE = 64
N_RECORDS = 260
CHECKPOINT_EVERY = 50  # boundaries at records 50, 100, 150, 200, 250


def make_store():
    store = SketchStore(width=64, depth=3, join_width=64, seed=11)
    store.create(
        StreamSpec(
            name="urls",
            delta=4,
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
            quantiles=True,
        )
    )
    store.create(StreamSpec(name="ads", delta=4, joinable=True))
    return store


def make_pwc_store():
    """Same shape, but the point sketches use PWC (baseline) trackers
    (``ads``'s: ``urls`` answers points from its hierarchy)."""
    store = make_store()
    for name in store.streams():
        state = store._streams[name]
        if state.point_sketch is not None:
            state.point_sketch = PWCCountMin(
                width=64, depth=3, delta=4, seed=11
            )
    return store


def make_records(n=N_RECORDS):
    rng = random.Random(1234)
    records = []
    for i in range(n):
        records.append(
            {
                "stream": "urls" if i % 3 else "ads",
                "item": rng.randrange(UNIVERSE),
                "count": rng.choice([1, 1, 1, 2, 3]),
            }
        )
    return records


def run_uninterrupted(root, records, store_factory=make_store):
    twin = IngestRuntime.create(
        root / "twin", store_factory(), checkpoint_every=CHECKPOINT_EVERY
    )
    for raw in records:
        assert twin.ingest(raw) is True
    return twin


def crash_and_recover(root, plan, records, store_factory=make_store):
    """Ingest until the scripted crash, recover, re-send the tail.

    Records past ``applied_seq`` were never acknowledged, so re-sending
    them is the client's exactly-once responsibility, not a duplicate.
    """
    runtime = IngestRuntime.create(
        root / "victim",
        store_factory(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=plan,
        sleep=lambda _t: None,
    )
    crashed = False
    for raw in records:
        try:
            runtime.ingest(raw)
        except SimulatedCrash:
            crashed = True
            break
    assert crashed, "fault plan never fired"
    recovered = IngestRuntime.recover(
        root / "victim", checkpoint_every=CHECKPOINT_EVERY
    )
    assert recovered.applied_seq < len(records)
    for raw in records[recovered.applied_seq:]:
        assert recovered.ingest(raw) is True
    return recovered


def assert_identical_answers(twin, recovered):
    """Bit-identical query answers across every sketch family."""
    for stream in ("urls", "ads"):
        assert recovered.clock(stream) == twin.clock(stream)
    t = twin.clock("urls")
    windows = [(0, None), (t // 3, 2 * t // 3), (t // 2, None)]
    for item in range(0, UNIVERSE, 7):
        for s, e in windows:
            assert recovered.store.point("urls", item, s, e) == twin.store.point(
                "urls", item, s, e
            )
    assert recovered.store.heavy_hitters("urls", 0.05) == twin.store.heavy_hitters(
        "urls", 0.05
    )
    assert recovered.store.top_k("urls", 5) == twin.store.top_k("urls", 5)
    assert recovered.store.quantile("urls", 0.5) == twin.store.quantile(
        "urls", 0.5
    )
    for s, e in windows:
        assert recovered.store.self_join_size(
            "urls", s, e
        ) == twin.store.self_join_size("urls", s, e)
    assert recovered.store.join_size("urls", "ads") == twin.store.join_size(
        "urls", "ads"
    )


# Record-level fault points straddle the checkpoint boundaries (B-1, B,
# B+1 around records 50 and 100) plus an arbitrary mid-interval point.
RECORD_FAULT_POINTS = [49, 50, 51, 100, 101, 130]


class TestCrashAtEveryFaultPoint:
    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_crash_before_wal_append(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_before_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_torn_wal_write(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(torn_write_at_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", RECORD_FAULT_POINTS)
    def test_crash_after_durable_before_apply(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_after_record=at), records
        )
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("at", [1, 3])
    def test_crash_during_checkpoint(self, tmp_path, at):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path, FaultPlan(crash_at_checkpoint=at), records
        )
        assert_identical_answers(twin, recovered)


class TestTruncatedSnapshotFallback:
    @pytest.mark.parametrize("at", [2, 4])
    def test_falls_back_to_previous_checkpoint(self, tmp_path, at):
        """A truncated committed snapshot must not error: recovery falls
        back to the previous checkpoint and replays a longer WAL tail."""
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = crash_and_recover(
            tmp_path,
            FaultPlan(truncate_snapshot_at_checkpoint=at),
            records,
        )
        # The damaged snapshot covered `at` intervals; falling back one
        # checkpoint forces a replay of at least a full interval.
        assert recovered.stats.replayed >= CHECKPOINT_EVERY
        assert_identical_answers(twin, recovered)


class TestPWCVariant:
    """The recovery protocol is tracker-agnostic: PWC baselines too."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(torn_write_at_record=120),
            FaultPlan(crash_at_checkpoint=2),
        ],
        ids=["torn120", "ckpt2"],
    )
    def test_pwc_store_recovers_identically(self, tmp_path, plan):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records, make_pwc_store)
        recovered = crash_and_recover(
            tmp_path, plan, records, make_pwc_store
        )
        assert_identical_answers(twin, recovered)


class TestBatchFaultPoints:
    """The same kill-and-recover property, through ``ingest_batch``.

    ``ingest_batch`` frames chunks with one fsync; the acceptance
    property must survive it: crash anywhere, recover, re-send the
    unacknowledged tail, and every query answer is bit-identical to the
    scalar uninterrupted twin.
    """

    BATCH = 37  # deliberately coprime with the checkpoint cadence

    def _crash_recover_batched(self, root, plan, records):
        victim = IngestRuntime.create(
            root / "victim",
            make_store(),
            checkpoint_every=CHECKPOINT_EVERY,
            faults=plan,
            sleep=lambda _t: None,
        )
        with pytest.raises(SimulatedCrash):
            for lo in range(0, len(records), self.BATCH):
                victim.ingest_batch(records[lo : lo + self.BATCH])
        victim.close()
        recovered = IngestRuntime.recover(
            root / "victim", checkpoint_every=CHECKPOINT_EVERY
        )
        durable = recovered.applied_seq
        assert durable < len(records)
        assert recovered.ingest_batch(records[durable:]) == len(records) - durable
        return recovered

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(torn_write_at_record=50),
            FaultPlan(torn_write_at_record=101),
            FaultPlan(torn_write_at_record=130),
            FaultPlan(crash_before_record=101),
            FaultPlan(crash_after_record=101),
        ],
        ids=["50", "101", "130", "before101", "after101"],
    )
    def test_batch_crash_recovers_to_identical_answers(self, tmp_path, plan):
        records = make_records()
        twin = run_uninterrupted(tmp_path, records)
        recovered = self._crash_recover_batched(tmp_path, plan, records)
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(torn_write_at_record=101),
            FaultPlan(crash_after_record=101),
        ],
        ids=["101", "after101"],
    )
    def test_kernel_batch_crash_recovers_to_identical_answers(
        self, tmp_path, plan
    ):
        """With contracts off and every batch (replay included) through
        the columnar planner, runs reach the PLA row kernel; the
        twin still feeds record by record."""
        records = make_records()
        with contracts.enforced(False):
            twin = run_uninterrupted(tmp_path, records)
            with columnar_only():
                recovered = self._crash_recover_batched(
                    tmp_path, plan, records
                )
            assert_identical_answers(twin, recovered)


# Records an unchecked parse would WAL-append and then fail to apply,
# leaving the runtime failed and unrecoverable.  The last case is valid
# by itself, but the auto-ticked record after it would overflow int64.
POISON_RECORDS = {
    "item-beyond-int64": [{"stream": "ads", "item": 2**70}],
    "count-beyond-int64": [{"stream": "ads", "item": 1, "count": 2**70}],
    "count-below-int64": [{"stream": "ads", "item": 1, "count": -(2**70)}],
    "time-beyond-int64": [{"stream": "ads", "item": 1, "time": 2**70}],
    "item-outside-universe": [{"stream": "urls", "item": UNIVERSE + 6}],
    "auto-tick-overflow": [
        {"stream": "ads", "item": 1, "time": 2**63 - 1},
        {"stream": "ads", "item": 2},
    ],
}


class TestPoisonRecords:
    """One unapplicable record is rejected before the WAL append, through
    the malformed-record policy, and never takes the runtime down."""

    def _runtime(self, tmp_path, on_malformed):
        runtime = IngestRuntime.create(
            tmp_path / "rt",
            make_store(),
            checkpoint_every=CHECKPOINT_EVERY,
            policy=IngestPolicy(on_malformed=on_malformed),
        )
        assert runtime.ingest_batch(make_records(20)) == 20
        return runtime

    def _assert_recoverable(self, tmp_path, runtime, applied_seq):
        assert runtime.health()["state"] == "healthy"
        assert runtime.applied_seq == applied_seq
        runtime.close()
        recovered = IngestRuntime.recover(
            tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
        )
        assert recovered.applied_seq == applied_seq
        assert recovered.health()["state"] == "healthy"

    @pytest.mark.parametrize("name", sorted(POISON_RECORDS))
    def test_quarantined_by_batch_ingest(self, tmp_path, name):
        runtime = self._runtime(tmp_path, "quarantine")
        poison = POISON_RECORDS[name]
        runtime.ingest_batch(poison)
        accepted = len(poison) - 1  # the auto-tick case's valid lead record
        assert runtime.stats.malformed == 1
        (entry,) = runtime.dead_letters.entries()
        assert entry["kind"] == "malformed"
        self._assert_recoverable(tmp_path, runtime, 20 + accepted)

    @pytest.mark.parametrize("name", sorted(POISON_RECORDS))
    def test_raised_by_scalar_ingest(self, tmp_path, name):
        runtime = self._runtime(tmp_path, "raise")
        *lead, poison = POISON_RECORDS[name]
        for raw in lead:
            assert runtime.ingest(raw) is True
        with pytest.raises(MalformedRecordError):
            runtime.ingest(poison)
        assert runtime.stats.malformed == 1
        self._assert_recoverable(tmp_path, runtime, 20 + len(lead))


class TestRecoverEdgeCases:
    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            IngestRuntime.recover(tmp_path / "nothing-here")

    def test_recover_clean_shutdown_resumes(self, tmp_path):
        records = make_records(80)
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for raw in records:
            runtime.ingest(raw)
        runtime.close()
        recovered = IngestRuntime.recover(
            tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
        )
        assert recovered.applied_seq == 80
        # 80 records, last checkpoint covered 50: 30 replayed.
        assert recovered.stats.replayed == 30
        twin = run_uninterrupted(tmp_path, records)
        assert_identical_answers(twin, recovered)

    def test_create_refuses_existing_runtime(self, tmp_path):
        IngestRuntime.create(tmp_path / "rt", make_store())
        with pytest.raises(FileExistsError):
            IngestRuntime.create(tmp_path / "rt", make_store())

    def test_recovery_revalidates_contracts(self, tmp_path):
        """Recovery validates timelines even with REPRO_CONTRACTS off."""
        from repro.analysis import contracts

        records = make_records(60)
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for raw in records:
            runtime.ingest(raw)
        runtime.close()
        with contracts.enforced(False):
            recovered = IngestRuntime.recover(
                tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
            )
        assert recovered.applied_seq == 60


# --------------------------------------------------------------------- #
# Decode-once restart: recovery's store -> first cutover
# --------------------------------------------------------------------- #

N_SHUTDOWN = 130  # checkpoints 50 and 100 retained, WAL tail 101..130


def build_closed(root, n=N_SHUTDOWN):
    """A cleanly closed runtime directory holding ``n`` records."""
    runtime = IngestRuntime.create(
        root / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
    )
    for raw in make_records(n):
        assert runtime.ingest(raw) is True
    runtime.close()
    return root / "rt"


def count_opens(monkeypatch):
    """Count ``SketchStore.open`` calls by checkpoint directory name."""
    opened = []
    original = SketchStore.open.__func__

    def counted(cls, directory, **kwargs):
        opened.append(Path(directory).name)
        return original(cls, directory, **kwargs)

    monkeypatch.setattr(SketchStore, "open", classmethod(counted))
    return opened


def count_generation_reads(monkeypatch):
    """Count generation reads by checkpoint directory name."""
    from repro.io import generations

    reads = []
    original = generations.read_generation

    def counted(directory, gen):
        reads.append(Path(directory).name)
        return original(directory, gen)

    monkeypatch.setattr(generations, "read_generation", counted)
    return reads


def own_generations(checkpoint):
    """Generation files of ``checkpoint`` that no other checkpoint links."""
    from repro.runtime.faults import own_files

    return [path for path in own_files(checkpoint) if path.suffix == ".npz"]


class TestWalReadOnce:
    """Recovery truncates a torn tail once, by fsck's repair pass or, when
    it runs without fsck, by itself; replay opens only the segments
    holding records past the checkpoint."""

    @pytest.mark.parametrize("fsck", [True, False], ids=["fsck", "no-fsck"])
    def test_torn_tail_is_truncated_once(self, tmp_path, fsck, monkeypatch):
        import repro.runtime.runtime as runtime_module
        from repro.runtime.wal import _decode_line

        records = make_records()
        victim = IngestRuntime.create(
            tmp_path / "victim",
            make_store(),
            checkpoint_every=CHECKPOINT_EVERY,
            faults=FaultPlan(torn_write_at_record=101),
        )
        with pytest.raises(SimulatedCrash):
            for raw in records:
                victim.ingest(raw)
        # The torn append opened the segment the next append goes to.
        torn = tmp_path / "victim" / "wal" / "segment-000000000101.wal"
        assert not torn.read_bytes().endswith(b"\n")
        truncations = []
        original = runtime_module._truncate_torn_tail

        def counted(path):
            truncations.append(path.name)
            return original(path)

        monkeypatch.setattr(runtime_module, "_truncate_torn_tail", counted)
        recovered = IngestRuntime.recover(
            tmp_path / "victim", checkpoint_every=CHECKPOINT_EVERY, fsck=fsck
        )
        # fsck truncated it; the runtime's own pass runs only without it.
        assert len(truncations) == (0 if fsck else 2)
        assert recovered.applied_seq == 100
        assert torn.read_bytes() == b""
        for raw in records[100:]:
            assert recovered.ingest(raw) is True
        recovered.close()
        segments = sorted((tmp_path / "victim" / "wal").glob("segment-*.wal"))
        for segment in segments:
            for line in segment.read_text().splitlines(keepends=True):
                assert _decode_line(line) is not None, segment.name
        again = IngestRuntime.recover(
            tmp_path / "victim", checkpoint_every=CHECKPOINT_EVERY, fsck=fsck
        )
        assert again.applied_seq == len(records)
        twin = run_uninterrupted(tmp_path, records)
        assert_identical_answers(twin, again)

    def test_damaged_covered_segment_is_never_replayed(self, tmp_path, monkeypatch):
        import repro.runtime.wal as wal_module

        directory = build_closed(tmp_path)
        covered = directory / "wal" / "segment-000000000051.wal"
        lines = covered.read_text().splitlines(keepends=True)
        assert len(lines) == 50  # records 51..100, all below ckpt-100
        lines[20] = lines[20].replace('"item"', '"itex"')
        covered.write_text("".join(lines))
        decoded = []
        original = wal_module._decode_line

        def counted(line):
            decoded.append(line)
            return original(line)

        monkeypatch.setattr(wal_module, "_decode_line", counted)
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY, fsck=False
        )
        # Replay decoded the tail past the checkpoint and nothing else.
        assert len(decoded) == N_SHUTDOWN - 100
        assert recovered.applied_seq == N_SHUTDOWN
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)


class TestCheckpointHandoff:
    """Restart decodes the covering checkpoint once (no re-open)."""

    def test_each_archive_of_newest_checkpoint_loads_once(
        self, tmp_path, monkeypatch
    ):
        import repro.io.generations as generations
        from repro.server import ServingRuntime, SketchServer

        directory = build_closed(tmp_path)
        newest = directory / "checkpoints" / "ckpt-000000000100"
        archives = sorted(path.name for path in newest.glob("gen-*.npz"))
        assert archives
        loads: dict[str, int] = {}
        original = generations.read_generation

        def counted(where, gen):
            key = Path(where).name + "/" + gen["file"]
            loads[key] = loads.get(key, 0) + 1
            return original(where, gen)

        monkeypatch.setattr(generations, "read_generation", counted)
        runtime = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY
        )
        server = SketchServer(ServingRuntime(runtime), port=0).start()
        try:
            assert server.serving.view().seq == 100
        finally:
            server.stop()
        assert loads == {f"{newest.name}/{name}": 1 for name in archives}

    def test_freeze_before_replay_leaves_store_unchanged(self, tmp_path):
        """``save`` finalized every run, so the pre-replay freeze of a
        freshly decoded checkpoint must not change a bit of it."""
        from repro.engine.frozen import freeze_store
        from tests.test_batch_ingest import fingerprint

        directory = build_closed(tmp_path)
        path = directory / "checkpoints" / "ckpt-000000000100"
        store = SketchStore.open(path)
        before = fingerprint(store)
        freeze_store(store)
        assert fingerprint(store) == before
        assert fingerprint(store) == fingerprint(SketchStore.open(path))

        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY
        )
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert fingerprint(recovered.store) == fingerprint(twin.store)
        assert_identical_answers(twin, recovered)

    def test_recovery_decodes_the_best_checkpoint_once(
        self, tmp_path, monkeypatch
    ):
        directory = build_closed(tmp_path)
        opened = count_opens(monkeypatch)
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY
        )
        # fsck checks manifests and CRCs without decoding; recovery
        # decodes the newest checkpoint once.
        assert opened == ["ckpt-000000000100"]
        assert recovered.fsck_report.clean
        assert recovered.take_checkpoint_view(100) is not None
        assert recovered.take_checkpoint_view(100) is None, "one-shot"

    def test_without_fsck_recovery_opens_from_disk(self, tmp_path, monkeypatch):
        directory = build_closed(tmp_path)
        opened = count_opens(monkeypatch)
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY, fsck=False
        )
        assert opened == ["ckpt-000000000100"]
        assert recovered.fsck_report is None
        assert recovered.take_checkpoint_view(100) is not None
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)

    def test_truncated_newest_falls_back_and_first_cutover_reads_disk(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime import run_fsck
        from repro.server import ServingRuntime

        directory = build_closed(tmp_path)
        FaultPlan(truncate_checkpoint_at_rest=2).apply_at_rest(directory)
        assert run_fsck(directory).best_covered_seq == 50, "fsck's best is the older"
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY
        )
        # Replay crossed boundary 100 and re-snapshotted it: the view of
        # ckpt-50 is stale and must be gone.
        assert (directory / "checkpoints" / "ckpt-000000000100").is_dir()
        assert recovered._checkpoint_view is None
        opened = count_opens(monkeypatch)
        reads = count_generation_reads(monkeypatch)
        serving = ServingRuntime(recovered)
        assert serving.maybe_cutover(force=True)["view_seq"] == 100
        # The cutover reads the newest checkpoint's generations from
        # disk and builds its view from their columns, not trackers.
        assert opened == []
        assert reads and set(reads) == {"ckpt-000000000100"}
        t = serving.view().clock("urls")
        for item in range(0, UNIVERSE, 5):
            assert serving.point("urls", item, 0, t, mode="frozen") == (
                serving.point("urls", item, 0, t, mode="live")
            )
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)

    def test_missing_archive_is_unreadable_and_recovery_falls_back(
        self, tmp_path
    ):
        """A checkpoint that lost its own generation is damaged, not a
        crash: fsck verdicts it unreadable, repair quarantines it, and
        recovery falls back and re-snapshots at the boundary."""
        from repro.runtime import run_fsck
        from repro.runtime.fsck import CKPT_UNREADABLE

        directory = build_closed(tmp_path)
        newest = directory / "checkpoints" / "ckpt-000000000100"
        (lost,) = own_generations(newest)
        lost.unlink()
        report = run_fsck(directory)
        verdicts = {c.name: c.verdict for c in report.checkpoints}
        assert verdicts[newest.name] == CKPT_UNREADABLE
        assert lost.name in next(
            c.detail for c in report.checkpoints if c.name == newest.name
        )
        assert report.best_covered_seq == 50 and not report.data_loss

        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY
        )
        assert any(
            "quarantined unreadable checkpoint" in action
            for action in recovered.fsck_report.actions
        )
        assert recovered.applied_seq == N_SHUTDOWN
        assert recovered.stats.replayed == N_SHUTDOWN - 50
        assert run_fsck(directory).clean, "re-snapshotted"
        assert SketchStore.open(newest).streams() == ["ads", "urls"]
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)

    def test_structurally_bad_manifest_falls_back(self, tmp_path):
        directory = build_closed(tmp_path)
        newest = directory / "checkpoints" / "ckpt-000000000100"
        (newest / "manifest.json").write_text('{"format": "repro-store"}')
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY, fsck=False
        )
        assert recovered.stats.replayed == N_SHUTDOWN - 50
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)

    @pytest.mark.parametrize("fsck", [True, False], ids=["fsck", "no-fsck"])
    def test_flipped_manifest_digit_falls_back(self, tmp_path, fsck):
        from tests.test_batch_ingest import fingerprint
        from tests.test_fsck import flip_counter_digit

        directory = build_closed(tmp_path)
        newest = directory / "checkpoints" / "ckpt-000000000100"
        flip_counter_digit(newest / "manifest.json")
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY, fsck=fsck
        )
        assert recovered.stats.replayed == N_SHUTDOWN - 50
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert fingerprint(recovered.store) == fingerprint(twin.store)
        assert_identical_answers(twin, recovered)

    def test_missing_archive_without_fsck_falls_back(self, tmp_path):
        directory = build_closed(tmp_path)
        newest = directory / "checkpoints" / "ckpt-000000000100"
        (newest / "manifest.json").unlink()
        recovered = IngestRuntime.recover(
            directory, checkpoint_every=CHECKPOINT_EVERY, fsck=False
        )
        assert recovered.stats.replayed == N_SHUTDOWN - 50
        twin = run_uninterrupted(tmp_path, make_records(N_SHUTDOWN))
        assert_identical_answers(twin, recovered)

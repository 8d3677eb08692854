"""Durability scrubber (``repro fsck``): detection, classification, repair.

Every kind of at-rest damage :class:`~repro.runtime.faults.FaultPlan`
can inject — bit-rot inside a sealed segment, truncated or deleted
checkpoints, a lost or garbled ``CHECKPOINT`` pointer, torn append
tails, orphaned staging directories — must be *detected* (never a clean
verdict), *classified* (the right ``SEG_*``/``CKPT_*``/``PTR_*``
verdict), and *accounted* (loss-free when the best intact checkpoint
covers the damage, an explicit lost-record ledger when it does not).
With ``repair=True`` the directory must afterwards be accepted by
:meth:`IngestRuntime.recover`, and scan-only passes must never mutate
anything.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.io.generations import seal_manifest
from repro.runtime import FaultPlan, IngestRuntime, run_fsck
from repro.runtime.fsck import (
    CKPT_UNREADABLE,
    PTR_CLEAN,
    PTR_CORRUPT,
    PTR_DANGLING,
    PTR_MISSING,
    SEG_CLEAN,
    SEG_CORRUPT,
    SEG_TORN_TAIL,
)
from repro.runtime.wal import WriteAheadLog
from tests.test_runtime_batch import make_raws, make_store

#: 110 clean records at checkpoint_every=25 leave: checkpoints ckpt-75 +
#: ckpt-100 (RETAINED_CHECKPOINTS=2), a sealed segment 76..100 fully
#: covered by the best checkpoint, and an active segment 101..110 whose
#: records only the WAL holds.
N_RECORDS = 110
CKPT_EVERY = 25


def build_directory(tmp_path, n=N_RECORDS):
    directory = tmp_path / "rt"
    runtime = IngestRuntime.create(
        directory, make_store(), checkpoint_every=CKPT_EVERY
    )
    for raw in make_raws(n=n, dirty=False):
        runtime.ingest(raw)
    runtime.close()
    return directory


def dir_fingerprint(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def covered_segment(report):
    """The sealed segment wholly covered by the best checkpoint."""
    return report.segments[0]


def tail_segment(report):
    """The active segment carrying records beyond the best checkpoint."""
    return report.segments[-1]


# --------------------------------------------------------------------- #
# Clean directories and scan-only discipline
# --------------------------------------------------------------------- #


def test_clean_directory_reports_clean(tmp_path):
    directory = build_directory(tmp_path)
    report = run_fsck(directory)
    assert report.clean and report.recoverable and not report.data_loss
    assert report.best_covered_seq == 100
    assert report.replayable_through == N_RECORDS
    assert report.max_seq_seen == N_RECORDS
    assert report.actions == [] and not report.repaired
    assert report.scanned_records > 0 and report.scanned_bytes > 0
    assert all(seg.verdict == SEG_CLEAN for seg in report.segments)
    assert report.pointer.verdict == PTR_CLEAN
    assert report.summary().startswith("clean")
    # The report is JSON-ready end to end (the CLI prints it verbatim).
    assert json.loads(json.dumps(report.as_dict()))["clean"] is True


def test_scan_only_never_mutates(tmp_path):
    directory = build_directory(tmp_path)
    FaultPlan(flip_byte_in_segment=2, flip_byte_offset=10).apply_at_rest(
        directory
    )
    before = dir_fingerprint(directory)
    report = run_fsck(directory, repair=False)
    assert not report.clean
    assert dir_fingerprint(directory) == before


# --------------------------------------------------------------------- #
# Torn tails: unacknowledged, so repair is truncation, never loss
# --------------------------------------------------------------------- #


def test_torn_tail_classified_and_repaired(tmp_path):
    directory = build_directory(tmp_path)
    segments = sorted((directory / "wal").glob("segment-*.wal"))
    with open(segments[-1], "a", encoding="utf-8") as handle:
        handle.write('{"seq": 111, "crc": "torn-mid-ap')  # no newline
    report = run_fsck(directory)
    assert tail_segment(report).verdict == SEG_TORN_TAIL
    assert not report.data_loss, "a torn append was never acknowledged"
    assert report.replayable_through == N_RECORDS

    repaired = run_fsck(directory, repair=True)
    assert any("truncated torn tail" in a for a in repaired.actions)
    assert run_fsck(directory).clean
    recovered = IngestRuntime.recover(directory, checkpoint_every=CKPT_EVERY)
    assert recovered.applied_seq == N_RECORDS
    recovered.close()


def test_torn_tail_cut_counts_the_bytes_on_disk(tmp_path):
    """A CR LF line ahead of a torn tail reads as one LF line, but its
    two bytes both count toward the cut: repair keeps record 110 and
    its newline."""
    directory = build_directory(tmp_path)
    path = sorted((directory / "wal").glob("segment-*.wal"))[-1]
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3][:-1] + b"\r\n"
    path.write_bytes(b"".join(lines) + b'deadbeef {"seq":111,"str')
    assert run_fsck(directory).replayable_through == N_RECORDS

    repaired = run_fsck(directory, repair=True)
    assert any("truncated torn tail" in a for a in repaired.actions)
    assert path.read_bytes() == b"".join(lines)
    rescan = run_fsck(directory)
    assert rescan.clean and rescan.replayable_through == N_RECORDS
    replayed = WriteAheadLog(directory / "wal").replay(100)
    assert [record["seq"] for record in replayed][-1] == N_RECORDS


# --------------------------------------------------------------------- #
# Mid-segment corruption: covered damage is loss-free, uncovered is not
# --------------------------------------------------------------------- #


def test_covered_corruption_is_loss_free(tmp_path):
    directory = build_directory(tmp_path)
    FaultPlan(flip_byte_in_segment=1, flip_byte_offset=10).apply_at_rest(
        directory
    )
    report = run_fsck(directory)
    assert covered_segment(report).verdict == SEG_CORRUPT
    assert not report.data_loss, "best checkpoint covers every damaged seq"
    assert report.replayable_through == N_RECORDS

    repaired = run_fsck(directory, repair=True)
    quarantines = [a for a in repaired.actions if "quarantined" in a]
    assert quarantines and "loss-free" in quarantines[0]
    assert (directory / "quarantine").is_dir(), "damage kept for forensics"
    recovered = IngestRuntime.recover(directory, checkpoint_every=CKPT_EVERY)
    assert recovered.applied_seq == N_RECORDS
    recovered.close()


def test_uncovered_corruption_reports_explicit_loss(tmp_path):
    directory = build_directory(tmp_path)
    FaultPlan(flip_byte_in_segment=2, flip_byte_offset=10).apply_at_rest(
        directory
    )
    report = run_fsck(directory)
    assert tail_segment(report).verdict == SEG_CORRUPT
    assert report.data_loss
    assert report.unknown_damaged_frames == 1  # the flipped frame itself
    assert report.lost_records == 9  # decodable seqs 102..110, unreplayable
    assert report.replayable_through == 100
    assert "DATA LOSS" in report.summary()

    repaired = run_fsck(directory, repair=True)
    assert any("LOSES acknowledged records" in a for a in repaired.actions)
    # Repair leaves a recoverable directory; the loss stays explicit.
    recovered = IngestRuntime.recover(
        directory, checkpoint_every=CKPT_EVERY, acknowledge_data_loss=True
    )
    assert recovered.applied_seq == 100
    recovered.close()


def test_missing_covered_segment_is_loss_free(tmp_path):
    """A vanished segment wholly under the checkpoint severs nothing."""
    directory = build_directory(tmp_path)
    segments = sorted((directory / "wal").glob("segment-*.wal"))
    segments[0].unlink()
    report = run_fsck(directory)
    assert not report.data_loss
    assert report.replayable_through == N_RECORDS


# --------------------------------------------------------------------- #
# Checkpoint damage: fall back to the best intact snapshot
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("delete", [False, True], ids=["truncate", "delete"])
def test_damaged_best_checkpoint_falls_back(tmp_path, delete):
    directory = build_directory(tmp_path)
    n_ckpts = len(sorted((directory / "checkpoints").glob("ckpt-*")))
    plan = (
        FaultPlan(delete_checkpoint_at_rest=n_ckpts)
        if delete
        else FaultPlan(truncate_checkpoint_at_rest=n_ckpts)
    )
    plan.apply_at_rest(directory)
    report = run_fsck(directory)
    assert report.best_covered_seq == 75, "fsck fell back to ckpt-75"
    assert report.pointer.verdict == PTR_DANGLING
    if not delete:
        assert any(
            c.verdict == CKPT_UNREADABLE for c in report.checkpoints
        )
    # Replay from ckpt-75 reaches every durable record: loss-free.
    assert not report.data_loss
    assert report.replayable_through == N_RECORDS

    repaired = run_fsck(directory, repair=True)
    assert any("rewrote pointer" in a for a in repaired.actions)
    assert repaired.pointer.verdict == PTR_CLEAN
    recovered = IngestRuntime.recover(directory, checkpoint_every=CKPT_EVERY)
    assert recovered.applied_seq == N_RECORDS
    recovered.close()


# --------------------------------------------------------------------- #
# Pointer damage
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "plan, verdict",
    [
        (FaultPlan(delete_pointer_at_rest=True), PTR_MISSING),
        (FaultPlan(corrupt_pointer_at_rest=True), PTR_CORRUPT),
    ],
    ids=["missing", "corrupt"],
)
def test_pointer_damage_classified_and_rewritten(tmp_path, plan, verdict):
    directory = build_directory(tmp_path)
    plan.apply_at_rest(directory)
    report = run_fsck(directory)
    assert report.pointer.verdict == verdict
    assert not report.data_loss

    repaired = run_fsck(directory, repair=True)
    assert repaired.pointer.verdict == PTR_CLEAN
    assert repaired.pointer.checkpoint == "ckpt-000000000100"
    recovered = IngestRuntime.recover(directory, checkpoint_every=CKPT_EVERY)
    assert recovered.applied_seq == N_RECORDS
    recovered.close()


def _bare_format(manifest):
    return {"format": "repro-store"}


def _unknown_version(manifest):
    return {**manifest, "version": 99}


def _stream_without_delta(manifest):
    stream = {k: v for k, v in manifest["streams"][0].items() if k != "delta"}
    return {**manifest, "streams": [stream] + manifest["streams"][1:]}


def _tail_without_counters(manifest):
    streams = list(manifest["streams"])
    # The first stream with a point sketch (``urls`` keeps the hierarchy).
    index = next(i for i, stream in enumerate(streams) if stream["tails"]["point"])
    stream = dict(streams[index])
    point = {k: v for k, v in stream["tails"]["point"].items() if k != "counters"}
    stream["tails"] = {**stream["tails"], "point": point}
    streams[index] = stream
    return {**manifest, "streams": streams}


@pytest.mark.parametrize(
    "mangle",
    [_bare_format, _unknown_version, _stream_without_delta, _tail_without_counters],
    ids=["bare-format", "unknown-version", "stream-without-delta", "tail-without-counters"],
)
def test_structurally_bad_manifest_is_unreadable(tmp_path, mangle):
    directory = build_directory(tmp_path)
    path = directory / "checkpoints" / "ckpt-000000000100" / "manifest.json"
    # Resealed with a matching CRC32, so the structural check must see it.
    path.write_text(seal_manifest(mangle(json.loads(path.read_text()))))
    report = run_fsck(directory)
    verdict = next(c for c in report.checkpoints if c.name == path.parent.name)
    assert verdict.verdict == CKPT_UNREADABLE
    assert str(path) in verdict.detail
    assert "CRC32" not in verdict.detail
    assert report.best_covered_seq == 75 and not report.data_loss


def flip_counter_digit(path):
    """Change one digit of the first tail counter in the manifest at
    ``path``: the text still parses and every field keeps its type."""
    text = path.read_text()
    at = text.index('"counters":[[') + len('"counters":[[')
    digit = str((int(text[at]) + 1) % 10)
    path.write_text(text[:at] + digit + text[at + 1 :])
    json.loads(path.read_text())


def test_flipped_manifest_digit_is_unreadable(tmp_path):
    directory = build_directory(tmp_path)
    path = directory / "checkpoints" / "ckpt-000000000100" / "manifest.json"
    flip_counter_digit(path)
    report = run_fsck(directory)
    verdict = next(c for c in report.checkpoints if c.name == path.parent.name)
    assert verdict.verdict == CKPT_UNREADABLE
    assert f"{path}: store manifest CRC32 mismatch" in verdict.detail
    assert report.best_covered_seq == 75 and not report.data_loss


def test_orphan_staging_swept(tmp_path):
    directory = build_directory(tmp_path)
    staging = directory / "checkpoints" / ".ckpt-000000000123.saving.42"
    staging.mkdir()
    (staging / "half.json.gz").write_bytes(b"partial")
    report = run_fsck(directory)
    assert report.orphan_staging == [staging.name]
    assert not report.clean
    run_fsck(directory, repair=True)
    assert not staging.exists()
    assert run_fsck(directory).clean


# --------------------------------------------------------------------- #
# Acceptance: 100% detection across every injectable at-rest fault
# --------------------------------------------------------------------- #

AT_REST_PLANS = {
    "flip-covered": FaultPlan(flip_byte_in_segment=1, flip_byte_offset=10),
    "flip-tail": FaultPlan(flip_byte_in_segment=2, flip_byte_offset=10),
    "flip-last-byte": FaultPlan(flip_byte_in_segment=2, flip_byte_offset=-2),
    "truncate-ckpt": FaultPlan(truncate_checkpoint_at_rest=2),
    "delete-ckpt": FaultPlan(delete_checkpoint_at_rest=2),
    "delete-pointer": FaultPlan(delete_pointer_at_rest=True),
    "corrupt-pointer": FaultPlan(corrupt_pointer_at_rest=True),
}


@pytest.mark.parametrize("name", sorted(AT_REST_PLANS))
def test_every_injected_corruption_is_detected(tmp_path, name):
    directory = build_directory(tmp_path)
    actions = AT_REST_PLANS[name].apply_at_rest(directory)
    assert actions, "the fault plan must actually damage something"
    report = run_fsck(directory)
    assert not report.clean, f"{name}: damage went undetected"
    assert report.recoverable, f"{name}: repair should stay possible"
    # Repair always yields a directory recover() accepts.
    run_fsck(directory, repair=True)
    recovered = IngestRuntime.recover(
        directory, checkpoint_every=CKPT_EVERY, acknowledge_data_loss=True
    )
    assert recovered.applied_seq >= 100
    recovered.close()


def test_unrecoverable_when_no_checkpoint_deserializes(tmp_path):
    directory = build_directory(tmp_path)
    n_ckpts = len(sorted((directory / "checkpoints").glob("ckpt-*")))
    for ordinal in range(1, n_ckpts + 1):
        FaultPlan(truncate_checkpoint_at_rest=ordinal).apply_at_rest(
            directory
        )
    report = run_fsck(directory)
    assert not report.recoverable and not report.clean
    assert report.best_covered_seq is None
    assert "NO RECOVERABLE CHECKPOINT" in report.summary()


# --------------------------------------------------------------------- #
# One line decoder: fsck's verdicts are what replay reads
# --------------------------------------------------------------------- #


def _segment_lines(directory):
    path = sorted((directory / "wal").glob("segment-*.wal"))[-1]
    return path, path.read_text(encoding="utf-8").splitlines(keepends=True)


def _tear_tail(directory):
    path, _lines = _segment_lines(directory)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('deadbeef {"seq":111,"stream":"s')  # no newline


def _flip_mid_segment(directory):
    path, _lines = _segment_lines(directory)
    size = path.stat().st_size
    FaultPlan(flip_byte_in_segment=2, flip_byte_offset=size // 2).apply_at_rest(
        directory
    )


def _drop_a_line(directory):
    path, lines = _segment_lines(directory)
    del lines[4]
    path.write_text("".join(lines), encoding="utf-8")


def _gap_before_a_new_segment(directory):
    wal = WriteAheadLog(directory / "wal", next_seq=N_RECORDS + 5)
    wal.append_many([("s", 1, 1, 10_000)])
    wal.close()


def _crc_valid_non_json(directory):
    path, lines = _segment_lines(directory)
    body = '{"seq":105,"stream":'
    lines[4] = f"{zlib.crc32(body.encode()):08x} {body}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _cr_line_end(directory):
    """A line ended by CR: text reads (and so replay) take it for LF."""
    path, lines = _segment_lines(directory)
    lines[4] = lines[4][:-1] + "\r"
    path.write_bytes("".join(lines).encode("utf-8"))


WAL_DAMAGE = {
    "clean": lambda directory: None,
    "torn-tail": _tear_tail,
    "mid-segment-flip": _flip_mid_segment,
    "sequence-anomaly": _drop_a_line,
    "sequence-gap": _gap_before_a_new_segment,
    "crc-valid-non-json": _crc_valid_non_json,
    "cr-line-end": _cr_line_end,
}


@pytest.mark.parametrize("damage", sorted(WAL_DAMAGE))
def test_fsck_counts_exactly_the_records_replay_yields(tmp_path, damage):
    """fsck and replay read lines through one decoder: the records fsck
    judges replayable past the best checkpoint are, in order, the
    records replay yields after repair, and every other valid record
    past it is in the lost ledger."""
    directory = build_directory(tmp_path)
    pristine = list(WriteAheadLog(directory / "wal").replay(100))
    WAL_DAMAGE[damage](directory)
    report = run_fsck(directory)
    best = report.best_covered_seq
    assert best == 100
    expected = list(range(best + 1, report.replayable_through + 1))
    beyond = sum(seg.records_beyond_checkpoint for seg in report.segments)

    run_fsck(directory, repair=True)
    replayed = list(WriteAheadLog(directory / "wal").replay(best))
    assert [record["seq"] for record in replayed] == expected
    assert replayed == pristine[: len(expected)]
    assert beyond == len(replayed) + report.lost_records
    # Damage before the last acknowledged record ends the chain there.
    whole = damage in ("clean", "torn-tail", "sequence-gap", "cr-line-end")
    assert whole == (len(replayed) == N_RECORDS - best)


def test_scanned_bytes_are_the_bytes_on_disk(tmp_path):
    """An invalid UTF-8 byte decodes to U+FFFD, three bytes re-encoded:
    the scan counts what it read, not what it decoded."""
    directory = build_directory(tmp_path)
    segments = sorted((directory / "wal").glob("*.wal"))
    on_disk = sum(path.stat().st_size for path in segments)
    clean = run_fsck(directory)
    assert clean.scanned_bytes == on_disk == sum(
        len(path.read_text(encoding="utf-8").encode("utf-8")) for path in segments
    )
    # Two flipped bytes: each XOR 0xFF leaves invalid UTF-8.
    for offset in (10, -2):  # the first line and the last
        FaultPlan(flip_byte_in_segment=2, flip_byte_offset=offset).apply_at_rest(
            directory
        )
    damaged = run_fsck(directory)
    assert damaged.scanned_bytes == on_disk
    assert damaged.scanned_records == clean.scanned_records - 2
    # A nine-byte segment with two bad bytes counts nine, not thirteen.
    (directory / "wal" / "segment-000000000999.wal").write_bytes(b"ab\xffcd\xfeefg")
    assert run_fsck(directory).scanned_bytes == on_disk + 9

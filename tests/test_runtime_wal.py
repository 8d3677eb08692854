"""Tests for the write-ahead log: framing, torn tails, rotation, pruning."""

import json
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import IngestRuntime, run_fsck
from repro.runtime.faults import FaultPlan, SimulatedCrash
from repro.runtime.fsck import SEG_CLEAN
from repro.runtime.wal import WalCorruption, WriteAheadLog, _decode_line
from repro.store.store import SketchStore, StreamSpec


def _encode_line(record):
    """A record's WAL line as ``json.dumps`` defines it: the reference
    the writer's template framing must match byte for byte."""
    body = json.dumps(record, separators=(",", ":"), sort_keys=True)
    return f"{zlib.crc32(body.encode()):08x} {body}\n"


def _record(stream="s", item=1, count=1, time=1):
    return (stream, item, count, time)


class TestFraming:
    def test_roundtrip(self):
        record = {"seq": 7, "stream": "urls", "item": 3, "count": 1, "time": 9}
        assert _decode_line(_encode_line(record)) == record

    def test_bad_crc_rejected(self):
        line = _encode_line({"seq": 1, "item": 2})
        tampered = line.replace('"item":2', '"item":3')
        assert _decode_line(tampered) is None

    def test_truncated_line_rejected(self):
        line = _encode_line({"seq": 1, "item": 2})
        assert _decode_line(line[: len(line) // 2]) is None
        assert _decode_line("") is None
        assert _decode_line("garbage") is None


def reference_decode(line):
    """The line decoder as ``json.loads`` alone defines it."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, body = line[:8], line[9:].rstrip("\n")
    try:
        if int(crc_hex, 16) != zlib.crc32(body.encode()):
            return None
        document = json.loads(body)
    except ValueError:
        return None
    if not isinstance(document, dict) or "seq" not in document:
        return None
    return document


def frame(body):
    """``body`` behind a valid CRC, as the writer frames a line."""
    return f"{zlib.crc32(body.encode()):08x} {body}\n"


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
records = st.builds(
    lambda fields, seq: {**fields, "seq": seq},
    st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    st.integers(min_value=-2, max_value=2**40),
)
documents = (json_values | records).map(json.dumps)
whitespace = st.text(alphabet=" \t\r\n\x0b\x0c\u00a0", max_size=3)
#: Bodies whose lines are damaged alone but merge into valid JSON.
fragments = st.sampled_from(
    ['{"seq":1,"x":"', '"}', '{"seq":2},{"seq":5}', '{"seq":3}', "NaN",
     "Infinity", "-Infinity", '{"seq":NaN}', '{"seq":Infinity}', "[", "]",
     ",", '"seq"', "{}", "nan", "\ufeff{\"seq\":1}"]
)
bodies = st.one_of(
    documents,
    st.tuples(whitespace, documents, whitespace).map("".join),
    st.tuples(documents, st.sampled_from(["", ",", " ", "\n"]), documents).map(
        "".join
    ),
    st.lists(fragments, min_size=1, max_size=3).map("".join),
    st.text(max_size=24),
)
lines = st.one_of(
    records.map(_encode_line),
    bodies.map(frame),
    bodies.map(lambda body: frame(body)[:-1]),  # unterminated
    st.tuples(
        st.text(alphabet="0123456789abcdefABCDEFx_+- g", min_size=8, max_size=8),
        bodies,
    ).map(lambda pair: f"{pair[0]} {pair[1]}\n"),  # bad or odd hex
    st.text(max_size=12),  # short lines
)


EDGE_BODIES = [
    ' {"seq":1}', '{"seq":1} ', '{"seq":1}\t', '{"seq":1}{"seq":2}',
    '{"seq":1},{"seq":2}', '[{"seq":1}]', '{"seq":NaN}', "NaN",
    '{"seq":1,"x":"', '"}', '{"seq":2},{"seq":5}', '{"seq": 1, "x": [1, 2]}',
]


def with_edge_bodies(test):
    for body in EDGE_BODIES:
        test = example(frame(body))(test)
    return test


class TestDecoderEquality:
    @settings(max_examples=400, deadline=None)
    @given(lines)
    @with_edge_bodies
    def test_decoder_equals_the_json_loads_reference(self, line):
        # repr: NaN never equals itself, and 1 must not pass for 1.0.
        assert repr(_decode_line(line)) == repr(reference_decode(line))

    def test_merged_fragments_stay_damaged_line_by_line(self):
        """Three CRC-valid bodies that parse as one JSON array if a
        segment were parsed whole: each line alone is damaged."""
        bodies = ['{"seq":1,"x":"', '"}', '{"seq":2},{"seq":5}']
        assert len(json.loads("[" + ",".join(bodies) + "]")) == 3
        assert [_decode_line(frame(body)) for body in bodies] == [None] * 3


class TestAppendReplay:
    def test_append_assigns_contiguous_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        seqs = [wal.append_many([_record(time=t)])[0] for t in range(1, 6)]
        assert seqs == [1, 2, 3, 4, 5]
        replayed = list(wal.replay(0))
        assert [r["seq"] for r in replayed] == seqs
        assert replayed[0]["stream"] == "s"

    def test_replay_after_floor(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 11):
            wal.append_many([_record(time=t)])
        assert [r["seq"] for r in wal.replay(7)] == [8, 9, 10]

    def test_torn_tail_dropped(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 4):
            wal.append_many([_record(time=t)])
        wal.close()
        segment = wal.segments()[0][1]
        with open(segment, "a") as handle:
            handle.write('deadbeef {"seq":4,"stream":"s","it')  # torn
        assert [r["seq"] for r in WriteAheadLog(tmp_path).replay(0)] == [1, 2, 3]

    def test_damage_mid_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 4):
            wal.append_many([_record(time=t)])
        wal.close()
        segment = wal.segments()[0][1]
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = "corrupted line\n"
        with open(segment, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(WalCorruption):
            list(WriteAheadLog(tmp_path).replay(0))

    def test_sequence_gap_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_many([_record(time=1)])
        wal.close()
        wal2 = WriteAheadLog(tmp_path, next_seq=5)
        wal2.append_many([_record(time=2)])
        with pytest.raises(WalCorruption):
            list(WriteAheadLog(tmp_path).replay(0))

    def test_replay_never_opens_a_fully_covered_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 6):
            wal.append_many([_record(time=t)])
        wal.rotate()
        for t in range(6, 9):
            wal.append_many([_record(time=t)])
        wal.close()
        # A segment holding one record past the floor is still read.
        assert [r["seq"] for r in WriteAheadLog(tmp_path).replay(4)] == [5, 6, 7, 8]
        covered = wal.segments()[0][1]
        lines = covered.read_text().splitlines(keepends=True)
        lines[2] = "corrupted line\n"
        covered.write_text("".join(lines))
        # Records 1..5 are at or below the floor: the damage is unread.
        assert [r["seq"] for r in WriteAheadLog(tmp_path).replay(5)] == [6, 7, 8]
        # Record 5 is needed and sits past the damage.
        with pytest.raises(WalCorruption):
            list(WriteAheadLog(tmp_path).replay(4))

    def test_scripted_torn_write_crashes_after_partial_line(self, tmp_path):
        plan = FaultPlan(torn_write_at_record=2)
        wal = WriteAheadLog(tmp_path, faults=plan)
        wal.append_many([_record(time=1)])
        with pytest.raises(SimulatedCrash):
            wal.append_many([_record(time=2)])
        # The torn tail is dropped; record 1 survives.
        assert [r["seq"] for r in WriteAheadLog(tmp_path).replay(0)] == [1]


class TestRotationPruning:
    def test_rotate_starts_new_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append_many([_record(time=1)])
        wal.rotate()
        wal.append_many([_record(time=2)])
        starts = [start for start, _path in wal.segments()]
        assert starts == [1, 2]
        assert [r["seq"] for r in wal.replay(0)] == [1, 2]

    def test_prune_keeps_uncovered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 4):
            wal.append_many([_record(time=t)])
        wal.rotate()
        for t in range(4, 7):
            wal.append_many([_record(time=t)])
        wal.rotate()
        wal.append_many([_record(time=7)])
        # Everything through seq 6 is covered by a checkpoint.
        removed = wal.prune(6)
        assert len(removed) == 2
        assert [start for start, _path in wal.segments()] == [7]
        assert [r["seq"] for r in wal.replay(6)] == [7]

    def test_sequence_numbers_past_twelve_digits(self, tmp_path):
        """Names carry the sequence number in 12 digits or more: a
        segment starting at 10^12 is listed, replayed and scanned by
        fsck, and listings sort numerically, not by name."""
        directory = tmp_path / "rt"
        wal = WriteAheadLog(directory / "wal", next_seq=10**12 - 1)
        wal.append_many([_record(time=1)])
        wal.rotate()
        assert wal.append_many([_record(time=2)]) == [10**12]
        wal.close()
        starts = [start for start, _path in wal.segments()]
        assert starts == [10**12 - 1, 10**12]
        assert [r["seq"] for r in wal.replay(10**12 - 2)] == [10**12 - 1, 10**12]
        report = run_fsck(directory)
        assert [seg.name for seg in report.segments] == [
            path.name for _start, path in wal.segments()
        ]
        assert report.scanned_records == 2
        for name in ("ckpt-1000000000000", "ckpt-999999999999"):
            (directory / "checkpoints" / name).mkdir(parents=True)
        assert [seq for seq, _path in IngestRuntime._checkpoints(directory)] == [
            10**12 - 1, 10**12
        ]
        # At-rest faults count segments and checkpoints in that order.
        first = directory / "wal" / "segment-999999999999.wal"
        last = directory / "wal" / "segment-1000000000000.wal"
        before = (first.read_bytes(), last.read_bytes())
        FaultPlan(
            flip_byte_in_segment=1, flip_byte_offset=0,
            delete_checkpoint_at_rest=1,
        ).apply_at_rest(directory)
        assert first.read_bytes() != before[0]
        assert last.read_bytes() == before[1]
        assert not (directory / "checkpoints" / "ckpt-999999999999").exists()
        assert (directory / "checkpoints" / "ckpt-1000000000000").exists()

    def test_prune_never_removes_active_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for t in range(1, 4):
            wal.append_many([_record(time=t)])
        assert wal.prune(3) == []
        assert [r["seq"] for r in wal.replay(0)] == [1, 2, 3]


# --------------------------------------------------------------------- #
# The template framer against its json.dumps reference
# --------------------------------------------------------------------- #

#: A runtime directory whose WAL was framed by ``json.dumps`` (the
#: ``_encode_line`` reference above) before the writer framed lines from
#: a template; :func:`write_golden` re-creates it.
GOLDEN = Path(__file__).parent / "fixtures" / "runtime_wal"
GOLDEN_STREAMS = [
    "urls",
    'say "hi"',
    "back\\slash",
    "\u00fcn\u00efc\u00f8d\u00e9-\u6d41",
    "tab\tline\u2028sep",
]
INT64 = 2**63
GOLDEN_RAWS = [
    {"stream": "urls", "item": 0, "count": 1, "time": 1},
    {"stream": "urls", "item": 5},  # auto-ticked
    {"stream": "urls", "item": INT64 - 1, "count": -3},
    {"stream": 'say "hi"', "item": 7, "count": -INT64, "time": 10},
    {"stream": 'say "hi"', "item": 8, "count": INT64 - 1},
    {"stream": "back\\slash", "item": 1, "count": 2, "time": 5},
    {"stream": GOLDEN_STREAMS[3], "item": 3},
    {"stream": GOLDEN_STREAMS[3], "item": 4, "count": -1, "time": INT64 - 1},
    {"stream": GOLDEN_STREAMS[4], "item": 9, "time": None},
    {"stream": "urls", "item": 12345678901234, "count": 1, "time": 40},
]


def write_golden(directory):
    """The ingest that wrote :data:`GOLDEN`: one four-record frame, then
    one-record frames."""
    store = SketchStore(width=8, depth=2, seed=3)
    for name in GOLDEN_STREAMS:
        store.create(StreamSpec(name, delta=2.0))
    runtime = IngestRuntime.create(directory, store, checkpoint_every=1000)
    assert runtime.ingest_batch(GOLDEN_RAWS[:4]) == 4
    for raw in GOLDEN_RAWS[4:]:
        assert runtime.ingest(raw)
    runtime.close()


def tree_bytes(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def reference_bytes(rows, first_seq=1):
    """``rows`` framed by the ``json.dumps`` reference, from ``first_seq``."""
    return [
        _encode_line(
            {"seq": seq, "stream": stream, "item": item, "count": count,
             "time": time}
        ).encode()
        for seq, (stream, item, count, time) in enumerate(rows, first_seq)
    ]


class TestTemplateFraming:
    def test_golden_directory_is_rewritten_byte_for_byte(self, tmp_path):
        write_golden(tmp_path / "rt")
        assert tree_bytes(tmp_path / "rt") == tree_bytes(GOLDEN)

    def test_golden_directory_replays_and_fscks_unchanged(self, tmp_path):
        directory = tmp_path / "rt"
        shutil.copytree(GOLDEN, directory)
        segment = directory / "wal" / "segment-000000000001.wal"
        records = list(WriteAheadLog(directory / "wal").replay(0))
        rows = [
            (r["stream"], r["item"], r["count"], r["time"]) for r in records
        ]
        assert [r["seq"] for r in records] == list(range(1, 11))
        assert b"".join(reference_bytes(rows)) == segment.read_bytes()
        assert [row[3] for row in rows[:3]] == [1, 2, 3]  # auto-ticked
        report = run_fsck(directory, repair=True)
        assert report.clean and report.actions == []
        assert [seg.verdict for seg in report.segments] == [SEG_CLEAN]
        assert report.scanned_records == report.replayable_through == 10
        assert tree_bytes(directory) == tree_bytes(GOLDEN)
        runtime = IngestRuntime.recover(directory)
        assert runtime.applied_seq == 10
        assert runtime.clock(GOLDEN_STREAMS[3]) == INT64 - 1
        runtime.close()

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=8).filter(lambda name: "/" not in name),
                st.integers(min_value=0, max_value=INT64 - 1),
                st.integers(min_value=-INT64, max_value=INT64 - 1).filter(bool),
                st.integers(min_value=1, max_value=INT64 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        # Segment names carry 12 digits of the first seq, or more.
        first_seq=st.integers(min_value=1, max_value=10**15),
    )
    def test_template_equals_the_json_reference(self, rows, first_seq):
        with tempfile.TemporaryDirectory() as directory:
            wal = WriteAheadLog(directory, next_seq=first_seq)
            assert wal.append_many(rows) == list(
                range(first_seq, first_seq + len(rows))
            )
            wal.close()
            (_start, path), = wal.segments()
            assert path.read_bytes() == b"".join(reference_bytes(rows, first_seq))

    @pytest.mark.faults
    @pytest.mark.parametrize("tear", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_fault_at_kth_record_leaves_the_reference_prefix(
        self, tmp_path, tear, k
    ):
        """Frames of three rows: a crash before, or a torn write of, the
        k-th record leaves the earlier lines whole and, when torn, the
        first half of line k — the prefix the json.dumps framer left."""
        rows = [(GOLDEN_STREAMS[i % 5], i, 1 - 2 * (i % 2), i + 1) for i in range(8)]
        plan = (
            FaultPlan(torn_write_at_record=k)
            if tear
            else FaultPlan(crash_before_record=k)
        )
        wal = WriteAheadLog(tmp_path, faults=plan)
        with pytest.raises(SimulatedCrash):
            for lo in range(0, len(rows), 3):
                wal.append_many(rows[lo : lo + 3])
        wal.close()
        lines = reference_bytes(rows)
        expected = b"".join(lines[: k - 1])
        if tear:
            expected += lines[k - 1][: max(1, len(lines[k - 1]) // 2)]
        (_start, path), = wal.segments()
        assert path.read_bytes() == expected
        assert wal.next_seq == k

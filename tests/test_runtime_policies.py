"""Tests for ingest policies: malformed/late handling, dead letters, retry."""

import json

import pytest

from repro.runtime import (
    FaultPlan,
    IngestPolicy,
    IngestRuntime,
    LateRecordError,
    MalformedRecordError,
    SnapshotRetryError,
)
from repro.runtime.policies import DeadLetterFile, IngestStats, run_with_retry
from repro.store import SketchStore, StreamSpec
from repro.streams.records import IngestRecord, RecordError, parse_record


def make_store():
    store = SketchStore(width=64, depth=3, join_width=64, seed=3)
    store.create(StreamSpec(name="urls", delta=4))
    return store


def make_runtime(tmp_path, **kwargs):
    kwargs.setdefault("checkpoint_every", 1000)
    return IngestRuntime.create(tmp_path / "rt", make_store(), **kwargs)


class TestParseRecord:
    def test_valid(self):
        record = parse_record({"stream": "urls", "item": 3})
        assert record == IngestRecord(stream="urls", item=3, count=1, time=None)

    @pytest.mark.parametrize(
        "raw",
        [
            "not a dict",
            {},
            {"stream": "", "item": 1},
            {"stream": "a/b", "item": 1},
            {"stream": "s"},
            {"stream": "s", "item": "three"},
            {"stream": "s", "item": True},
            {"stream": "s", "item": -1},
            {"stream": "s", "item": 1, "count": 0},
            {"stream": "s", "item": 1, "time": 0},
            {"stream": "s", "item": 1, "time": 1.5},
            {"stream": "s", "item": 1, "bogus": 2},
            {"stream": "s", "item": 2**63},
            {"stream": "s", "item": 1, "count": 2**63},
            {"stream": "s", "item": 1, "count": -(2**63) - 1},
            {"stream": "s", "item": 1, "time": 2**63},
        ],
    )
    def test_malformed(self, raw):
        with pytest.raises(RecordError):
            parse_record(raw)


    def test_int64_extremes_accepted(self):
        raw = {"stream": "s", "item": 2**63 - 1, "count": -(2**63),
               "time": 2**63 - 1}
        record = parse_record(raw)
        assert (record.item, record.count, record.time) == (
            2**63 - 1, -(2**63), 2**63 - 1
        )


class TestPolicyValidation:
    def test_bad_actions_rejected(self):
        with pytest.raises(ValueError):
            IngestPolicy(on_malformed="explode")
        with pytest.raises(ValueError):
            IngestPolicy(on_late="ignore")
        with pytest.raises(ValueError):
            IngestPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            IngestPolicy(backoff_factor=0.5)


class TestMalformed:
    def test_raise(self, tmp_path):
        runtime = make_runtime(tmp_path)
        with pytest.raises(MalformedRecordError):
            runtime.ingest({"stream": "urls", "item": "zzz"})
        assert runtime.stats.malformed == 1

    def test_skip(self, tmp_path):
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="skip")
        )
        assert runtime.ingest({"stream": "urls", "item": "zzz"}) is False
        assert runtime.stats.malformed == 1
        assert runtime.stats.quarantined == 0
        assert runtime.dead_letters.entries() == []

    def test_quarantine(self, tmp_path):
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="quarantine")
        )
        assert runtime.ingest({"stream": "urls", "item": "zzz"}) is False
        (entry,) = runtime.dead_letters.entries()
        assert entry["kind"] == "malformed"
        assert entry["record"] == {"stream": "urls", "item": "zzz"}
        assert runtime.stats.quarantined == 1

    def test_unknown_stream_is_malformed(self, tmp_path):
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="quarantine")
        )
        assert runtime.ingest({"stream": "nope", "item": 1}) is False
        (entry,) = runtime.dead_letters.entries()
        assert "unknown stream" in entry["reason"]

    @pytest.mark.parametrize(
        "record, reason",
        [
            (IngestRecord("urls", -1), "'item' must be >= 0"),
            (IngestRecord("urls", 2**63), "outside the int64 range"),
            (IngestRecord("urls", 4, count=0), "'count' must be non-zero"),
            (IngestRecord("urls", 4, time=0), "'time' must be >= 1"),
            (IngestRecord("urls", True), "must be an integer"),
        ],
    )
    def test_ingest_record_takes_the_field_checks(self, tmp_path, record, reason):
        """A typed record is dead-lettered before the WAL append, as its
        dict form would be, and the directory still recovers."""
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="quarantine")
        )
        assert runtime.ingest_batch(
            [IngestRecord("urls", 1, time=1), record, IngestRecord("urls", 2)]
        ) == 2
        (entry,) = runtime.dead_letters.entries()
        assert entry["kind"] == "malformed"
        assert reason in entry["reason"]
        assert entry["record"] == record.to_wire()
        assert runtime.health()["state"] == "healthy"
        runtime.close()
        recovered = IngestRuntime.recover(tmp_path / "rt")
        assert recovered.applied_seq == 2
        assert recovered.store.point("urls", 2) == runtime.store.point("urls", 2)
        recovered.close()

    def test_record_error_instance_goes_through_policy(self, tmp_path):
        """read_jsonl_records yields RecordError for bad JSON lines."""
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="skip")
        )
        assert runtime.ingest(RecordError("line 3: invalid JSON")) is False
        assert runtime.stats.malformed == 1


class TestLate:
    def test_duplicate_timestamp_is_late(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.ingest({"stream": "urls", "item": 1, "time": 5})
        with pytest.raises(LateRecordError):
            runtime.ingest({"stream": "urls", "item": 2, "time": 5})
        with pytest.raises(LateRecordError):
            runtime.ingest({"stream": "urls", "item": 2, "time": 4})
        assert runtime.stats.late == 2

    def test_skip_keeps_clock(self, tmp_path):
        runtime = make_runtime(tmp_path, policy=IngestPolicy(on_late="skip"))
        runtime.ingest({"stream": "urls", "item": 1, "time": 5})
        assert runtime.ingest({"stream": "urls", "item": 2, "time": 3}) is False
        assert runtime.clock("urls") == 5
        # The store never saw the late record.
        assert runtime.store.point("urls", 2) == 0.0

    def test_quarantine_records_reason(self, tmp_path):
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_late="quarantine")
        )
        runtime.ingest({"stream": "urls", "item": 1, "time": 5})
        runtime.ingest({"stream": "urls", "item": 2, "time": 5})
        (entry,) = runtime.dead_letters.entries()
        assert entry["kind"] == "late"
        assert "clock is at 5" in entry["reason"]

    def test_auto_time_never_late(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.ingest({"stream": "urls", "item": 1, "time": 5})
        assert runtime.ingest({"stream": "urls", "item": 1}) is True
        assert runtime.clock("urls") == 6


class TestRetry:
    def test_transient_io_error_retried_with_backoff(self, tmp_path):
        sleeps = []
        plan = FaultPlan(io_error_at_checkpoint=1, io_error_count=2)
        runtime = make_runtime(
            tmp_path,
            policy=IngestPolicy(max_retries=3, backoff_base=0.05),
            faults=plan,
            sleep=sleeps.append,
        )
        runtime.ingest({"stream": "urls", "item": 1})
        runtime.checkpoint()
        assert sleeps == [0.05, 0.1]
        assert runtime.stats.snapshot_retries == 2
        # Bootstrap checkpoint (at create) + the explicit one above.
        assert runtime.stats.checkpoints == 2

    def test_budget_exhaustion_raises(self, tmp_path):
        plan = FaultPlan(io_error_at_checkpoint=1, io_error_count=10)
        runtime = make_runtime(
            tmp_path,
            policy=IngestPolicy(max_retries=2),
            faults=plan,
            sleep=lambda _t: None,
        )
        runtime.ingest({"stream": "urls", "item": 1})
        with pytest.raises(SnapshotRetryError):
            runtime.checkpoint()
        # The record is still durable in the WAL: recovery replays it.
        recovered = IngestRuntime.recover(tmp_path / "rt")
        assert recovered.stats.replayed == 1
        assert recovered.clock("urls") == 1

    def test_per_sleep_cap_saturates_exponential_growth(self):
        sleeps = []
        policy = IngestPolicy(
            max_retries=6,
            backoff_base=0.5,
            backoff_factor=4.0,
            backoff_cap=2.0,
            backoff_total_cap=100.0,
        )

        def always_fails():
            raise OSError("dead disk")

        with pytest.raises(SnapshotRetryError):
            run_with_retry(
                always_fails, policy, IngestStats(), sleep=sleeps.append
            )
        # 0.5, 2.0 (4x growth saturates at the cap), then flat.
        assert sleeps == [0.5, 2.0, 2.0, 2.0, 2.0, 2.0]

    def test_total_cap_bounds_cumulative_retry_latency(self):
        """Worst-case retry latency is bounded no matter the budget: once
        the cumulative cap is spent, remaining retries run back-to-back."""
        sleeps = []
        policy = IngestPolicy(
            max_retries=10,
            backoff_base=1.0,
            backoff_factor=1.0,
            backoff_cap=10.0,
            backoff_total_cap=2.5,
        )

        def always_fails():
            raise OSError("dead disk")

        with pytest.raises(SnapshotRetryError):
            run_with_retry(
                always_fails, policy, IngestStats(), sleep=sleeps.append
            )
        assert sum(sleeps) == pytest.approx(policy.backoff_total_cap)
        # 1.0 + 1.0 + the 0.5 remainder, then zero-length sleeps.
        assert sleeps[:3] == pytest.approx([1.0, 1.0, 0.5])
        assert sleeps[3:] == pytest.approx([0.0] * len(sleeps[3:]))

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="backoff_cap"):
            IngestPolicy(backoff_cap=-1.0)
        with pytest.raises(ValueError, match="backoff_total_cap"):
            IngestPolicy(backoff_total_cap=-0.1)

    def test_run_with_retry_returns_value(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("flaky disk")
            return "ok"

        stats = IngestStats()
        result = run_with_retry(
            flaky, IngestPolicy(max_retries=5), stats, sleep=lambda _t: None
        )
        assert result == "ok"
        assert stats.snapshot_retries == 2


class TestDeadLetterFile:
    def test_unserializable_record_stringified(self, tmp_path):
        letters = DeadLetterFile(tmp_path / "dead.jsonl")
        letters.append("malformed", "why", {1, 2})
        (entry,) = letters.entries()
        assert "1" in entry["record"]

    def test_missing_file_is_empty(self, tmp_path):
        assert DeadLetterFile(tmp_path / "nope.jsonl").entries() == []

    def test_count_matches_entries(self, tmp_path):
        letters = DeadLetterFile(tmp_path / "dead.jsonl")
        assert letters.count() == 0
        for i in range(7):
            letters.append("malformed", f"reason {i}", {"item": i})
        assert letters.count() == 7 == len(letters.entries())

    def test_count_lazy_scan_then_incremental(self, tmp_path):
        """A pre-existing file is scanned once; appends just bump the
        counter (no re-read)."""
        path = tmp_path / "dead.jsonl"
        first = DeadLetterFile(path)
        for i in range(5):
            first.append("late", "clock", {"item": i})
        reopened = DeadLetterFile(path)
        assert reopened.count() == 5
        reopened.append("late", "clock", {"item": 99})
        assert reopened.count() == 6

    def test_count_does_not_materialize_entries(self, tmp_path, monkeypatch):
        """Regression: describe() used to call entries() just to count.

        With a large quarantine file that walk dominated every status
        probe; count() must never parse or materialize the entries.
        """
        letters = DeadLetterFile(tmp_path / "dead.jsonl")
        blob = {"padding": "x" * 512}
        for i in range(2000):
            entry = json.dumps(
                {"kind": "malformed", "reason": str(i), "record": blob},
                separators=(",", ":"),
            )
            # Bypass append()'s per-line fsync; we only need the bytes.
            with open(letters.path, "a", encoding="utf-8") as handle:
                handle.write(entry + "\n")
        monkeypatch.setattr(
            DeadLetterFile,
            "entries",
            lambda self: pytest.fail("count() materialized entries()"),
        )
        assert letters.count() == 2000


class TestDescribeDeadLetters:
    def test_describe_counts_without_entries(self, tmp_path, monkeypatch):
        runtime = make_runtime(
            tmp_path, policy=IngestPolicy(on_malformed="quarantine")
        )
        for i in range(3):
            assert runtime.ingest({"stream": "urls", "item": f"bad{i}"}) is False
        monkeypatch.setattr(
            DeadLetterFile,
            "entries",
            lambda self: pytest.fail("describe() materialized entries()"),
        )
        assert runtime.describe()["dead_letters"] == 3

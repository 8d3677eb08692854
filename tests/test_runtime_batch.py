"""Batch-framed WAL ingestion: equality with scalar ingest and crash safety.

``IngestRuntime.ingest_batch`` frames accepted records into the WAL with
one fsync per chunk and applies them through the sketch batch planners;
per-record :meth:`ingest` is a one-record frame of it.  These tests pin
the contract down: the WAL *bytes*, clocks, statistics, checkpoint
cadence and full store state must be bit-identical however the feed is
framed, and equal to an independent reference — a plain store fed by
``SketchStore.update`` one record at a time.  A crash in the middle of
a frame must recover like a crash between frames — the unacknowledged
tail is re-sent, nothing double-counts.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.runtime import (
    FaultPlan,
    IngestPolicy,
    IngestRuntime,
    LateRecordError,
    SimulatedCrash,
)
from repro.runtime.wal import WriteAheadLog
from repro.store import SketchStore, StreamSpec
from repro.streams.model import Stream
from repro.streams.records import read_jsonl_batches
from tests.test_batch_ingest import fingerprint

UNIVERSE = 64


def make_store():
    store = SketchStore(width=64, depth=3, join_width=64, seed=11)
    store.create(
        StreamSpec(
            name="urls",
            delta=4,
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
        )
    )
    store.create(StreamSpec(name="ads", delta=4, joinable=True))
    return store


def make_raws(n=400, dirty=True):
    """A mixed feed: two streams, auto-ticks, late, and malformed raws."""
    rng = random.Random(77)
    raws = []
    clock = {"urls": 0, "ads": 0}
    for i in range(n):
        name = "urls" if i % 3 else "ads"
        raw = {"stream": name, "item": rng.randrange(UNIVERSE)}
        if rng.random() < 0.5:
            raw["count"] = rng.choice([1, 2, 3])
        if rng.random() < 0.6:
            clock[name] += rng.randrange(1, 4)
            raw["time"] = clock[name]
        else:
            clock[name] += 1  # auto-tick
        raws.append(raw)
        if dirty and i % 41 == 7:
            raws.append({"stream": name, "item": 1, "time": clock[name]})  # late
        if dirty and i % 53 == 9:
            raws.append({"stream": "ghost", "item": 1})  # unknown stream
        if dirty and i % 67 == 11:
            raws.append({"item": "nope"})  # malformed
    return raws


def accepted(raws):
    """``(stream, item, count, time)`` of every :func:`make_raws` record
    the runtime accepts: a known stream, an integer item and a time
    strictly past the stream's clock (auto-ticked when absent)."""
    clocks = {"urls": 0, "ads": 0}
    out = []
    for raw in raws:
        stream, item = raw.get("stream"), raw.get("item")
        if stream not in clocks or not isinstance(item, int):
            continue
        time = raw.get("time", clocks[stream] + 1)
        if time <= clocks[stream]:
            continue
        clocks[stream] = time
        out.append((stream, item, raw.get("count", 1), time))
    return out


def reference_state(records, checkpoint_every, directory):
    """Fingerprint of a plain store fed by ``SketchStore.update``, one
    call per ``(stream, item, count, time)``, and saved at the runtime's
    checkpoint positions (a save finalizes open PLA runs, so the cadence
    is part of the state)."""
    store = make_store()
    store.save(directory / "ckpt-000000000000", seq=0)
    for seq, (stream, item, count, time) in enumerate(records, start=1):
        store.update(stream, item, count, time)
        if seq % checkpoint_every == 0:
            store.save(directory / f"ckpt-{seq:012d}", seq=seq)
    return fingerprint(store._streams)


def wal_bytes(runtime):
    return b"".join(
        path.read_bytes() for _seq, path in runtime.wal.segments()
    )


def store_state(runtime):
    return fingerprint(runtime.store._streams)


QUARANTINE = {"on_malformed": "quarantine", "on_late": "quarantine"}


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("batch_size", [7, 77])
    def test_mixed_feed_is_bit_identical(self, tmp_path, batch_size):
        raws = make_raws()
        scalar = IngestRuntime.create(
            tmp_path / "scalar",
            make_store(),
            checkpoint_every=100,
            policy=IngestPolicy(**QUARANTINE),
        )
        for raw in raws:
            scalar.ingest(raw)
        batched = IngestRuntime.create(
            tmp_path / "batched",
            make_store(),
            checkpoint_every=100,
            policy=IngestPolicy(**QUARANTINE),
        )
        applied = 0
        for lo in range(0, len(raws), batch_size):
            applied += batched.ingest_batch(raws[lo : lo + batch_size])

        assert applied == scalar.stats.ingested
        assert batched.applied_seq == scalar.applied_seq
        assert batched._clocks == scalar._clocks
        assert batched.stats.as_dict() == scalar.stats.as_dict()
        assert wal_bytes(batched) == wal_bytes(scalar)
        assert store_state(batched) == store_state(scalar)
        assert store_state(batched) == reference_state(
            accepted(raws), 100, tmp_path / "reference"
        )
        # Checkpoint cadence (which shapes PLA segmentation) matched too.
        scalar_cp = sorted(p.name for p in (tmp_path / "scalar").iterdir())
        batched_cp = sorted(p.name for p in (tmp_path / "batched").iterdir())
        assert batched_cp == scalar_cp

    def test_ingest_stream_batch_size(self, tmp_path):
        rng = random.Random(5)
        items = [rng.randrange(UNIVERSE) for _ in range(300)]
        stream = Stream(items)
        scalar = IngestRuntime.create(
            tmp_path / "scalar", make_store(), checkpoint_every=90
        )
        assert scalar.ingest_stream("urls", stream) == 300
        batched = IngestRuntime.create(
            tmp_path / "batched", make_store(), checkpoint_every=90
        )
        assert batched.ingest_stream("urls", stream, batch_size=64) == 300
        assert wal_bytes(batched) == wal_bytes(scalar)
        assert store_state(batched) == store_state(scalar)
        records = [("urls", u.item, u.count, u.time) for u in stream]
        assert store_state(batched) == reference_state(
            records, 90, tmp_path / "reference"
        )
        with pytest.raises(ValueError, match="batch_size"):
            batched.ingest_stream("urls", stream, batch_size=0)

    def test_raise_policy_flushes_accepted_prefix(self, tmp_path):
        runtime = IngestRuntime.create(
            tmp_path / "rt",
            make_store(),
            checkpoint_every=1000,
            policy=IngestPolicy(on_late="raise"),
        )
        raws = [
            {"stream": "urls", "item": 1, "time": 5},
            {"stream": "urls", "item": 2, "time": 9},
            {"stream": "urls", "item": 3, "time": 9},  # late: not past 9
            {"stream": "urls", "item": 4, "time": 12},
        ]
        with pytest.raises(LateRecordError, match="is not past it"):
            runtime.ingest_batch(raws)
        # Scalar semantics: the records before the offender are durable
        # and applied before the raise; the tail was never reached.
        assert runtime.applied_seq == 2
        assert runtime.clock("urls") == 9
        assert runtime.stats.ingested == 2
        assert runtime.stats.late == 1

    def test_quarantine_counts_match_batch_positions(self, tmp_path):
        runtime = IngestRuntime.create(
            tmp_path / "rt",
            make_store(),
            checkpoint_every=1000,
            policy=IngestPolicy(**QUARANTINE),
        )
        raws = [
            {"stream": "urls", "item": 1},
            {"bogus": True},
            {"stream": "urls", "item": 2, "time": 1},  # late vs pending clock
            {"stream": "urls", "item": 3},
        ]
        # Auto-tick puts the first record at time 1, so the explicit
        # time=1 record is late *against the pending batch clock*.
        assert runtime.ingest_batch(raws) == 2
        stats = runtime.stats.as_dict()
        assert stats["ingested"] == 2
        assert stats["malformed"] == 1
        assert stats["late"] == 1
        assert stats["quarantined"] == 2
        assert runtime.clock("urls") == 2


class TestWalBatchFraming:
    def test_append_many_bytes_equal_repeated_append(self, tmp_path):
        records = [("s", i, 1, i + 1) for i in range(25)]
        one = WriteAheadLog(tmp_path / "one")
        for record in records:
            one.append_many([record])
        many = WriteAheadLog(tmp_path / "many")
        seqs = many.append_many(records)
        assert seqs == list(range(1, 26))
        assert many.next_seq == one.next_seq == 26
        one_bytes = b"".join(p.read_bytes() for _s, p in one.segments())
        many_bytes = b"".join(p.read_bytes() for _s, p in many.segments())
        assert many_bytes == one_bytes

    def test_append_many_empty_is_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.append_many([]) == []
        assert wal.next_seq == 1


class TestCrashDuringBatch:
    """A crash mid-frame recovers like a crash between frames.

    The fault ordinal 143 lands mid-chunk for frames of 50 (checkpoints
    at 120): torn writes and pre-WAL crashes leave the durable prefix at
    142, a post-durability crash leaves the whole framed chunk (150)
    durable but unapplied — recovery replays it from the WAL.  Fed
    per record through :meth:`ingest`, the frame is the one record, so
    a post-durability crash leaves 143 durable.
    """

    @pytest.mark.parametrize(
        "plan, durable, durable_per_record",
        [
            (FaultPlan(crash_before_record=143), 142, 142),
            (FaultPlan(torn_write_at_record=143), 142, 142),
            (FaultPlan(crash_after_record=143), 150, 143),
        ],
        ids=["plan0-142", "plan1-142", "plan2-150"],
    )
    def test_recover_and_resend_matches_twin(
        self, tmp_path, plan, durable, durable_per_record
    ):
        raws = make_raws(n=300, dirty=False)
        twin = IngestRuntime.create(
            tmp_path / "twin", make_store(), checkpoint_every=120
        )
        for lo in range(0, len(raws), 50):
            twin.ingest_batch(raws[lo : lo + 50])

        def batched(runtime):
            for lo in range(0, len(raws), 50):
                runtime.ingest_batch(raws[lo : lo + 50])

        def per_record(runtime):
            for raw in raws:
                runtime.ingest(raw)

        for feed, expected in ((batched, durable), (per_record, durable_per_record)):
            directory = tmp_path / feed.__name__
            victim = IngestRuntime.create(
                directory,
                make_store(),
                checkpoint_every=120,
                faults=replace(plan),  # a fresh plan: ordinals restart at 0
                sleep=lambda _t: None,
            )
            with pytest.raises(SimulatedCrash):
                feed(victim)

            recovered = IngestRuntime.recover(directory, checkpoint_every=120)
            assert recovered.applied_seq == expected, feed.__name__
            recovered.ingest_batch(raws[recovered.applied_seq :])

            assert recovered.applied_seq == twin.applied_seq
            assert recovered._clocks == twin._clocks
            # The recovered runtime's counters cover only the re-sent tail.
            assert recovered.stats.ingested == len(raws) - expected
            assert store_state(recovered) == store_state(twin)


class TestChunkedReader:
    def _write(self, path, lines):
        with open(path, "w") as handle:
            for line in lines:
                handle.write(
                    line if isinstance(line, str) else json.dumps(line)
                )
                handle.write("\n")

    def test_batches_preserve_order_and_malformed_positions(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(
            path,
            [
                {"stream": "urls", "item": 0},
                {"stream": "urls", "item": 1},
                "this is not json",
                {"stream": "urls", "item": 3},
                {"stream": "urls", "item": 4},
            ],
        )
        batches = list(read_jsonl_batches(path, 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        flat = [raw for batch in batches for raw in batch]
        assert [raw.get("item") if isinstance(raw, dict) else None for raw in flat] == [
            0, 1, None, 3, 4,
        ]
        # The malformed line rides along in position; the runtime's
        # per-record classification quarantines it like scalar ingest.
        runtime = IngestRuntime.create(
            tmp_path / "rt",
            make_store(),
            checkpoint_every=1000,
            policy=IngestPolicy(**QUARANTINE),
        )
        for batch in batches:
            runtime.ingest_batch(batch)
        assert runtime.stats.ingested == 4
        assert runtime.stats.malformed == 1

    def test_batch_size_validation(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write(path, [{"stream": "urls", "item": 0}])
        with pytest.raises(ValueError, match="batch size"):
            list(read_jsonl_batches(path, 0))

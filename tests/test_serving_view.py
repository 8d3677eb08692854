"""Serving-layer property tests: routing, cutover, boundary semantics.

The load-bearing property (ISSUE 8): a :class:`ServingRuntime` answer
must be bit-equal to the pure-live answer for *every* query, whichever
side of the frozen/live split serves it — including windows that end
exactly at the freeze tick, where the record at the boundary timestamp
must be counted by exactly one side (no double-count, no drop).
"""

from __future__ import annotations

import pytest

from repro.io import SerializationError
from repro.runtime import DegradedError, IngestRuntime
from repro.server.serving import ServingRuntime
from repro.store import SketchStore, StreamSpec
from tests.test_runtime_recovery import count_generation_reads, count_opens

CHECKPOINT_EVERY = 50
N_RECORDS = 120
UNIVERSE = 32


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
    return store


def make_records(n=N_RECORDS):
    """Explicit times 1..n so the freeze boundary lands on a known tick."""
    return [
        {
            "stream": "urls",
            "item": (7 * i) % UNIVERSE,
            "count": 1 + (i % 3),
            "time": i + 1,
        }
        for i in range(n)
    ]


@pytest.fixture
def served(tmp_path):
    """A runtime with 120 records, checkpoints at 50/100, view at 50."""
    runtime = IngestRuntime.create(
        tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
    )
    records = make_records()
    serving = ServingRuntime(runtime)
    for raw in records[:CHECKPOINT_EVERY]:
        assert serving.ingest(raw) is True
    assert serving.maybe_cutover(force=True)["swapped"] is True
    for raw in records[CHECKPOINT_EVERY:]:
        assert serving.ingest(raw) is True
    return serving, records


class TestBoundarySemantics:
    """Satellite 3: window-edge behaviour at the cutover boundary."""

    def test_routing_sides(self, served):
        serving, _records = served
        view = serving.view()
        fc = view.clock("urls")
        assert fc == CHECKPOINT_EVERY  # explicit times: tick == seq
        # t at or before the freeze tick: frozen side serves.
        routed, _t = serving._route("urls", float(fc), "auto")
        assert routed is view
        # One tick past the boundary: live side serves.
        routed, _t = serving._route("urls", float(fc) + 1.0, "auto")
        assert routed is None

    @pytest.mark.parametrize("verb", ["point", "self_join_size", "window_mass"])
    def test_sweep_across_boundary(self, served, verb):
        """Every query bit-equal to pure-live while sweeping t (and s)
        across the freeze tick, for every sketch family."""
        serving, _records = served
        fc = serving.view().clock("urls")
        now = serving.runtime.clock("urls")
        ts = [fc - 2, fc - 1, fc, fc + 1, fc + 2, now - 1, now]
        ss = [0, fc - 1, fc, fc + 1]
        for t in ts:
            for s in ss:
                if s > t:
                    continue
                if verb == "point":
                    for item in range(0, UNIVERSE, 5):
                        auto = serving.point("urls", item, s, t)
                        live = serving.point("urls", item, s, t, mode="live")
                        assert auto == live, (item, s, t)
                else:
                    query = getattr(serving, verb)
                    assert query("urls", s, t) == query(
                        "urls", s, t, mode="live"
                    ), (verb, s, t)

    def test_heavy_hitters_across_boundary(self, served):
        serving, _records = served
        fc = serving.view().clock("urls")
        now = serving.runtime.clock("urls")
        for t in [fc - 1, fc, fc + 1, now]:
            auto = serving.heavy_hitters("urls", 0.05, 0, t)
            live = serving.heavy_hitters("urls", 0.05, 0, t, mode="live")
            assert auto == live, t

    def test_t_none_resolves_before_routing(self, served):
        """t=None means the live clock on either side (the PR 3 clamp)."""
        serving, _records = served
        now = serving.runtime.clock("urls")
        assert serving.point("urls", 7, 0, None) == serving.point(
            "urls", 7, 0, now, mode="live"
        )

    def test_t_none_at_exact_boundary_serves_frozen(self, tmp_path):
        """With no tail past the checkpoint, "now" == freeze tick: the
        query routes frozen and the `t == now` clamp path must accept it."""
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        serving = ServingRuntime(runtime)
        for raw in make_records(CHECKPOINT_EVERY):
            serving.ingest(raw)
        assert serving.maybe_cutover(force=True)["swapped"] is True
        fc = serving.view().clock("urls")
        assert fc == serving.runtime.clock("urls")
        routed, t = serving._route("urls", None, "auto")
        assert routed is serving.view() and t == float(fc)  # sketchlint: disable=SL002 — exact resolved-clock equality is the property
        for item in range(0, UNIVERSE, 3):
            assert serving.point("urls", item) == serving.point(
                "urls", item, mode="live"
            )

    def test_boundary_record_counted_exactly_once(self, served):
        """The record at the freeze tick lands in exactly one side.

        ``window_mass`` tracks exact total count at the hierarchy root,
        so mass is additive over a window split: the frozen-served mass
        up to the boundary plus the live-served mass after it must equal
        the live-served mass of the union — drop or double-count of the
        boundary record would break the sum by its count.
        """
        serving, records = served
        fc = serving.view().clock("urls")
        boundary = records[CHECKPOINT_EVERY - 1]
        assert boundary["time"] == fc
        before = serving.window_mass("urls", fc - 1, fc, mode="frozen")
        after = serving.window_mass("urls", fc, fc + 1, mode="live")
        union = serving.window_mass("urls", fc - 1, fc + 1, mode="live")
        assert before + after == union  # sketchlint: disable=SL002 — root-counter mass is exact; a tolerance could hide a dropped boundary record
        assert before == float(boundary["count"])  # sketchlint: disable=SL002 — same: the boundary record's count is exact

    def test_frozen_mode_rejects_live_tail(self, served):
        serving, _records = served
        fc = serving.view().clock("urls")
        with pytest.raises(ValueError, match="live tail"):
            serving.point("urls", 1, 0, fc + 1, mode="frozen")

    def test_point_many_splits_by_boundary(self, served):
        serving, _records = served
        fc = serving.view().clock("urls")
        now = serving.runtime.clock("urls")
        items = [1, 5, 9, 13, 17]
        windows = [
            (0, fc),
            (0, fc + 1),
            (fc - 3, fc),
            (0, None),
            (3, now),
        ]
        mixed = serving.point_many("urls", items, windows)
        live = serving.point_many("urls", items, windows, mode="live")
        assert mixed == live
        single = [
            serving.point("urls", item, s, t if t is not None else now)
            for item, (s, t) in zip(items, windows)
        ]
        assert mixed == single


class TestCutover:
    def test_cadence_gating(self, tmp_path):
        ticks = [0.0]
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=10
        )
        serving = ServingRuntime(
            runtime,
            freeze_every=25,
            freeze_interval_s=60.0,
            clock=lambda: ticks[0],
        )
        records = make_records(40)
        serving.ingest_batch(records[:10])
        status = serving.maybe_cutover(force=True)
        assert status["swapped"] is True and status["view_seq"] == 10
        # 10 more records -> checkpoint at 20, but 20 - 10 < freeze_every.
        serving.ingest_batch(records[10:20])
        status = serving.maybe_cutover()
        assert status["swapped"] is False
        assert "cadence" in status["reason"]
        # Cross the record cadence: checkpoint 40 is 30 > 25 past the view.
        serving.ingest_batch(records[20:40])
        status = serving.maybe_cutover()
        assert status["swapped"] is True and status["view_seq"] == 40

    def test_wall_clock_cadence(self, tmp_path):
        ticks = [0.0]
        runtime = IngestRuntime.create(
            tmp_path / "rt", make_store(), checkpoint_every=10
        )
        serving = ServingRuntime(
            runtime,
            freeze_every=1000,
            freeze_interval_s=30.0,
            clock=lambda: ticks[0],
        )
        records = make_records(20)
        serving.ingest_batch(records[:10])
        assert serving.maybe_cutover(force=True)["swapped"] is True
        serving.ingest_batch(records[10:20])
        assert serving.maybe_cutover()["swapped"] is False
        ticks[0] = 31.0
        status = serving.maybe_cutover()
        assert status["swapped"] is True and status["view_seq"] == 20

    def test_self_join_equals_live_across_cutover(self, served):
        """Each view answers self-joins from its own plan: the new view
        matches live at its horizon, the old one its own snapshot."""
        serving, _records = served
        first = serving.view()
        t1 = first.clock("urls")
        before = first.frozen.self_join_size("urls", 5, t1)
        assert before == serving.self_join_size("urls", 5, t1, mode="live")
        assert serving.maybe_cutover(force=True)["swapped"] is True
        t2 = serving.view().clock("urls")
        assert t2 > t1
        for s, t in [(0, t2), (5, t2), (t1, t2), (0, t1), (0, 0)]:
            assert serving.self_join_size(
                "urls", s, t, mode="frozen"
            ) == serving.self_join_size("urls", s, t, mode="live"), (s, t)
        assert first.frozen.self_join_size("urls", 5, t1) == before

    def test_noop_when_no_new_checkpoint(self, served):
        serving, _records = served
        serving.maybe_cutover(force=True)
        before = serving.view()
        status = serving.maybe_cutover(force=True)
        assert status["swapped"] is False
        assert "newest checkpoint" in status["reason"]
        assert serving.view() is before

    def test_unreadable_checkpoint_is_skipped(self, served, monkeypatch):
        """A checkpoint pruned or damaged mid-load must not kill serving."""
        serving, _records = served
        before = serving.view()

        from repro.io import generations

        def boom(directory, gen):
            raise SerializationError("pruned from under us")

        monkeypatch.setattr(generations, "read_generation", boom)
        status = serving.maybe_cutover(force=True)
        assert status["swapped"] is False
        assert "unreadable" in status["reason"]
        assert serving.view() is before

    def test_serving_snapshot(self, served):
        serving, _records = served
        snap = serving.serving_snapshot()
        assert snap["view_seq"] == CHECKPOINT_EVERY
        assert snap["tail_records"] == N_RECORDS - CHECKPOINT_EVERY
        assert snap["cutovers"] == 1
        health_block = serving.health()["serving"]
        describe_block = serving.describe()["serving"]
        health_block.pop("view_age_s")
        describe_block.pop("view_age_s")
        assert health_block == describe_block


def recovered_runtime(tmp_path, n=N_RECORDS):
    """A closed, then recovered runtime: checkpoints 50 and 100, tail 101..n."""
    runtime = IngestRuntime.create(
        tmp_path / "rt", make_store(), checkpoint_every=CHECKPOINT_EVERY
    )
    runtime.ingest_batch(make_records(n))
    runtime.close()
    return IngestRuntime.recover(
        tmp_path / "rt", checkpoint_every=CHECKPOINT_EVERY
    )


class TestRecoveredViewHandoff:
    """The first cutover after a restart serves recovery's frozen view."""

    def test_handed_view_is_bit_equal_to_a_disk_freeze(
        self, tmp_path, monkeypatch
    ):
        import random

        from repro.engine.frozen import freeze_store

        runtime = recovered_runtime(tmp_path)
        newest = tmp_path / "rt" / "checkpoints" / "ckpt-000000000100"
        reference = freeze_store(SketchStore.open(newest))

        def boom(cls, directory):
            raise AssertionError("the first cutover must not re-open it")

        serving = ServingRuntime(runtime)
        monkeypatch.setattr(SketchStore, "open", classmethod(boom))
        assert serving.maybe_cutover(force=True)["view_seq"] == 100
        monkeypatch.undo()
        handed = serving.view().frozen
        fc = handed.clock("urls")
        assert fc == reference.clock("urls") == 100
        rng = random.Random(7)
        windows = []
        for _ in range(25):
            s = rng.randrange(0, fc)
            windows.append((s, rng.randrange(s, fc + 1)))
        items = [rng.randrange(UNIVERSE) for _ in windows]
        for item, (s, t) in zip(items, windows):
            for verb, args in (
                ("point", (item, s, t)),
                ("self_join_size", (s, t)),
                ("heavy_hitters", (0.05, s, t)),
            ):
                assert getattr(handed, verb)("urls", *args) == getattr(
                    reference, verb
                )("urls", *args), (verb, args)
            # frozen == live at the frozen horizon
            assert serving.point("urls", item, s, t, mode="frozen") == (
                serving.point("urls", item, s, t, mode="live")
            )
        assert list(handed.point_many("urls", items, windows)) == list(
            reference.point_many("urls", items, windows)
        )

    def test_checkpoint_before_first_cutover_drops_the_view(
        self, tmp_path, monkeypatch
    ):
        runtime = recovered_runtime(tmp_path, n=130)
        assert runtime._checkpoint_view is not None
        runtime.ingest_batch(make_records(150)[130:])  # crosses boundary 150
        assert runtime._checkpoint_view is None
        opened = count_opens(monkeypatch)
        reads = count_generation_reads(monkeypatch)
        serving = ServingRuntime(runtime)
        assert serving.maybe_cutover(force=True)["view_seq"] == 150
        assert opened == []
        assert reads and set(reads) == {"ckpt-000000000150"}
        for item in range(0, UNIVERSE, 5):
            assert serving.point("urls", item, 0, 150, mode="frozen") == (
                serving.point("urls", item, 0, 150, mode="live")
            )


class TestDegradedServing:
    def test_degraded_keeps_reads_refuses_writes(self, served):
        serving, _records = served
        serving.runtime.monitor.degrade(
            "wal-io", "disk full", recoverable=False
        )
        with pytest.raises(DegradedError):
            serving.ingest({"stream": "urls", "item": 1})
        # Reads still flow, from both sides of the split.
        fc = serving.view().clock("urls")
        assert serving.point("urls", 1, 0, fc) >= 0.0
        assert serving.point("urls", 1, mode="live") >= 0.0
        assert serving.health()["state"] == "degraded-readonly"

    def test_failed_refuses_reads(self, served):
        serving, _records = served
        serving.runtime.monitor.fail("fsck", "unrecoverable damage")
        with pytest.raises(DegradedError):
            serving.point("urls", 1)
        with pytest.raises(DegradedError):
            serving.point_many("urls", [1, 2])

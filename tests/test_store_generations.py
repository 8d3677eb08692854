"""Store format v2: checkpoints written as append-only generations.

A save writes one generation holding what was appended since the
store's previous committed save, hard-links the older generations, and
keeps at most ``MAX_GENERATIONS`` by the merge schedule of
``merge_start``.  These tests pin the properties the layout promises:
opening any save gives back the live store bit for bit, the bytes a
checkpoint appends follow the records since the previous one rather
than the stream and compaction rewrites them a bounded number of times,
a damaged generation shared by every checkpoint is accounted as loss
instead of making the directory unrecoverable, and version 1
directories still open.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.store.store as store_module
from repro.core.persistent_countmin import PWCCountMin
from repro.engine.frozen import freeze_columns, freeze_store
from repro.io import SerializationError
from repro.io.generations import (
    KINDS,
    MAX_GENERATIONS,
    VERSION,
    merge_start,
    read_columns,
    read_manifest,
    rewrite_bound,
    seal_manifest,
)
from repro.runtime import IngestRuntime, run_fsck
from repro.runtime.faults import own_files
from repro.runtime.fsck import CKPT_PARTIAL
from repro.runtime.health import DegradedError
from repro.pla.orourke import OnlinePLA
from repro.store import SketchStore, StreamSpec
from tests.test_batch_ingest import fingerprint

FIXTURE_V1 = Path(__file__).parent / "fixtures" / "store_v1"
FIXTURE_V2 = Path(__file__).parent / "fixtures" / "store_v2"


def feed_fixture_store():
    """The store ``tests/fixtures/store_v1`` was saved from.

    That directory was written by the version 1 store format (one
    JSON-gz archive per sketch) and is kept as it was written, before
    streams had a hierarchy fan-out: its hierarchy has the dyadic
    ``fanout=2`` (and a root level, read past).
    """
    store = SketchStore(width=16, depth=3, join_width=32, seed=5)
    store.create(
        StreamSpec(
            "urls", delta=4.0, universe=64, heavy_hitters=True,
            joinable=True, quantiles=True, fanout=2,
        )
    )
    store.create(StreamSpec("clicks", delta=2.0))
    rng = np.random.default_rng(2026)
    for name, n in (("urls", 300), ("clicks", 200)):
        items = rng.integers(0, 64, size=n).astype(np.int64)
        counts = rng.choice(np.array([1, 1, 2, -1], dtype=np.int64), size=n)
        times = np.arange(1, n + 1, dtype=np.int64) * 2
        store.update_batch(name, times, items, counts)
    return store


def grow(store, rng, n=60):
    """Append ``n`` updates to every stream of ``store``."""
    for name in store.streams():
        start = store.clock(name)
        store.update_batch(
            name,
            np.arange(start + 1, start + n + 1, dtype=np.int64),
            rng.integers(0, 64, size=n).astype(np.int64),
            np.ones(n, dtype=np.int64),
        )


def answers(store):
    out = []
    for name in store.streams():
        t = store.clock(name)
        for s in (0, t // 3):
            out += [store.point(name, item, s, t) for item in range(0, 64, 3)]
    out.append(store.heavy_hitters("urls", 0.05, 0, t))
    out.append(store.self_join_size("urls", 0, t))
    out.append(store.quantile("urls", 0.5, 0, t))
    return out


def test_v1_fixture_opens_like_a_freshly_fed_twin(tmp_path):
    assert read_manifest(FIXTURE_V1)["version"] == 1
    opened = SketchStore.open(FIXTURE_V1)
    twin = feed_fixture_store()
    twin.save(tmp_path / "twin")  # a save finalizes, as the v1 save did
    assert fingerprint(opened) == fingerprint(twin)
    assert answers(opened) == answers(twin)
    # Reading v1 never writes it; the opened store saves version 2.
    opened.save(tmp_path / "v2")
    assert read_manifest(tmp_path / "v2")["version"] == 2
    assert fingerprint(SketchStore.open(tmp_path / "v2")) == fingerprint(twin)


def saved_v2_twin(directory):
    """The store ``tests/fixtures/store_v2`` was saved from, saved the
    same way: :func:`feed_fixture_store`, a save with a sequence number,
    :func:`grow`, and a second save on that base.  That directory (two
    generations, young first-touch skeletons, sampled history entries
    and the heavy-hitter mass tracker) was written by the version 2
    code that kept sketch history as tracker objects, and is kept as it
    was written."""
    store = feed_fixture_store()
    store.save(directory / "first", seq=100)
    grow(store, np.random.default_rng(21))
    store.save(directory / "second", seq=200)
    return store


def test_v2_fixture_opens_like_a_freshly_fed_twin(tmp_path):
    manifest = read_manifest(FIXTURE_V2)
    assert manifest["version"] == VERSION == 2
    assert len(manifest["generations"]) == 2
    opened = SketchStore.open(FIXTURE_V2)
    twin = saved_v2_twin(tmp_path)
    assert fingerprint(opened) == fingerprint(twin)
    assert answers(opened) == answers(twin)
    assert_tables_equal(column_view(FIXTURE_V2), freeze_store(twin))


# --------------------------------------------------------------------- #
# Checkpoints from before hierarchy streams dropped their point sketch
# --------------------------------------------------------------------- #


def test_the_fixtures_hold_a_point_sketch_for_the_hierarchy_stream():
    """What the upgrade tests below read past: ``urls`` keeps the
    hierarchy, yet both fixtures carry its point sketch."""
    assert (FIXTURE_V1 / "urls.point.json.gz").exists()
    manifest = read_manifest(FIXTURE_V2)
    assert manifest["streams"][0]["name"] == "urls"
    assert manifest["streams"][0]["tails"]["point"] is not None
    with np.load(FIXTURE_V2 / manifest["generations"][0]["file"]) as gen:
        runs = gen["pla_run_key"]
        assert ((runs[:, 0] == 0) & (runs[:, 1] == 0)).any()


@pytest.mark.parametrize("fixture", [FIXTURE_V1, FIXTURE_V2], ids=["v1", "v2"])
def test_an_old_checkpoint_saves_a_null_point_tail(tmp_path, fixture):
    opened = SketchStore.open(fixture)
    assert opened._state("urls").point_sketch is None
    assert opened._state("clicks").point_sketch is not None
    directory = opened.save(tmp_path / "saved", seq=300)
    tails = {
        entry["name"]: entry["tails"]
        for entry in read_manifest(directory)["streams"]
    }
    assert tails["urls"]["point"] is None
    assert tails["clicks"]["point"]["type"] == "PersistentCountMin"
    reopened = SketchStore.open(directory)
    assert fingerprint(reopened) == fingerprint(opened)
    assert answers(reopened) == answers(opened)


def test_a_new_hierarchy_stream_saves_and_opens_its_fanout(tmp_path):
    store = SketchStore(width=16, depth=3, join_width=32, seed=5)
    store.create(
        StreamSpec("urls", delta=4.0, universe=4096, heavy_hitters=True)
    )
    store.create(StreamSpec("clicks", delta=2.0))
    grow(store, np.random.default_rng(3))
    directory = store.save(tmp_path / "saved", seq=60)
    entries = {
        entry["name"]: entry for entry in read_manifest(directory)["streams"]
    }
    assert entries["urls"]["fanout"] == 16
    assert len(entries["urls"]["tails"]["hh"]["levels"]) == 3  # 16^3 = 4096
    assert "fanout" not in entries["clicks"]
    opened = SketchStore.open(directory)
    assert opened._state("urls").hh_sketch.fanout == 16
    assert fingerprint(opened) == fingerprint(store)
    assert_tables_equal(column_view(directory), freeze_store(store))


@pytest.mark.parametrize("fanout", [3, 1, "16", True])
def test_a_manifest_with_a_bad_fanout_is_malformed(tmp_path, fanout):
    directory = tmp_path / "saved"
    store = SketchStore(width=16, depth=3, join_width=32, seed=5)
    store.create(StreamSpec("urls", delta=4.0, universe=64, heavy_hitters=True))
    store.save(directory, seq=1)
    manifest = read_manifest(directory)
    manifest["streams"][0]["fanout"] = fanout
    (directory / "manifest.json").write_text(seal_manifest(manifest))
    with pytest.raises(SerializationError, match="fanout"):
        SketchStore.open(directory)


@pytest.mark.parametrize(
    "fanout, extra",
    [(16, 1), (2, 1), (None, 2), (None, 0)],
    ids=["b16-one-more", "b2-one-more", "unrecorded-two-more", "unrecorded-no-root"],
)
def test_a_tail_with_the_wrong_level_count_is_malformed(tmp_path, fanout, extra):
    """Only an entry that records no fan-out (written before hierarchies
    had one) holds one level document past its levels, a root that is
    read past; any other level count is malformed, not cut short."""
    directory = tmp_path / "saved"
    store = SketchStore(width=16, depth=3, join_width=32, seed=5)
    store.create(
        StreamSpec(
            "urls", delta=4.0, universe=4096, heavy_hitters=True,
            fanout=fanout or 2,
        )
    )
    grow(store, np.random.default_rng(3))
    store.save(directory, seq=60)
    manifest = read_manifest(directory)
    entry = manifest["streams"][0]
    if fanout is None:
        del entry["fanout"]
    levels = entry["tails"]["hh"]["levels"]
    levels.extend([levels[-1]] * extra)
    (directory / "manifest.json").write_text(seal_manifest(manifest))
    with pytest.raises(SerializationError, match="level documents"):
        SketchStore.open(directory)
    with pytest.raises(SerializationError, match="level documents"):
        column_view(directory)


def test_v2_fixture_column_view_equals_a_freeze_of_its_open():
    assert_tables_equal(
        column_view(FIXTURE_V2), freeze_store(SketchStore.open(FIXTURE_V2))
    )


def tail_records(store, n=90, seed=31):
    """``n`` records for both fixture streams, past their clocks."""
    rng = random.Random(seed)
    clocks = {name: store.clock(name) for name in store.streams()}
    records = []
    for i in range(n):
        name = ("urls", "clicks")[i % 2]
        clocks[name] += 1 + rng.randrange(2)
        records.append(
            {
                "stream": name,
                "item": rng.randrange(64),
                "count": rng.choice([1, 1, 2]),
                "time": clocks[name],
            }
        )
    return records


def test_recovery_from_an_old_checkpoint_and_a_wal_tail_equals_its_twin(tmp_path):
    directory = tmp_path / "rt"
    shutil.copytree(FIXTURE_V2, directory / "checkpoints" / "ckpt-000000000200")
    first = IngestRuntime.recover(directory, checkpoint_every=10_000)
    assert first.applied_seq == 200
    records = tail_records(first.store)
    assert first.ingest_batch(records) == len(records)
    first.close()
    recovered = IngestRuntime.recover(directory, checkpoint_every=10_000)
    assert recovered.applied_seq == 200 + len(records)
    # Still the old layout: the tail was replayed onto the fixture.
    assert [p.name for p in (directory / "checkpoints").glob("ckpt-*")] == [
        "ckpt-000000000200"
    ]
    twin = IngestRuntime.create(
        tmp_path / "twin", saved_v2_twin(tmp_path), checkpoint_every=10_000
    )
    assert twin.ingest_batch(records) == len(records)
    assert fingerprint(recovered.store) == fingerprint(twin.store)
    assert answers(recovered.store) == answers(twin.store)
    recovered.close()
    twin.close()


def test_a_checkpoint_written_now_has_the_v2_fixture_layout(tmp_path):
    """Same npz array names and dtypes, generation by generation, and
    the same per-kind field and column sets."""
    saved_v2_twin(tmp_path)
    written = tmp_path / "second"
    ours = read_manifest(written)["generations"]
    theirs = read_manifest(FIXTURE_V2)["generations"]
    assert [g["seq"] for g in ours] == [g["seq"] for g in theirs]
    for mine, fixture in zip(ours, theirs):
        with np.load(written / mine["file"]) as a, np.load(
            FIXTURE_V2 / fixture["file"]
        ) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].dtype == b[name].dtype, name
                assert a[name].ndim == b[name].ndim, name
    with np.load(FIXTURE_V2 / theirs[0]["file"]) as b:
        for kind in KINDS:
            assert {n for n in b.files if n.startswith(f"{kind.name}_new_")} == {
                f"{kind.name}_new_key", *(f"{kind.name}_new_{f}" for f in kind.fields)
            }
            assert {
                n for n in b.files
                if n.startswith(f"{kind.name}_") and "_new_" not in n
            } == {f"{kind.name}_run_key", *(f"{kind.name}_{c}" for c in kind.columns)}


def test_a_save_finalizes_only_the_open_runs(tmp_path, monkeypatch):
    """A save closes the runs still open in each log and touches no
    other tracker: a second save with no updates between finalizes
    nothing, and one after a few updates only what they opened."""
    store = feed_fixture_store()
    store.save(tmp_path / "a", seq=1)
    finalized = []
    real = OnlinePLA.finalize

    def counting(self):
        finalized.append(self.key)
        return real(self)

    monkeypatch.setattr(OnlinePLA, "finalize", counting)
    store.save(tmp_path / "b", seq=2)
    assert finalized == []
    state = store._state("clicks")
    t = store.clock("clicks")
    store.update_batch(
        "clicks",
        np.array([t + 1, t + 2], dtype=np.int64),
        np.array([3, 3], dtype=np.int64),
        np.ones(2, dtype=np.int64),
    )
    store.save(tmp_path / "c", seq=3)
    assert len(finalized) == state.point_sketch.depth  # item 3's counters


def test_every_save_opens_to_the_live_store_across_compaction(tmp_path):
    store = feed_fixture_store()
    rng = np.random.default_rng(7)
    previous = None
    for k in range(2 * MAX_GENERATIONS + 4):  # merges at saves 9 and 17
        grow(store, rng)
        directory = store.save(tmp_path / f"s{k}", seq=100 * (k + 1))
        generations = read_manifest(directory)["generations"]
        assert len(generations) <= MAX_GENERATIONS
        # Sequence ranges tile (0, seq] with no gap or overlap.
        edges = [g["seq"] for g in generations]
        assert edges[0][0] == 0 and edges[-1][1] == 100 * (k + 1)
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        assert fingerprint(SketchStore.open(directory)) == fingerprint(store)
        if previous is not None and len(generations) > 1:
            # Older generations are hard links, not copies (unless the
            # save merged every generation into one).
            shared = {g["file"] for g in generations} & set(previous)
            assert shared
            for name in shared:
                assert (directory / name).stat().st_ino == (
                    previous[name]
                )
        previous = {
            g["file"]: (directory / g["file"]).stat().st_ino
            for g in generations
        }


def test_merge_schedule_bounds_generations_and_rewrites():
    """Simulate the schedule over 2000 saves: never more than
    ``MAX_GENERATIONS`` generations, and no save's entries in more than
    ``rewrite_bound`` merges (the one at its own save included)."""
    generations: list[list[int]] = []  # the saves each generation holds
    rewrites = [0]
    for saves in range(1, 2001):
        generations.append([saves])
        rewrites.append(0)
        start = merge_start(saves)
        if start is not None:
            merged = [s for gen in generations[start:] for s in gen]
            for s in merged:
                rewrites[s] += 1
            generations[start:] = [merged]
        assert len(generations) <= MAX_GENERATIONS
        assert max(rewrites) <= rewrite_bound(saves)
    assert [merge_start(n) for n in range(1, 10)] == [None] * 8 + [0]
    assert rewrite_bound(MAX_GENERATIONS) == 0
    assert rewrite_bound(MAX_GENERATIONS + 1) == 1


def test_save_without_seq_is_full_and_no_base(tmp_path):
    store = feed_fixture_store()
    store.save(tmp_path / "a", seq=10)
    grow(store, np.random.default_rng(3))
    directory = store.save(tmp_path / "export")
    (only,) = read_manifest(directory)["generations"]
    assert only["seq"] == [0, 1]
    assert store.last_save is None
    assert fingerprint(SketchStore.open(directory)) == fingerprint(store)
    grow(store, np.random.default_rng(4))
    directory = store.save(tmp_path / "b", seq=20)
    (only,) = read_manifest(directory)["generations"]
    assert only["seq"] == [0, 20]
    assert fingerprint(SketchStore.open(directory)) == fingerprint(store)


def test_compaction_rewrites_a_damaged_base_in_full(tmp_path):
    store = feed_fixture_store()
    rng = np.random.default_rng(5)
    for k in range(MAX_GENERATIONS):
        grow(store, rng)
        directory = store.save(tmp_path / f"s{k}", seq=10 * (k + 1))
    # Same-size bit-rot in a base generation: linking does not see it.
    first = directory / read_manifest(directory)["generations"][0]["file"]
    data = bytearray(first.read_bytes())
    data[len(data) // 2] ^= 0xFF
    first.write_bytes(bytes(data))
    grow(store, rng)
    # The ninth save merges everything, reads the damage back, and
    # writes one full generation from the live store instead.
    directory = store.save(tmp_path / "s8", seq=90)
    (only,) = read_manifest(directory)["generations"]
    assert only["seq"] == [0, 90]
    assert store.last_save.saves == 1
    assert fingerprint(SketchStore.open(directory)) == fingerprint(store)


def test_no_intact_base_writes_one_full_generation(tmp_path):
    store = feed_fixture_store()
    store.save(tmp_path / "a", seq=10)
    grow(store, np.random.default_rng(1))
    shutil.rmtree(tmp_path / "a")  # the base is gone
    directory = store.save(tmp_path / "b", seq=20)
    (only,) = read_manifest(directory)["generations"]
    assert only["seq"] == [0, 20]
    assert fingerprint(SketchStore.open(directory)) == fingerprint(store)


def test_failed_save_leaves_watermarks_so_the_retry_rewrites_it(
    tmp_path, monkeypatch
):
    store = feed_fixture_store()
    store.save(tmp_path / "a", seq=10)
    grow(store, np.random.default_rng(2))
    original = store_module.replace_directory
    calls = []

    def failing(staging, final):
        calls.append(final)
        if len(calls) == 1:
            raise OSError("simulated failure before the swap")
        return original(staging, final)

    monkeypatch.setattr(store_module, "replace_directory", failing)
    with pytest.raises(OSError):
        store.save(tmp_path / "b", seq=20)
    directory = store.save(tmp_path / "b", seq=20)
    names = [g["file"] for g in read_manifest(directory)["generations"]]
    assert names == [
        "gen-000000000000-000000000010.npz",
        "gen-000000000010-000000000020.npz",
    ]
    assert fingerprint(SketchStore.open(directory)) == fingerprint(store)


def test_damaged_generation_refuses_to_open(tmp_path):
    store = feed_fixture_store()
    directory = store.save(tmp_path / "a", seq=10)
    (gen,) = directory.glob("gen-*.npz")
    data = bytearray(gen.read_bytes())
    data[len(data) // 2] ^= 0xFF
    gen.write_bytes(bytes(data))
    with pytest.raises(SerializationError, match="CRC32"):
        SketchStore.open(directory)


# --------------------------------------------------------------------- #
# Checkpoint bytes follow the records since the previous checkpoint
# --------------------------------------------------------------------- #


def zipf_records(n, seed=3):
    rng = np.random.default_rng(seed)
    items = np.minimum(rng.zipf(1.3, size=n), 4096) - 1
    return [
        {"stream": "urls" if i % 2 else "clients", "item": int(item), "time": i // 2 + 1}
        for i, item in enumerate(items)
    ]


def test_checkpoint_bytes_do_not_grow_with_the_stream(tmp_path):
    every, short, long = 200, 12, 48  # both runs compact: 8 generations max
    store = SketchStore(width=64, depth=3, join_width=64, seed=9)
    store.create(
        StreamSpec("urls", delta=8, universe=4096, heavy_hitters=True, joinable=True)
    )
    store.create(StreamSpec("clients", delta=8, joinable=True))
    runtime = IngestRuntime.create(tmp_path / "rt", store, checkpoint_every=every)
    records = zipf_records(long * every)
    saves = []
    for lo in range(0, len(records), every):
        runtime.ingest_batch(records[lo : lo + every])
        newest = tmp_path / "rt" / "checkpoints" / f"ckpt-{lo + every:012d}"
        saved = runtime.store.last_save
        # The checkpoint's own files are its manifest and its new
        # generation, or the generation that generation was merged into;
        # the rest are hard links.
        own = sum(p.stat().st_size for p in own_files(newest))
        if saved.merged_bytes:
            manifest = (newest / "manifest.json").stat().st_size
            assert own == manifest + saved.merged_bytes < saved.bytes_written
        else:
            assert own == saved.bytes_written
        saves.append(saved)
    runtime.close()
    assert sum(s.merged_bytes > 0 for s in saves[:short]) >= 1
    # What a save appends (new generation + manifest) follows the
    # records since the previous save, not the stream: compare the
    # largest append of each run (the first, full save aside).
    appended = [s.bytes_written - s.merged_bytes for s in saves]
    ratio = max(appended[1:long]) / max(appended[1:short])
    assert ratio <= 1.2, appended
    # Compaction included, no save's bytes are written more than
    # 1 + rewrite_bound times over the run.
    for count in (short, long):
        assert saves[count - 1].saves == count
        total = sum(s.bytes_written for s in saves[:count])
        assert total <= (1 + rewrite_bound(count)) * sum(appended[:count])


# --------------------------------------------------------------------- #
# A damaged generation every retained checkpoint shares
# --------------------------------------------------------------------- #

EVERY = 50
N_RECORDS = 130  # checkpoints 50 and 100 retained, WAL holds 51..130


def make_store():
    store = SketchStore(width=32, depth=3, join_width=32, seed=4)
    store.create(
        StreamSpec("urls", delta=4, universe=64, heavy_hitters=True, joinable=True)
    )
    return store


def make_records(n=N_RECORDS):
    rng = random.Random(8)
    return [{"stream": "urls", "item": rng.randrange(64)} for _ in range(n)]


@pytest.mark.parametrize("held", [0, 20], ids=["wal-pruned", "wal-holds-20"])
def test_shared_generation_damage_is_ledgered_and_degrades(tmp_path, held):
    directory = tmp_path / "rt"
    runtime = IngestRuntime.create(directory, make_store(), checkpoint_every=EVERY)
    records = make_records()
    runtime.ingest_batch(records[:EVERY])
    first_segment = sorted((directory / "wal").glob("segment-*.wal"))[0]
    kept = first_segment.read_text().splitlines(keepends=True)[:held]
    runtime.ingest_batch(records[EVERY:])
    runtime.close()
    if held:  # put back a sealed segment holding records 1..held
        first_segment.write_text("".join(kept))
    older, newest = sorted((directory / "checkpoints").glob("ckpt-*"))
    shared = older / "gen-000000000000-000000000050.npz"
    assert (newest / shared.name).stat().st_ino == shared.stat().st_ino
    data = bytearray(shared.read_bytes())
    data[len(data) // 2] ^= 0xFF
    shared.write_bytes(bytes(data))

    report = run_fsck(directory)
    assert {c.name: c.verdict for c in report.checkpoints} == {
        older.name: CKPT_PARTIAL,
        newest.name: CKPT_PARTIAL,
    }
    assert report.best_covered_seq == 100
    assert report.lost_generations == {shared.name: (0, 50)}
    # Every record of the lost range counts, also those the WAL holds:
    # replay starts past the checkpoint, so nothing puts them back.
    assert report.lost_records == EVERY
    assert report.data_loss and not report.clean

    recovered = IngestRuntime.recover(directory, checkpoint_every=EVERY)
    assert recovered.applied_seq == N_RECORDS
    assert recovered.health()["state"] == "degraded-readonly"
    assert recovered.health()["cause"] == "wal-quarantined"
    with pytest.raises(DegradedError):
        recovered.ingest({"stream": "urls", "item": 1})
    # The tails are intact: counters and clocks match an undamaged twin.
    twin = IngestRuntime.create(tmp_path / "twin", make_store(), checkpoint_every=EVERY)
    twin.ingest_batch(records)
    got, want = recovered.store._state("urls"), twin.store._state("urls")
    assert [level._counters for level in got.hh_sketch._sketches] == [
        level._counters for level in want.hh_sketch._sketches
    ]
    assert recovered.store.clock("urls") == twin.store.clock("urls")
    # The history of the lost range is gone, the WAL-held part included.
    for t in {EVERY, max(held, 1)}:
        assert any(
            recovered.store.point("urls", item, 0, t)
            != twin.store.point("urls", item, 0, t)
            for item in range(64)
        ), t
    recovered.acknowledge_data_loss()
    assert recovered.ingest({"stream": "urls", "item": 1}) is True


def test_bootstrap_checkpoint_writes_only_a_manifest(tmp_path):
    runtime = IngestRuntime.create(tmp_path / "rt", make_store(), checkpoint_every=EVERY)
    (bootstrap,) = (tmp_path / "rt" / "checkpoints").glob("ckpt-*")
    assert [p.name for p in bootstrap.iterdir()] == ["manifest.json"]
    runtime.close()


# --------------------------------------------------------------------- #
# Frozen views built straight from checkpoint columns
# --------------------------------------------------------------------- #


def all_sketches_store():
    """The fixture store plus a stream whose point sketch is PWC: every
    sketch a stream can hold (point, heavy hitters with their mass
    tracker, sampled-AMS join) and both tracker kinds."""
    store = feed_fixture_store()
    store.create(StreamSpec("steps", delta=2.0))
    store._state("steps").point_sketch = PWCCountMin(
        width=store.width, depth=store.depth, delta=2.0, seed=store.seed
    )
    return store


def column_view(directory, without=()):
    directory = Path(directory)
    return freeze_columns(read_columns(directory, read_manifest(directory), without))


def disk_view(directory, without=()):
    return freeze_store(SketchStore.open(directory, without=without))


def frozen_tables(view):
    """Every table of a frozen store view, keyed by where it sits."""
    tables = {}
    for name in view.streams():
        hh = view._hh.get(name)
        if view._point[name] is not hh:  # else level 0 answers points
            tables[name, "point"] = view._point[name]._table
        if hh is not None:
            tables[name, "mass"] = hh._mass
            for level, sketch in enumerate(hh._sketches):
                tables[name, "level", level] = sketch._table
        join = view._join.get(name)
        if join is not None:
            for b, by_copy in enumerate(join._tables):
                for copy, table in enumerate(by_copy):
                    tables[name, "join", b, copy] = table
    return tables


def assert_tables_equal(got, want):
    got_tables, want_tables = frozen_tables(got), frozen_tables(want)
    assert got_tables.keys() == want_tables.keys()
    for where, table in want_tables.items():
        other = got_tables[where]
        assert type(other) is type(table), where
        for attr in type(table).__slots__:
            a, b = getattr(other, attr), getattr(table, attr)
            if isinstance(b, np.ndarray):
                assert isinstance(a, np.ndarray), (where, attr)
                assert a.dtype == b.dtype, (where, attr)
                assert np.array_equal(a, b), (where, attr)
            else:
                assert a == b, (where, attr)


def assert_same_answers(got, want, seams, rng):
    """Answer for answer, over windows that end at, straddle and span
    the generation seams (the stream clocks at each save)."""
    assert got.streams() == want.streams()
    items = list(range(0, 64, 3))
    for name in want.streams():
        now = want.clock(name)
        assert got.clock(name) == now
        cuts = [0] + [seam for seam in seams[name] if seam <= now] + [now]
        windows = [(0, now)]
        windows += [(max(0, cut - 7), min(now, cut + 7)) for cut in cuts]
        windows += list(zip(cuts, cuts[2:]))
        for _ in range(6):
            s = int(rng.integers(0, now))
            windows.append((s, int(rng.integers(s, now + 1))))
        for s, t in windows:
            for item in items:
                assert got.point(name, item, s, t) == want.point(name, item, s, t)
            pairs = [(s, t)] * len(items)
            assert got.point_many(name, items, pairs).tolist() == (
                want.point_many(name, items, pairs).tolist()
            )
            if name in want._hh:
                assert got.heavy_hitters(name, 0.05, s, t) == (
                    want.heavy_hitters(name, 0.05, s, t)
                )
                assert got.window_mass(name, s, t) == want.window_mass(name, s, t)
            if name in want._join:
                assert got.self_join_size(name, s, t) == (
                    want.self_join_size(name, s, t)
                )


def save_chain(tmp_path, store, saves, rng, live_views=None):
    """Grow and save ``store`` ``saves`` times; the saved directories
    and each stream's clock at every save (its generation seams).  A
    ``live_views`` list receives ``freeze_store`` of the live store
    right after each save."""
    seams: dict[str, list[int]] = {name: [] for name in store.streams()}
    directories = []
    for k in range(saves):
        grow(store, rng)
        directories.append(store.save(tmp_path / f"s{k}", seq=100 * (k + 1)))
        if live_views is not None:
            live_views.append(freeze_store(store))
        for name in store.streams():
            seams[name].append(store.clock(name))
    return directories, seams


def test_column_view_equals_open_and_freeze_across_compaction(tmp_path):
    rng = np.random.default_rng(11)
    live_views = []
    directories, seams = save_chain(
        tmp_path, all_sketches_store(), 2 * MAX_GENERATIONS + 2, rng, live_views
    )
    for k, directory in enumerate(directories):
        got, want = column_view(directory), disk_view(directory)
        assert_tables_equal(got, want)
        # A live freeze at the save equals the column view of its
        # checkpoint, dtypes included.
        assert_tables_equal(live_views[k], got)
        # The first save, the first merge of every generation, the last.
        if k in (0, MAX_GENERATIONS, len(directories) - 1):
            assert_same_answers(got, want, seams, rng)
    assert len(read_manifest(directories[-1])["generations"]) > 1


def test_a_load_restores_each_logs_components_in_file_order(tmp_path):
    """An open registers each log's components in the order the
    generations list them, so a full save right after it writes every
    skeleton again: the generations' skeletons, grouped by log."""
    store = all_sketches_store()
    directories, _seams = save_chain(tmp_path, store, 3, np.random.default_rng(13))
    directory = directories[-1]
    parts = read_columns(directory, read_manifest(directory)).generations
    assert len(parts) == 3
    opened = SketchStore.open(directory)
    assert fingerprint(opened) == fingerprint(store)
    full = opened.save(tmp_path / "full")  # no base: one full generation
    [written] = read_manifest(full)["generations"]
    with np.load(full / written["file"]) as again:
        for kind in KINDS:
            keys = np.concatenate([gen[f"{kind.name}_new_key"] for gen in parts])
            assert len(keys)
            by_log = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))  # stable
            for name in ("key", *kind.fields):
                column = np.concatenate([gen[f"{kind.name}_new_{name}"] for gen in parts])
                assert np.array_equal(again[f"{kind.name}_new_{name}"], column[by_log])


@pytest.mark.parametrize("lost", [0, 1], ids=["first", "middle"])
def test_column_view_of_a_partial_checkpoint_equals_open_without(tmp_path, lost):
    """Left out, the first generation takes most skeletons with it: their
    components' later entries start from default parameters."""
    rng = np.random.default_rng(12)
    directories, seams = save_chain(tmp_path, all_sketches_store(), 3, rng)
    directory = directories[-1]
    without = {read_manifest(directory)["generations"][lost]["file"]}
    got, want = column_view(directory, without), disk_view(directory, without)
    assert_tables_equal(got, want)
    assert_same_answers(got, want, seams, rng)


def test_empty_checkpoint_column_view(tmp_path):
    store = all_sketches_store()
    empty = SketchStore(width=16, depth=3, join_width=32, seed=5)
    for name in store.streams():
        empty.create(store._state(name).spec)
    directory = empty.save(tmp_path / "empty", seq=0)
    assert read_manifest(directory)["generations"] == []
    assert_tables_equal(column_view(directory), disk_view(directory))


def test_v1_checkpoint_views_open_and_freeze(tmp_path, monkeypatch):
    """A version 1 checkpoint has no columns: recovery and cutover keep
    the open-and-freeze route through the store's read-only v1 branch."""
    import repro.engine.frozen as frozen_module
    from repro.server.serving import _checkpoint_view

    want = disk_view(FIXTURE_V1)

    def no_columns(columns):
        raise AssertionError("a v1 checkpoint has no columns to build from")

    monkeypatch.setattr(frozen_module, "freeze_columns", no_columns)
    monkeypatch.setattr("repro.server.serving.freeze_columns", no_columns)
    assert_tables_equal(_checkpoint_view(FIXTURE_V1), want)

    directory = tmp_path / "rt"
    shutil.copytree(FIXTURE_V1, directory / "checkpoints" / "ckpt-000000000000")
    recovered = IngestRuntime.recover(directory)
    assert recovered.fsck_report.best_covered_seq == 0
    got = recovered.take_checkpoint_view(0)
    assert_tables_equal(got, want)
    seams = {name: [] for name in want.streams()}
    assert_same_answers(got, want, seams, np.random.default_rng(13))


def test_recovered_view_equals_a_disk_freeze_table_for_table(tmp_path):
    directory = tmp_path / "rt"
    runtime = IngestRuntime.create(directory, make_store(), checkpoint_every=EVERY)
    runtime.ingest_batch(make_records())
    runtime.close()
    newest = sorted((directory / "checkpoints").glob("ckpt-*"))[-1]
    recovered = IngestRuntime.recover(directory, checkpoint_every=EVERY)
    assert_tables_equal(recovered.take_checkpoint_view(2 * EVERY), disk_view(newest))

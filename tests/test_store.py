"""Tests for the multi-stream sketch store facade."""

import pytest

from repro.store import SketchStore, StreamSpec
from repro.streams.generators import zipf_stream
from repro.streams.truth import GroundTruth


@pytest.fixture()
def store():
    return SketchStore(width=512, depth=4, join_width=1024, seed=5)


def filled_store():
    store = SketchStore(width=512, depth=4, join_width=1024, seed=5)
    store.create(
        StreamSpec(name="urls", delta=8, universe=256, heavy_hitters=True,
                   joinable=True)
    )
    store.create(StreamSpec(name="clicks", delta=8, joinable=True))
    url_stream = zipf_stream(3000, universe=200, exponent=2.0, seed=88)
    click_stream = zipf_stream(3000, universe=200, exponent=2.0, seed=88)
    for t, item in enumerate(url_stream.items, start=1):
        store.update("urls", int(item), time=t)
    for t, item in enumerate(click_stream.items, start=1):
        store.update("clicks", int(item), time=t)
    return store, GroundTruth(url_stream), GroundTruth(click_stream)


class TestSpecs:
    def test_invalid_names(self):
        with pytest.raises(ValueError):
            StreamSpec(name="", delta=5)
        with pytest.raises(ValueError):
            StreamSpec(name="a/b", delta=5)

    def test_hh_requires_universe(self):
        with pytest.raises(ValueError):
            StreamSpec(name="x", delta=5, heavy_hitters=True)

    def test_duplicate_stream(self, store):
        store.create(StreamSpec(name="s", delta=4))
        with pytest.raises(ValueError):
            store.create(StreamSpec(name="s", delta=4))

    def test_unknown_stream(self, store):
        with pytest.raises(KeyError):
            store.point("nope", 1)


class TestQueries:
    def test_point_and_window(self):
        store, truth, _ = filled_store()
        item, freq = truth.top_k(1)[0]
        assert store.point("urls", item) == pytest.approx(freq, abs=20)
        windowed = truth.frequency(item, 1000, 2000)
        assert store.point("urls", item, 1000, 2000) == pytest.approx(
            windowed, abs=20
        )

    def test_heavy_hitters_and_topk(self):
        store, truth, _ = filled_store()
        actual = truth.heavy_hitters(0.05, 500, 2500)
        found = store.heavy_hitters("urls", 0.05, 500, 2500)
        assert set(actual) <= set(found)
        top = store.top_k("urls", 3, 0, 3000)
        assert [item for item, _ in top[:1]] == [truth.top_k(1)[0][0]]

    def test_hh_disabled_raises(self):
        store, _, _ = filled_store()
        with pytest.raises(ValueError):
            store.heavy_hitters("clicks", 0.1)
        with pytest.raises(ValueError):
            store.top_k("clicks", 3)

    def test_join_between_streams(self):
        store, url_truth, click_truth = filled_store()
        actual = url_truth.join_size(click_truth, 600, 2400)
        estimate = store.join_size("urls", "clicks", 600, 2400)
        assert estimate == pytest.approx(actual, rel=0.3)

    def test_self_join(self):
        store, truth, _ = filled_store()
        actual = truth.self_join_size(0, 3000)
        assert store.self_join_size("urls") == pytest.approx(actual, rel=0.3)

    def test_join_requires_joinable(self, store):
        store.create(StreamSpec(name="plain", delta=4))
        store.create(StreamSpec(name="other", delta=4, joinable=True))
        with pytest.raises(ValueError):
            store.join_size("plain", "other")
        with pytest.raises(ValueError):
            store.self_join_size("plain")

    def test_space_accounting(self):
        store, _, _ = filled_store()
        assert store.persistence_words() > 0
        assert store.streams() == ["clicks", "urls"]


class TestDurability:
    def test_save_open_roundtrip(self, tmp_path):
        store, truth, click_truth = filled_store()
        directory = store.save(tmp_path / "store")
        reopened = SketchStore.open(directory)
        assert reopened.streams() == store.streams()
        item, _ = truth.top_k(1)[0]
        assert reopened.point("urls", item, 500, 2500) == store.point(
            "urls", item, 500, 2500
        )
        assert reopened.join_size("urls", "clicks", 0, 3000) == (
            store.join_size("urls", "clicks", 0, 3000)
        )
        assert reopened.heavy_hitters("urls", 0.05).keys() == (
            store.heavy_hitters("urls", 0.05).keys()
        )

    def test_open_rejects_non_store(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "x"}')
        with pytest.raises(ValueError):
            SketchStore.open(tmp_path)

    def test_quantiles_roundtrip(self, tmp_path):
        store = SketchStore(width=256, depth=3, join_width=256, seed=2)
        store.create(
            StreamSpec(name="readings", delta=4, universe=512, quantiles=True)
        )
        for t in range(1, 1001):
            store.update("readings", (t * 7) % 400, time=t)
        median = store.quantile("readings", 0.5)
        assert 150 <= median <= 250  # values spread over [0, 400)
        assert store.rank("readings", 399) == pytest.approx(1000, rel=0.1)
        # HH queries stay gated on the heavy_hitters flag.
        with pytest.raises(ValueError):
            store.heavy_hitters("readings", 0.1)
        reopened = SketchStore.open(store.save(tmp_path / "q"))
        assert reopened.quantile("readings", 0.5) == median

    def test_quantiles_requires_flag(self):
        store = SketchStore(width=64, depth=2, join_width=64)
        store.create(StreamSpec(name="plain", delta=4))
        with pytest.raises(ValueError):
            store.quantile("plain", 0.5)

    def test_quantiles_requires_universe(self):
        with pytest.raises(ValueError):
            StreamSpec(name="x", delta=4, quantiles=True)

    def test_continued_ingest_after_open(self, tmp_path):
        store, _, _ = filled_store()
        reopened = SketchStore.open(store.save(tmp_path / "s"))
        reopened.update("urls", 3, time=3001)
        assert reopened.point("urls", 3, 3000, 3001) == pytest.approx(
            1, abs=17
        )


class TestAtomicSave:
    """save() stages into a temp directory and swaps it in atomically."""

    def _small_store(self):
        store = SketchStore(width=64, depth=2, join_width=64, seed=3)
        store.create(StreamSpec(name="s", delta=4))
        for t in range(1, 101):
            store.update("s", t % 9, time=t)
        return store

    def test_crash_mid_save_leaves_previous_store_intact(
        self, tmp_path, monkeypatch
    ):
        import repro.io.atomic as atomic

        store = self._small_store()
        directory = store.save(tmp_path / "store")
        before = SketchStore.open(directory).point("s", 4)

        def exploding_swap(tmp_dir, final_dir):
            raise OSError("simulated crash during directory swap")

        monkeypatch.setattr(
            "repro.store.store.replace_directory", exploding_swap
        )
        store.update("s", 4, time=101)
        with pytest.raises(OSError):
            store.save(directory)
        monkeypatch.undo()
        reopened = SketchStore.open(directory)
        assert reopened.point("s", 4) == before

    def test_overwrite_save_replaces_cleanly(self, tmp_path):
        store = self._small_store()
        directory = store.save(tmp_path / "store")
        store.update("s", 4, time=101)
        store.save(directory)
        reopened = SketchStore.open(directory)
        assert reopened.point("s", 4) == store.point("s", 4)
        # No staging/backup residue next to the store.
        leftovers = [
            p.name
            for p in tmp_path.iterdir()
            if p.name not in ("store",)
        ]
        assert leftovers == []

    def test_open_wraps_corrupt_manifest(self, tmp_path):
        from repro.io import SerializationError

        store = self._small_store()
        directory = store.save(tmp_path / "store")
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(SerializationError) as excinfo:
            SketchStore.open(directory)
        assert "manifest" in str(excinfo.value)

    def test_open_wraps_unreadable_manifest(self, tmp_path):
        from repro.io import SerializationError

        with pytest.raises(SerializationError):
            SketchStore.open(tmp_path / "never-existed")


_SELF_JOIN_SCRIPT = """
from repro.store import SketchStore, StreamSpec
from repro.streams.generators import zipf_stream

store = SketchStore(width=256, depth=4, join_width=512, seed=5)
store.create(StreamSpec(name="urls", delta=8, joinable=True))
stream = zipf_stream(2000, universe=200, exponent=1.5, seed=7)
for t, item in enumerate(stream.items, start=1):
    store.update("urls", int(item), time=t)
print(repr(store.self_join_size("urls")))
"""


def test_sampling_seed_is_independent_of_hash_seed():
    """The joinable stream's AMS sampling stream must not depend on the
    per-process ``str`` hash salt: the same build answers identically
    under different ``PYTHONHASHSEED`` values."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    answers = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        out = subprocess.run(
            [sys.executable, "-c", _SELF_JOIN_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        answers.append(out.stdout.strip())
    assert answers[0] == answers[1]


class TestOneCountMinPerHierarchyStream:
    """A stream with the dyadic hierarchy holds no point sketch: level 0
    answers its point queries on the live store and the frozen view."""

    @pytest.mark.parametrize(
        "flags", [{"heavy_hitters": True}, {"quantiles": True}],
        ids=["heavy_hitters", "quantiles"],
    )
    def test_create_builds_no_point_sketch(self, store, flags):
        store.create(StreamSpec(name="h", delta=4, universe=64, **flags))
        store.create(StreamSpec(name="p", delta=4))
        assert store._state("h").point_sketch is None
        assert store._state("p").point_sketch is not None

    def test_every_route_answers_from_level_zero(self):
        from repro.engine.frozen import freeze_store

        store, _, _ = filled_store()
        level0 = store._state("urls").hh_sketch._sketches[0]
        view = freeze_store(store)
        t = store.clock("urls")
        items = list(range(0, 256, 5))
        for s in (0, t // 3):
            want = [level0.point(item, s, t) for item in items]
            assert [store.point("urls", item, s, t) for item in items] == want
            assert [view.point("urls", item, s, t) for item in items] == want
            assert view.point_many("urls", items, [(s, t)] * len(items)).tolist() == want
        assert view.clock("urls") == t == level0.now

    @pytest.mark.parametrize("width", [64, 16], ids=["exact", "hashed"])
    def test_an_item_outside_the_universe_is_refused_on_every_route(self, width):
        from repro.engine.frozen import freeze_store

        store = SketchStore(width=width, depth=3, join_width=8, seed=1)
        store.create(StreamSpec("u", delta=2, universe=64, heavy_hitters=True))
        store.update("u", 3, time=1)
        view = freeze_store(store)
        for query in (
            lambda: store.point("u", 64),
            lambda: view.point("u", 64),
            lambda: view.point_many("u", [3, 64], [(0, 1)] * 2),
        ):
            with pytest.raises(ValueError, match="outside universe"):
                query()
        assert store.point("u", 3) == view.point("u", 3) == 1.0  # sketchlint: disable=SL002 — frozen == live is bit-equality, and one unit count in a one-record window reads back exactly

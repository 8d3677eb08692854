"""Tests for sketch serialization."""

import pytest

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.core.pwc_ams import PWCAMS
from repro.io import from_dict, load, save, to_dict
from repro.io.serialize import SerializationError
from repro.streams.generators import zipf_stream
from repro.streams.model import Stream
from repro.streams.truth import GroundTruth


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(4000, universe=2**16, exponent=1.8, seed=55)


@pytest.fixture(scope="module")
def truth(stream):
    return GroundTruth(stream)


def ingest(sketch, stream):
    sketch.ingest(stream)
    return sketch


class TestRoundTrips:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PersistentCountMin(width=256, depth=4, delta=10, seed=2),
            lambda: PWCCountMin(width=256, depth=4, delta=10, seed=2),
            lambda: PWCAMS(width=256, depth=4, delta=10, seed=2),
        ],
        ids=["PLA", "PWC_CM", "PWC_AMS"],
    )
    def test_point_answers_survive(self, factory, stream, truth, tmp_path):
        original = ingest(factory(), stream)
        path = save(original, tmp_path / "sketch.json")
        restored = load(path)
        for item, _ in truth.top_k(20):
            for s, t in [(0, 4000), (1000, 3000)]:
                assert restored.point(item, s, t) == pytest.approx(
                    original.point(item, s, t), abs=1e-9
                )
        assert restored.persistence_words() >= 0
        assert restored.now == original.now

    def test_ams_self_join_survives(self, stream, tmp_path):
        original = ingest(
            PersistentAMS(width=256, depth=4, delta=10, seed=2), stream
        )
        expected = original.self_join_size(500, 3500)
        restored = load(save(original, tmp_path / "ams.json.gz"))
        assert restored.self_join_size(500, 3500) == pytest.approx(expected)

    def test_heavy_hitters_survive(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(66)
        items = rng.integers(0, 128, size=3000)
        items[::4] = 5
        hh_stream = Stream(items=items, universe=128)
        original = PersistentHeavyHitters(
            universe=128, width=128, depth=3, delta=8
        )
        original.ingest(hh_stream)
        expected = original.heavy_hitters(0.1)
        restored = load(save(original, tmp_path / "hh.json"))
        assert restored.heavy_hitters(0.1).keys() == expected.keys()
        assert restored.window_mass(0, 3000) == pytest.approx(
            original.window_mass(0, 3000)
        )

    def test_gzip_smaller_than_plain(self, stream, tmp_path):
        sketch = ingest(
            PersistentAMS(width=256, depth=4, delta=5, seed=2), stream
        )
        plain = save(sketch, tmp_path / "a.json")
        packed = save(sketch, tmp_path / "a.json.gz")
        assert packed.stat().st_size < plain.stat().st_size

    def test_level_9_archive_still_loads(self, stream, tmp_path):
        """Archives are written at gzip level 1; older level-9 ones load."""
        import gzip
        import json

        sketch = ingest(
            PersistentCountMin(width=256, depth=4, delta=10, seed=2), stream
        )
        packed = save(sketch, tmp_path / "fast.json.gz")
        # Byte 8 of a gzip header (XFL) is 4 for the fastest level.
        assert packed.read_bytes()[8] == 4
        old = tmp_path / "level9.json.gz"
        old.write_bytes(
            gzip.compress(json.dumps(to_dict(sketch)).encode(), compresslevel=9)
        )
        assert old.read_bytes()[8] == 2
        restored = load(old)
        assert to_dict(restored) == to_dict(load(packed))
        for item in (0, 1, 2, 17):
            assert restored.point(item, 0, 4000) == sketch.point(item, 0, 4000)

    def test_missing_archive_raises_serialization_error(self, tmp_path):
        with pytest.raises(SerializationError, match="gone.json.gz"):
            load(tmp_path / "gone.json.gz")


class TestContinuedIngest:
    def test_updates_after_load(self, tmp_path):
        original = PersistentCountMin(width=128, depth=3, delta=4, seed=1)
        for t in range(1, 101):
            original.update(7, time=t)
        restored = load(save(original, tmp_path / "cm.json"))
        for t in range(101, 201):
            restored.update(7, time=t)
        assert restored.point(7, 0, 200) == pytest.approx(200, abs=10)
        # History before the save is still intact.
        assert restored.point(7, 0, 100) == pytest.approx(100, abs=10)

    def test_ams_rng_continuity(self, tmp_path):
        """The restored sketch continues the exact random sequence: two
        copies diverge from a fresh sketch but not from each other."""
        base = PersistentAMS(width=64, depth=3, delta=3, seed=4)
        for t in range(1, 201):
            base.update(t % 17, time=t)
        doc = to_dict(base)
        a, b = from_dict(doc), from_dict(doc)
        for t in range(201, 401):
            a.update(t % 17, time=t)
            b.update(t % 17, time=t)
        assert a.persistence_words() == b.persistence_words()
        assert a.self_join_size(0, 400) == b.self_join_size(0, 400)


class TestErrors:
    def test_unknown_type(self):
        with pytest.raises(SerializationError):
            to_dict(object())

    def test_bad_format(self):
        with pytest.raises(SerializationError):
            from_dict({"format": "nope"})

    def test_bad_version(self):
        with pytest.raises(SerializationError):
            from_dict({"format": "repro-sketch", "version": 99})

    def test_unknown_sketch_type(self):
        with pytest.raises(SerializationError):
            from_dict(
                {"format": "repro-sketch", "version": 1, "type": "Quantile"}
            )

    def test_hierarchy_level_count(self):
        """An archive without ``fanout`` was written with a root level
        past its dyadic levels, which is dropped; every other level count
        is malformed."""
        document = to_dict(
            PersistentHeavyHitters(universe=16, width=4, depth=1, delta=1, fanout=4)
        )
        levels = document["state"]["levels"]
        assert from_dict(document).levels == len(levels) == 2
        levels.append(levels[-1])
        with pytest.raises(SerializationError, match="level documents"):
            from_dict(document)
        legacy = to_dict(
            PersistentHeavyHitters(universe=16, width=4, depth=1, delta=1)
        )
        del legacy["state"]["fanout"]
        with pytest.raises(SerializationError, match="and a root"):
            from_dict(legacy)
        legacy["state"]["levels"].append(legacy["state"]["levels"][-1])
        assert from_dict(legacy).levels == 4


class TestCorruptFiles:
    """load() wraps low-level decode failures in SerializationError,
    always naming the offending path."""

    def _saved(self, tmp_path):
        sketch = PersistentCountMin(width=64, depth=3, delta=4, seed=1)
        for t in range(1, 50):
            sketch.update(t % 7, time=t)
        return save(sketch, tmp_path / "sketch.json")

    def test_truncated_gzip(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_not_gzip_at_all(self, tmp_path):
        path = tmp_path / "sketch.json.gz"
        path.write_bytes(b"this was never a gzip archive")
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_bad_json_inside_archive(self, tmp_path):
        import gzip as _gzip

        path = tmp_path / "sketch.json.gz"
        with _gzip.open(path, "wb") as handle:
            handle.write(b'{"format": "repro-sketch", truncated')
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_bad_utf8_inside_archive(self, tmp_path):
        import gzip as _gzip

        path = tmp_path / "sketch.json.gz"
        with _gzip.open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00garbage")
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_non_object_document(self, tmp_path):
        import gzip as _gzip

        path = tmp_path / "sketch.json.gz"
        with _gzip.open(path, "wb") as handle:
            handle.write(b"[1, 2, 3]")
        with pytest.raises(SerializationError):
            load(path)

    @pytest.mark.parametrize(
        "drop", ["state", "total"], ids=["no-state", "state-without-field"]
    )
    def test_incomplete_document_names_path(self, tmp_path, drop):
        import json as _json

        document = to_dict(PersistentCountMin(width=8, depth=2, delta=4))
        if drop == "state":
            del document["state"]
        else:
            del document["state"][drop]
        path = tmp_path / "sketch.json"
        path.write_text(_json.dumps(document))
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_save_is_atomic_on_crash(self, tmp_path, monkeypatch):
        """A crash mid-save must leave the previous archive intact."""
        import os as _os

        path = self._saved(tmp_path)
        good = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(_os, "replace", exploding_replace)
        sketch = PersistentCountMin(width=64, depth=3, delta=4, seed=9)
        sketch.update(1, time=1)
        with pytest.raises(OSError):
            save(sketch, tmp_path / "sketch.json")
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert load(path) is not None

"""Frozen columnar query engine: bit-equality with the live path.

``freeze(sketch)`` compiles a finalized persistent sketch into columnar
numpy state (`repro.engine.frozen`).  The speedup is only admissible if
the frozen snapshot answers *exactly* what the live sketch answers, so
every test here asserts ``==`` on floats — bitwise equality, not
approximate closeness.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.engine import freeze
from repro.engine.frozen import (
    _SCALAR_PROBES_MAX,
    FrozenAMS,
    FrozenCountMin,
    FrozenHeavyHitters,
    FrozenShardedSketch,
    _ColumnTable,
)
from repro.core.pwc_ams import PWCAMS
from repro.eval.harness import compact_items
from repro.store.sharded import ShardedPersistentSketch
from repro.streams.generators import zipf_stream
from repro.streams.model import Stream
from tests.test_batch_ingest import columnar_only


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(4000, universe=2**16, exponent=1.6, seed=17)


@pytest.fixture(scope="module")
def hh_pair(stream):
    """A live dyadic structure and its frozen snapshot; the compact
    universe makes the upper levels identity-hashed."""
    compact = compact_items(stream)
    live = PersistentHeavyHitters(
        universe=compact.universe, width=256, depth=3, delta=16.0, seed=7
    )
    live.ingest(compact)
    return live, freeze(live)


def _workload(stream, n=250, seed=5):
    """Items (including some never seen) plus random (s, t] windows."""
    rng = np.random.default_rng(seed)
    length = len(stream)
    items = rng.choice(stream.items, size=n).tolist()
    items += [10**9 + i for i in range(8)]  # untracked columns
    ends = rng.integers(0, length + 1, size=(len(items), 2))
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    hi = np.minimum(np.maximum(hi, lo + 1), length)
    lo = np.minimum(lo, hi - 1)
    windows = [(float(s), float(t)) for s, t in zip(lo, hi)]
    return items, windows


def _build(kind, stream, **kw):
    cls = {
        "pla": PersistentCountMin,
        "pwc": PWCCountMin,
        "pwc_ams": PWCAMS,
        "sample": PersistentAMS,
    }[kind]
    if kind == "sample":
        kw.setdefault("independent_copies", 2)
        kw.setdefault("sampling_seed", 11)
    sketch = cls(width=512, depth=5, delta=16.0, seed=7, **kw)
    sketch.ingest(stream)
    return sketch


KINDS = ("pla", "pwc", "pwc_ams", "sample")


class TestBitEquality:
    @pytest.mark.parametrize("kind", KINDS)
    def test_point_many_matches_live(self, stream, kind):
        sketch = _build(kind, stream)
        frozen = freeze(sketch)
        items, windows = _workload(stream)
        live = [sketch.point(i, s, t) for i, (s, t) in zip(items, windows)]
        assert frozen.point_many(items, windows).tolist() == live

    @pytest.mark.parametrize("kind", KINDS)
    def test_point_default_window(self, stream, kind):
        sketch = _build(kind, stream)
        frozen = freeze(sketch)
        for item in set(stream.items[:50].tolist()):
            assert frozen.point(item) == sketch.point(item)

    @pytest.mark.parametrize("kind", KINDS)
    def test_self_join_matches_live(self, stream, kind):
        sketch = _build(kind, stream)
        frozen = freeze(sketch)
        length = len(stream)
        for s, t in [(0, length), (length // 4, 3 * length // 4),
                     (length // 2, length // 2 + 10)]:
            assert frozen.self_join_size(s, t) == sketch.self_join_size(s, t)

    def test_point_many_accepts_arrays_and_broadcast(self, stream):
        sketch = _build("pla", stream)
        frozen = freeze(sketch)
        items, windows = _workload(stream, n=60)
        as_lists = frozen.point_many(items, windows)
        as_arrays = frozen.point_many(
            np.asarray(items, dtype=np.int64),
            np.asarray(windows, dtype=np.float64),
        )
        assert as_lists.tolist() == as_arrays.tolist()
        # A single (s, t) pair broadcasts to every item.
        broadcast = frozen.point_many(items, (100.0, 2000.0))
        for item, estimate in zip(items, broadcast.tolist()):
            assert estimate == sketch.point(item, 100.0, 2000.0)

    def test_empty_batch(self, stream):
        frozen = freeze(_build("pla", stream))
        assert len(frozen.point_many([], [])) == 0

    def test_snapshot_is_isolated_from_further_ingest(self, stream):
        sketch = _build("pla", stream)
        frozen = freeze(sketch)
        before = frozen.point(int(stream.items[0]))
        clock = sketch.now
        for tick in range(1, 200):
            sketch.update(int(stream.items[0]), time=clock + tick)
        assert frozen.point(int(stream.items[0])) == before
        assert frozen.now == clock


class TestFrozenWindows:
    """Window resolution mirrors the live semantics exactly."""

    def test_negative_start_clamped(self, stream):
        sketch = _build("pla", stream)
        frozen = freeze(sketch)
        item = int(stream.items[0])
        assert frozen.point(item, -5.0, 300.0) == sketch.point(item, 0, 300.0)
        batch = frozen.point_many([item], [(-5.0, 300.0)])
        assert batch[0] == sketch.point(item, 0, 300.0)

    def test_end_beyond_snapshot_raises(self, stream):
        frozen = freeze(_build("pla", stream))
        with pytest.raises(ValueError, match="beyond the snapshot clock"):
            frozen.point(1, 0, frozen.now + 1)
        with pytest.raises(ValueError, match="beyond the snapshot clock"):
            frozen.point_many([1], [(0.0, float(frozen.now + 1))])

    def test_inverted_window_raises(self, stream):
        frozen = freeze(_build("pla", stream))
        with pytest.raises(ValueError, match="empty window"):
            frozen.point_many([1], [(200.0, 100.0)])

    def test_window_shape_mismatch_raises(self, stream):
        frozen = freeze(_build("pla", stream))
        with pytest.raises(ValueError, match="expected 2"):
            frozen.point_many([1, 2], [(0.0, 10.0)])


class TestLiveWindowEdges:
    """Satellite: the live ``_resolve_window`` clamp and extrapolation
    guard, for every persistent sketch type."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_start_clamps_to_zero(self, stream, kind):
        sketch = _build(kind, stream)
        item = int(stream.items[0])
        assert sketch.point(item, -7, 500) == sketch.point(item, 0, 500)

    @pytest.mark.parametrize("kind", KINDS)
    def test_future_end_raises(self, stream, kind):
        sketch = _build(kind, stream)
        with pytest.raises(ValueError, match="beyond the last update"):
            sketch.point(int(stream.items[0]), 0, sketch.now + 1)


class TestFrozenHeavyHitters:
    def test_heavy_hitters_match_live(self, stream):
        compact = compact_items(stream)
        live = PersistentHeavyHitters(
            universe=compact.universe, width=256, depth=3, delta=16.0, seed=7
        )
        live.ingest(compact)
        frozen = freeze(live)
        assert isinstance(frozen, FrozenHeavyHitters)
        length = len(compact)
        for phi in (0.01, 0.05, 0.2):
            for s, t in [(0, length), (length // 4, 3 * length // 4)]:
                assert (
                    frozen.heavy_hitters(phi, s, t)
                    == live.heavy_hitters(phi, s, t)
                )
                assert frozen.window_mass(s, t) == live.window_mass(s, t)

    def test_point_delegates_to_leaf_sketch(self, stream):
        compact = compact_items(stream)
        live = PersistentHeavyHitters(
            universe=compact.universe, width=256, depth=3, delta=16.0, seed=7
        )
        live.ingest(compact)
        frozen = freeze(live)
        for item in range(5):
            assert frozen.point(item, 10, 2000) == live.point(item, 10, 2000)


class TestScalarRoute:
    """Probes up to ``_SCALAR_PROBES_MAX`` take the scalar route; both
    routes are bit-equal to live and raise the same errors."""

    SIZES = (1, _SCALAR_PROBES_MAX, _SCALAR_PROBES_MAX + 1)

    @staticmethod
    def _probes(stream, n, now):
        """``n`` probes, the last ``n // 8`` untracked, with per-probe
        windows including ``s = 0`` and ``t`` at the freeze tick."""
        items, windows = _workload(stream, n=n - n // 8, seed=n)
        items, windows = items[:n], windows[:n]
        windows[0] = (0.0, float(now))
        if n > 1:
            windows[1] = (3.0, float(now))
        return items, windows

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", ("pla", "pwc"))
    def test_point_many_matches_live_per_probe(self, stream, kind, n):
        sketch = _build(kind, stream)
        frozen = freeze(sketch)
        items, windows = self._probes(stream, n, frozen.now)
        got = frozen.point_many(items, windows)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        live = [sketch.point(i, s, t) for i, (s, t) in zip(items, windows)]
        assert got.tolist() == live
        broadcast = frozen.point_many(items, (7.0, float(frozen.now)))
        assert broadcast.dtype == np.float64
        assert broadcast.tolist() == [
            sketch.point(i, 7.0, frozen.now) for i in items
        ]

    @pytest.mark.parametrize("n", SIZES)
    def test_identity_hashed_levels_match_live(self, hh_pair, n):
        live, frozen = hh_pair
        identity = [
            level
            for level, sk in enumerate(live._sketches)
            if sk.depth == 1 and level > 0
        ]
        assert identity, "expected identity-hashed upper levels"
        rng = np.random.default_rng(n)
        for level in (0, identity[0], identity[-1]):
            live_level = live._sketches[level]
            frozen_level = frozen._sketches[level]
            items = rng.integers(0, live_level.width, size=n).tolist()
            windows = [(0.0, float(frozen.now))] * n
            got = frozen_level.point_many(items, windows).tolist()
            assert got == [
                live_level.point(i, 0, frozen.now) for i in items
            ]

    @pytest.mark.parametrize("n", SIZES)
    def test_window_errors_match(self, stream, n):
        frozen = freeze(_build("pla", stream))
        items = list(range(1, n + 1))
        ok = [(0.0, 10.0)] * (n - 1)
        with pytest.raises(ValueError, match="beyond the snapshot clock"):
            frozen.point_many(items, ok + [(0.0, float(frozen.now + 1))])
        with pytest.raises(ValueError, match="empty window"):
            frozen.point_many(items, ok + [(200.0, 100.0)])

    @pytest.mark.parametrize("n", SIZES)
    def test_negative_item_raises_on_both_routes(self, stream, hh_pair, n):
        items = [1] * (n - 1) + [-5]
        frozen = freeze(_build("pla", stream))
        with pytest.raises(ValueError, match="must be non-negative"):
            frozen.point_many(items)
        _live, frozen_hh = hh_pair
        with pytest.raises(ValueError, match="outside identity range"):
            frozen_hh._sketches[-1].point_many(items)

    def test_all_scalar_descent_makes_no_point_many_call(
        self, hh_pair, monkeypatch
    ):
        live, frozen = hh_pair
        calls = []
        vectorized = FrozenCountMin.point_many

        def spy(self, items, windows=None):
            calls.append(len(items))
            return vectorized(self, items, windows)

        monkeypatch.setattr(FrozenCountMin, "point_many", spy)
        # Default cap max(16, 4 / 0.2) = 20 keeps every level <= 40.
        assert frozen.heavy_hitters(0.2) == live.heavy_hitters(0.2)
        assert calls == []

    @pytest.mark.parametrize("fanout", (2, 4, 16))
    @pytest.mark.parametrize("parents", (1, 2))
    def test_level_sizes_straddle_the_cutoff(
        self, stream, monkeypatch, fanout, parents
    ):
        """A saturated frontier of ``cap`` parents yields ``b * cap``
        children: exactly the ``point_many`` scalar cutoff
        (``cap = cutoff / b``) or above it (twice that cap).  Every level
        goes through the one scorer, whatever its size."""
        live, frozen = _hh_pair(stream, fanout)
        cap = parents * _SCALAR_PROBES_MAX // fanout
        sizes = []
        estimates = FrozenCountMin.window_estimates

        def spy(sketch, items, s=0, t=None):
            sizes.append(len(items))
            return estimates(sketch, items, s, t)

        monkeypatch.setattr(FrozenCountMin, "window_estimates", spy)
        t = frozen.now
        got = frozen.heavy_hitters(1e-4, 0, t, max_candidates=cap)
        assert got == live.heavy_hitters(1e-4, 0, t, max_candidates=cap)
        assert parents * _SCALAR_PROBES_MAX in sizes

    def test_point_many_past_every_tracked_column(self):
        """A vectorized probe of a column past every tracked column of
        the table is untracked in its own row, not aliased into the next
        row's columns."""
        sketch = PersistentCountMin(width=128, depth=4, delta=4.0, seed=3)
        rng = np.random.default_rng(0)
        n = 20
        sketch.ingest_batch(
            np.arange(1, n + 1, dtype=np.int64),
            rng.integers(0, 1024, size=n).astype(np.int64),
            np.ones(n, dtype=np.int64),
        )
        frozen = freeze(sketch)
        items = list(range(1024))
        assert len(items) > _SCALAR_PROBES_MAX
        assert frozen.point_many(items, (0, n)).tolist() == [
            sketch.point(item, 0, n) for item in items
        ]


_HH_PAIRS: dict = {}


def _hh_pair(stream, fanout):
    """A live structure of fan-out ``fanout`` over the stream's whole
    universe (deep enough for a saturated frontier at every fan-out)
    and its frozen snapshot, built once per fan-out."""
    if fanout not in _HH_PAIRS:
        live = PersistentHeavyHitters(
            universe=stream.universe, width=256, depth=3, delta=16.0, seed=7,
            fanout=fanout,
        )
        live.ingest(stream)
        _HH_PAIRS[fanout] = live, freeze(live)
    return _HH_PAIRS[fanout]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    phi=st.sampled_from([1e-3, 0.005, 0.02, 0.05, 0.2, 0.5]),
    window=st.tuples(st.integers(0, 4000), st.integers(0, 4000)),
    cap=st.sampled_from([None, 24, _SCALAR_PROBES_MAX // 2, 48]),
)
def test_heavy_hitters_equal_live_over_random_windows(hh_pair, phi, window,
                                                      cap):
    """Hypothesis: frozen descents (narrow and saturated levels) return
    exactly the live heavy hitters and window mass."""
    live, frozen = hh_pair
    s, t = sorted(window)
    t = min(t, frozen.now)
    s = min(s, t)
    assert frozen.heavy_hitters(phi, s, t, max_candidates=cap) == (
        live.heavy_hitters(phi, s, t, max_candidates=cap)
    )
    assert frozen.window_mass(s, t) == live.window_mass(s, t)


class TestFrozenAMSSelfJoin:
    def _sketch(self, updates, depth=5):
        sketch = PersistentAMS(width=64, depth=depth, delta=4.0, seed=3,
                               independent_copies=2, sampling_seed=5)
        for tick, item in enumerate(updates, start=1):
            sketch.update(item, time=tick)
        return sketch

    def test_windows_match_live(self, stream):
        sketch = _build("sample", stream)
        frozen = freeze(sketch)
        now = frozen.now
        for s, t in [(0, now), (0, 0), (0, 1), (1, 1), (17, now),
                     (now // 3, now // 2), (now, now)]:
            assert frozen.self_join_size(s, t) == sketch.self_join_size(s, t)

    def test_rows_without_touched_columns(self):
        empty = self._sketch([])
        assert not any(empty._touched_columns(r) for r in range(5))
        assert freeze(empty).self_join_size() == empty.self_join_size()
        single = self._sketch([9])
        frozen = freeze(single)
        for s, t in [(0, 0), (0, 1), (1, 1)]:
            assert frozen.self_join_size(s, t) == single.self_join_size(s, t)
            assert frozen.point(9, s, t) == single.point(9, s, t)

    @pytest.mark.parametrize("depth", [1, 3, 7])
    def test_eval_calls_bounded_by_tables(self, stream, monkeypatch, depth):
        sketch = PersistentAMS(width=128, depth=depth, delta=4.0, seed=3,
                               independent_copies=2, sampling_seed=5)
        sketch.ingest(stream)
        frozen = freeze(sketch)
        assert isinstance(frozen, FrozenAMS)
        calls = []
        evaluate = _ColumnTable.eval

        def spy(self, slots, valid, ts):
            calls.append(len(slots))
            return evaluate(self, slots, valid, ts)

        monkeypatch.setattr(_ColumnTable, "eval", spy)
        for s, t in [(0, frozen.now), (100, frozen.now - 5)]:
            calls.clear()
            assert frozen.self_join_size(s, t) == sketch.self_join_size(s, t)
            assert len(calls) <= 2 * frozen.copies * 2


class TestFrozenSharded:
    def _store(self, stream):
        store = ShardedPersistentSketch(
            shard_length=1000, width=512, depth=3, delta=8.0, seed=3
        )
        for tick, item in enumerate(stream.items.tolist(), start=1):
            store.update(item, time=tick)
        return store

    def test_matches_live_across_boundaries(self, stream):
        store = self._store(stream)
        frozen = freeze(store)
        assert isinstance(frozen, FrozenShardedSketch)
        assert frozen.shard_count == store.shard_count
        items, windows = _workload(stream, n=120)
        # Windows that pinch the k*L / k*L + 1 boundaries exactly.
        items += [int(stream.items[0])] * 4
        windows += [(999.0, 1001.0), (1000.0, 1001.0),
                    (999.0, 1000.0), (2000.0, 3000.0)]
        live = [store.point(i, s, t) for i, (s, t) in zip(items, windows)]
        assert frozen.point_many(items, windows).tolist() == live

    def test_expired_window_raises_like_live(self, stream):
        store = self._store(stream)
        store.drop_before(2000)
        frozen = freeze(store)
        with pytest.raises(ValueError, match="expired shards"):
            frozen.point_many([1], [(500.0, 3000.0)])
        with pytest.raises(ValueError, match="expired shards"):
            store.point(1, 500, 3000)
        # Windows entirely within retained shards still match live.
        items, windows = _workload(stream, n=80, seed=9)
        windows = [(max(s, 2000.0), max(t, 2001.0)) for s, t in windows]
        live = [store.point(i, s, t) for i, (s, t) in zip(items, windows)]
        assert frozen.point_many(items, windows).tolist() == live


class TestFreezeDispatch:
    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="does not support"):
            freeze(object())

    def test_method_on_sketch(self, stream):
        sketch = _build("pla", stream)
        frozen = sketch.freeze()
        assert isinstance(frozen, FrozenCountMin)
        item = int(stream.items[0])
        assert frozen.point(item, 5, 500) == sketch.point(item, 5, 500)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    items=st.lists(st.integers(0, 15), min_size=1, max_size=120),
    window=st.tuples(st.integers(0, 120), st.integers(0, 120)),
    delta=st.integers(1, 8),
)
def test_frozen_equals_live_on_arbitrary_streams(items, window, delta):
    """Hypothesis: frozen answers are bitwise identical to live on every
    stream, item and window it can generate."""
    s, t = sorted(window)
    t = min(t, len(items))
    s = min(s, t)
    sketch = PersistentCountMin(width=64, depth=3, delta=delta, seed=5)
    for tick, item in enumerate(items, start=1):
        sketch.update(item, time=tick)
    frozen = freeze(sketch)
    probes = sorted(set(items)) + [99]
    live = [sketch.point(item, s, t) for item in probes]
    frz = frozen.point_many(probes, (float(s), float(t))).tolist()
    assert frz == live
    assert frozen.self_join_size(s, t) == sketch.self_join_size(s, t)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    items=st.lists(st.integers(0, 15), min_size=1, max_size=120),
    window=st.tuples(st.integers(0, 120), st.integers(0, 120)),
    delta=st.integers(1, 8),
    chunk=st.integers(1, 41),
)
def test_frozen_equals_live_after_kernel_batches(items, window, delta, chunk):
    """Frozen equals live on a sketch fed in columnar batches with
    contracts off, so its runs went through the PLA row kernel."""
    s, t = sorted(window)
    t = min(t, len(items))
    s = min(s, t)
    with contracts.enforced(False), columnar_only():
        sketch = PersistentCountMin(width=64, depth=3, delta=delta, seed=5)
        sketch.ingest(
            Stream(np.array(items, dtype=np.int64)), batch_size=chunk
        )
        frozen = freeze(sketch)
        probes = sorted(set(items)) + [99]
        live = [sketch.point(item, s, t) for item in probes]
        frz = frozen.point_many(probes, (float(s), float(t))).tolist()
        assert frz == live
        assert frozen.self_join_size(s, t) == sketch.self_join_size(s, t)


class TestFreezeReadsWithoutMutating:
    """A freeze reads the live store's logs plus each open run's pending
    segment: it finalizes nothing, so a frozen sketch's later compression
    matches an unfrozen twin's."""

    @staticmethod
    def _grown_store():
        from tests.test_store_generations import feed_fixture_store, grow

        store = feed_fixture_store()
        grow(store, np.random.default_rng(3))
        return store

    def test_freeze_store_and_sketch_freeze_leave_the_store_unchanged(self):
        from repro.engine.frozen import freeze_store
        from tests.test_batch_ingest import fingerprint

        store = self._grown_store()
        before = fingerprint(store._streams)
        freeze_store(store)
        assert fingerprint(store._streams) == before
        for name in store.streams():
            state = store._state(name)
            for sketch in (state.point_sketch, state.hh_sketch, state.join_sketch):
                if sketch is not None:
                    sketch.freeze()
        assert fingerprint(store._streams) == before

    def test_frozen_equals_live_inside_open_runs(self):
        from repro.engine.frozen import freeze_store

        store = self._grown_store()
        view = freeze_store(store)
        for name in store.streams():
            now = store.clock(name)
            for t in (now - 7, now - 2.5, now - 1, now):
                for s in (0, t - 40, t - 3):
                    for item in range(0, 64, 3):
                        assert view.point(name, item, s, t) == store.point(
                            name, item, s, t
                        )
        now = store.clock("urls")
        for s, t in ((0, now - 1), (now - 50, now - 0.5), (0, now)):
            assert view.window_mass("urls", s, t) == store.window_mass("urls", s, t)
            assert view.heavy_hitters("urls", 0.05, s, t) == store.heavy_hitters(
                "urls", 0.05, s, t
            )
            assert view.self_join_size("urls", s, t) == store.self_join_size(
                "urls", s, t
            )

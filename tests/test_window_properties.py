"""Property-based window-query guarantees.

Hypothesis generates arbitrary small streams and windows; the sketches'
answers must respect the theorems' error bounds on *every* one of them —
not just on the benchmark workloads.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.engine.frozen import freeze_store
from repro.store import SketchStore, StreamSpec
from repro.store.sharded import ShardedPersistentSketch

streams = st.lists(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=150
)
windows = st.tuples(
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=150),
)


def window_frequency(items, item, s, t):
    return sum(
        1 for tick, value in enumerate(items, start=1)
        if value == item and s < tick <= t
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=streams, window=windows, delta=st.integers(1, 10))
def test_theorem_31_bound_on_arbitrary_streams(items, window, delta):
    """With a collision-free width, the only error source is the PLA:
    |estimate - truth| <= 2*delta + step slack, for every window."""
    s, t = sorted(window)
    # Window ends beyond the last update now raise; clamp the draw onto
    # the queryable range (no ticks exist past the end, so truth agrees).
    t = min(t, len(items))
    s = min(s, t)
    sketch = PersistentCountMin(width=4096, depth=3, delta=delta, seed=5)
    for tick, item in enumerate(items, start=1):
        sketch.update(item, time=tick)
    for item in set(items):
        truth = window_frequency(items, item, s, t)
        estimate = sketch.point(item, s, t)
        assert abs(estimate - truth) <= 2 * delta + 2


def window_weight(items, counts, item, s, t):
    return sum(
        count for tick, (value, count) in enumerate(zip(items, counts), start=1)
        if value == item and s < tick <= t
    )


def heavy_hitter_store(items, counts, delta, width):
    """A store whose one stream keeps the dyadic hierarchy over the
    16-item universe; its point queries are answered by level 0."""
    store = SketchStore(width=width, depth=3, join_width=8, seed=5)
    store.create(StreamSpec("s", delta=delta, universe=16, heavy_hitters=True))
    for tick, (item, count) in enumerate(zip(items, counts), start=1):
        store.update("s", item, count, time=tick)
    return store


weighted = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 3)), min_size=1, max_size=150
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(updates=weighted, window=windows, delta=st.integers(1, 10))
def test_theorem_31_bound_through_an_exact_level_zero(updates, window, delta):
    """Universe within the width: level 0 counts every item exactly, so
    the store's point answers carry only the PLA error, on every window,
    live and frozen alike."""
    items, counts = (list(column) for column in zip(*updates))
    s, t = sorted(window)
    t = min(t, len(items))
    s = min(s, t)
    store = heavy_hitter_store(items, counts, delta, width=16)
    view = freeze_store(store)
    for item in range(16):
        truth = window_weight(items, counts, item, s, t)
        estimate = store.point("s", item, s, t)
        assert abs(estimate - truth) <= 2 * delta + 2
        assert view.point("s", item, s, t) == estimate


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(updates=weighted, window=windows, delta=st.integers(1, 10))
def test_theorem_31_lower_side_through_a_hashed_level_zero(updates, window, delta):
    """Universe wider than the sketch: collisions only add mass when
    counts are non-negative, so every answer stays at or above truth
    less the PLA error, live and frozen alike."""
    items, counts = (list(column) for column in zip(*updates))
    s, t = sorted(window)
    t = min(t, len(items))
    s = min(s, t)
    store = heavy_hitter_store(items, counts, delta, width=4)
    view = freeze_store(store)
    for item in range(16):
        truth = window_weight(items, counts, item, s, t)
        estimate = store.point("s", item, s, t)
        assert estimate >= truth - 2 * delta - 2
        assert view.point("s", item, s, t) == estimate


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=streams, window=windows, delta=st.integers(1, 10))
def test_pwc_bound_on_arbitrary_streams(items, window, delta):
    s, t = sorted(window)
    t = min(t, len(items))
    s = min(s, t)
    sketch = PWCCountMin(width=4096, depth=3, delta=delta, seed=5)
    for tick, item in enumerate(items, start=1):
        sketch.update(item, time=tick)
    for item in set(items):
        truth = window_frequency(items, item, s, t)
        assert abs(sketch.point(item, s, t) - truth) <= 2 * delta


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=streams, delta=st.integers(1, 8),
       shard_length=st.integers(5, 60))
def test_sharded_consistent_with_unsharded(items, delta, shard_length):
    """Sharding changes error constants (one per overlapped shard) but
    answers must stay within the summed per-shard budgets of truth."""
    sharded = ShardedPersistentSketch(
        shard_length=shard_length, width=4096, depth=3, delta=delta, seed=5
    )
    for tick, item in enumerate(items, start=1):
        sharded.update(item, time=tick)
    m = len(items)
    s, t = m // 4, max(m // 4, 3 * m // 4)
    shards_touched = (t - s) // shard_length + 2
    for item in set(items):
        truth = window_frequency(items, item, s, t)
        estimate = sharded.point(item, s, t)
        assert abs(estimate - truth) <= shards_touched * (2 * delta + 2)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(items=streams)
def test_window_additivity(items):
    """Estimates are additive over adjacent windows (linearity of the
    counter reconstruction): f(s,u] ~ f(s,t] + f(t,u]."""
    sketch = PersistentCountMin(width=4096, depth=3, delta=3, seed=7)
    for tick, item in enumerate(items, start=1):
        sketch.update(item, time=tick)
    m = len(items)
    s, t, u = 0, m // 2, m
    hot = Counter(items).most_common(1)[0][0]
    whole = sketch.point(hot, s, u)
    parts = sketch.point(hot, s, t) + sketch.point(hot, t, u)
    # Identical per-row reconstructions telescope exactly.
    assert abs(whole - parts) <= 1e-6

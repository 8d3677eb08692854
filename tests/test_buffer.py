"""The two-stage update buffer: equality, windows, coalescing, freeze.

The tentpole contracts of :mod:`repro.core.buffer`:

* **exact mode is bit-identical** — a buffered sketch, however its
  stream was chunked and however often queries forced early flushes,
  fingerprints equal to an unbuffered twin, for every sketch type;
* **flush boundaries are chunking-invariant** — window-full flushes
  land at exact multiples of the window in absorbed-record count, no
  matter how callers sliced the stream (the property WAL replay needs);
* **coalesce mode stays a valid stream** — merged flushes keep
  distinct, sorted times, preserve net mass exactly, and track the
  per-item absorbed mass that bounds the widened error;
* **freeze/query boundaries are exact** — freezing mid-window flushes
  first, so frozen answers equal live answers at the same horizon in
  both modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.core.base import _SCALAR_RUN_MAX
from repro.core.buffer import DEFAULT_WINDOW, UpdateBuffer
from repro.io.serialize import to_dict
from repro.pla.orourke import OnlinePLA
from tests.test_batch_ingest import (
    FACTORIES,
    build_stream,
    columnar_only,
    fingerprint,
    fixed_stream,
    update_lists,
)

# --------------------------------------------------------------------- #
# UpdateBuffer unit behaviour
# --------------------------------------------------------------------- #


def _collecting_apply(log):
    def apply(times, items, counts):
        log.append(
            (times.tolist(), items.tolist(), counts.tolist())
        )

    return apply


def _columns(n, start_time=1):
    times = np.arange(start_time, start_time + n, dtype=np.int64)
    items = np.arange(n, dtype=np.int64) % 7
    counts = np.ones(n, dtype=np.int64)
    return times, items, counts


def test_window_validation():
    with pytest.raises(ValueError):
        UpdateBuffer(window=0)
    with pytest.raises(ValueError):
        UpdateBuffer(mode="lossy")
    assert UpdateBuffer().window == DEFAULT_WINDOW


def test_window_full_flushes_at_exact_multiples():
    log = []
    buffer = UpdateBuffer(window=4)
    times, items, counts = _columns(10)
    buffer.absorb(times, items, counts, _collecting_apply(log))
    # 10 records through window 4: flushes at 4 and 8, 2 pending.
    assert [len(flush[0]) for flush in log] == [4, 4]
    assert len(buffer) == 2
    assert buffer.stats()["absorbed"] == 10
    assert buffer.stats()["fed"] == 8


def test_flush_boundaries_are_chunking_invariant():
    times, items, counts = _columns(23)
    flat = []
    whole = UpdateBuffer(window=5)
    whole.absorb(times, items, counts, _collecting_apply(flat))
    for cuts in ([3], [1, 2, 9, 17], list(range(1, 23))):
        log = []
        split = UpdateBuffer(window=5)
        apply = _collecting_apply(log)
        for lo, hi in zip([0, *cuts], [*cuts, 23]):
            split.absorb(times[lo:hi], items[lo:hi], counts[lo:hi], apply)
        assert log == flat
        assert len(split) == len(whole)


def test_scalar_and_array_absorption_interleave_in_order():
    """One-record absorptions (how a buffered ``update`` stages) and
    longer ones flush as one column in absorption order."""
    log = []
    buffer = UpdateBuffer(window=100)
    apply = _collecting_apply(log)

    def one(time, item, count):
        return tuple(np.array([v], dtype=np.int64) for v in (time, item, count))

    buffer.absorb(*one(1, 10, 2), apply)
    times = np.array([2, 3], dtype=np.int64)
    buffer.absorb(times, times * 10, times * 0 + 1, apply)
    buffer.absorb(*one(4, 40, 1), apply)
    buffer.flush(apply)
    assert log == [([1, 2, 3, 4], [10, 20, 30, 40], [2, 1, 1, 1])]
    buffer.flush(apply)  # empty flush is a no-op
    assert len(log) == 1


def test_coalesce_merges_to_net_count_at_last_touch():
    log = []
    buffer = UpdateBuffer(window=100, mode="coalesce")
    times = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    items = np.array([7, 9, 7, 9, 7], dtype=np.int64)
    counts = np.array([2, 1, -1, 3, 4], dtype=np.int64)
    buffer.absorb(times, items, counts, _collecting_apply(log))
    buffer.flush(_collecting_apply(log))
    (flushed_times, flushed_items, flushed_counts) = log[0]
    # One update per item, at its last touch, with the exact net count.
    assert flushed_items == [9, 7]
    assert flushed_times == [4, 5]
    assert flushed_counts == [4, 5]
    # Times stay distinct and sorted: a valid batch for the planners.
    assert flushed_times == sorted(set(flushed_times))
    # Per-item absorbed mass bounds the widened error window.
    assert buffer.max_item_mass == 2 + 1 + 4  # item 7: |2| + |-1| + |4|
    assert buffer.stats()["coalesced_away"] == 3


def test_coalesce_keeps_net_zero_items():
    log = []
    buffer = UpdateBuffer(window=100, mode="coalesce")
    times = np.array([1, 2], dtype=np.int64)
    items = np.array([5, 5], dtype=np.int64)
    counts = np.array([3, -3], dtype=np.int64)
    buffer.absorb(times, items, counts, _collecting_apply(log))
    buffer.flush(_collecting_apply(log))
    # The touched counter still records a (count 0) update at the
    # flush, mirroring the scalar path's count-0 semantics.
    assert log == [([2], [5], [0])]


# --------------------------------------------------------------------- #
# Exact mode == unbuffered, bit for bit, for every sketch type
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    updates=update_lists,
    window=st.integers(min_value=1, max_value=48),
    chunk=st.integers(min_value=1, max_value=41),
)
def test_exact_buffered_bit_identical_to_unbuffered(
    name, updates, window, chunk
):
    _check_exact_buffered(name, updates, window, chunk)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    updates=update_lists,
    window=st.integers(min_value=1, max_value=48),
    chunk=st.integers(min_value=1, max_value=41),
)
def test_exact_buffered_kernel_bit_identical_to_unbuffered(
    name, updates, window, chunk
):
    """The same with contracts off and every flush through the columnar
    planner, so runs reach the PLA row kernel."""
    with contracts.enforced(False), columnar_only():
        _check_exact_buffered(name, updates, window, chunk)


def _check_exact_buffered(name, updates, window, chunk):
    stream = build_stream(updates)
    plain = FACTORIES[name]()
    plain.ingest(stream, batch_size=chunk)
    buffered = FACTORIES[name]()
    buffered.configure_buffer(window=window, mode="exact")
    buffered.ingest(stream, batch_size=chunk)
    buffered.flush_buffer()
    assert fingerprint(buffered) == fingerprint(plain)
    assert buffered.buffer_stats()["absorbed"] == len(stream)
    # A buffered update() stages a one-record batch: same flush points.
    looped = FACTORIES[name]()
    looped.configure_buffer(window=window, mode="exact")
    for update in stream:
        looped.update(update.item, update.count, update.time)
    looped.flush_buffer()
    assert fingerprint(looped) == fingerprint(plain)
    assert looped.buffer_stats() == buffered.buffer_stats()


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("window", [1, 7, _SCALAR_RUN_MAX, _SCALAR_RUN_MAX + 1])
def test_exact_short_run_flushes_equal_unbuffered(name, window):
    """Flushes of at most ``_SCALAR_RUN_MAX`` records take the scalar
    route; they still equal one unbuffered columnar batch."""
    stream = fixed_stream(3 * _SCALAR_RUN_MAX)
    plain = FACTORIES[name]()
    plain.ingest_batch(stream.times, stream.items, stream.counts)
    buffered = FACTORIES[name]()
    buffered.configure_buffer(window=window, mode="exact")
    buffered.ingest_batch(stream.times, stream.items, stream.counts)
    buffered.flush_buffer()
    assert fingerprint(buffered) == fingerprint(plain)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates=update_lists, data=st.data())
def test_exact_mode_query_driven_flushes_are_invisible(name, updates, data):
    """Mid-stream queries force early flushes; exact state is unmoved."""
    stream = build_stream(updates)
    n = len(stream)
    cut = data.draw(st.integers(min_value=1, max_value=n))
    plain = FACTORIES[name]()
    plain.ingest_batch(stream.times, stream.items, stream.counts)
    buffered = FACTORIES[name]()
    buffered.configure_buffer(window=max(2, n), mode="exact")
    buffered.ingest_batch(
        stream.times[:cut], stream.items[:cut], stream.counts[:cut]
    )
    probe = int(stream.items[0])
    mid = buffered.point(probe)  # flushes the staged prefix
    assert mid == mid  # a real float came back
    if cut < n:
        buffered.ingest_batch(
            stream.times[cut:], stream.items[cut:], stream.counts[cut:]
        )
    buffered.flush_buffer()
    assert fingerprint(buffered) == fingerprint(plain)


#: Calls that must flush staged updates before they read or mutate
#: sketch state, and the sketch types each applies to.
_FLUSH_SITES = {
    "finalize": (lambda sketch: sketch.finalize(), ("PLA_CM", "PLA_HH", "PWC_CM")),
    "to_dict": (
        to_dict,
        ("Hist_AMS", "Hist_CM", "PLA_CM", "PLA_HH", "PWC_AMS", "PWC_CM", "Sample_AMS"),
    ),
    "freeze": (
        lambda sketch: sketch.freeze(),
        ("PLA_CM", "PLA_HH", "PWC_AMS", "PWC_CM", "Sample_AMS", "Sharded"),
    ),
    "drop_before": (lambda sketch: sketch.drop_before(100), ("Sharded",)),
}


@pytest.mark.parametrize(
    ("site", "name"),
    [(site, name) for site, (_, names) in _FLUSH_SITES.items() for name in names],
)
def test_state_reading_sites_flush_exactly(site, name):
    """Finalize, serialization, freeze and shard expiry each flush the
    exact-mode buffer first, so the sketch ends equal to an unbuffered
    twin that made the same call."""
    call, _ = _FLUSH_SITES[site]
    stream = fixed_stream(3 * _SCALAR_RUN_MAX)
    plain = FACTORIES[name]()
    plain.ingest_batch(stream.times, stream.items, stream.counts)
    expected = call(plain)
    buffered = FACTORIES[name]()
    buffered.configure_buffer(window=10 * len(stream), mode="exact")
    buffered.ingest_batch(stream.times, stream.items, stream.counts)
    assert len(buffered._buffer) == len(stream)
    got = call(buffered)
    assert len(buffered._buffer) == 0
    assert fingerprint(buffered) == fingerprint(plain)
    if site == "to_dict":
        assert got == expected


# --------------------------------------------------------------------- #
# Freeze-tick boundary exactness: frozen == live at the same horizon
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["exact", "coalesce"])
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates=update_lists, window=st.integers(min_value=2, max_value=64))
def test_freeze_mid_window_flushes_and_matches_live(updates, window, mode):
    stream = build_stream(updates)
    sketch = FACTORIES["PLA_CM"]()
    sketch.configure_buffer(window=window, mode=mode)
    sketch.ingest_batch(stream.times, stream.items, stream.counts)
    frozen = sketch.freeze()
    # The freeze flushed whatever the window still staged ...
    assert len(sketch._buffer) == 0
    # ... so estimates at the flush boundary are never widened: frozen
    # and live agree exactly, in the lossy mode too.
    for item in sorted(set(stream.items.tolist())):
        assert frozen.point(item) == sketch.point(item)


@pytest.mark.parametrize("mode", ["exact", "coalesce"])
def test_serialization_flushes_the_buffer(mode):
    import pickle

    sketch = FACTORIES["PLA_CM"]()
    sketch.configure_buffer(window=1000, mode=mode)
    for t in range(1, 40):
        sketch.update(t % 5, count=1, time=t)
    assert len(sketch._buffer) > 0
    clone = pickle.loads(pickle.dumps(sketch))
    assert len(sketch._buffer) == 0  # __getstate__ drained it
    assert clone.point(3) == sketch.point(3)


# --------------------------------------------------------------------- #
# Coalesce mode: mass preservation and the documented envelope
# --------------------------------------------------------------------- #


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates=update_lists, window=st.integers(min_value=2, max_value=32))
def test_coalesce_preserves_net_mass_and_final_counters(updates, window):
    stream = build_stream(updates)
    exact = FACTORIES["PLA_CM"]()
    exact.ingest_batch(stream.times, stream.items, stream.counts)
    lossy = FACTORIES["PLA_CM"]()
    lossy.configure_buffer(window=window, mode="coalesce")
    lossy.ingest_batch(stream.times, stream.items, stream.counts)
    lossy.flush_buffer()
    # Net counts are merged with exact integer arithmetic: the final
    # counter arrays agree exactly, whatever was coalesced away.
    assert lossy._counters == exact._counters
    assert lossy.total == exact.total
    stats = lossy.buffer_stats()
    assert stats["absorbed"] == len(stream)
    assert stats["fed"] + stats["coalesced_away"] == stats["absorbed"]
    # The envelope never understates a window's heaviest item.
    assert stats["max_item_mass"] <= int(np.abs(stream.counts).sum())


# --------------------------------------------------------------------- #
# The first touch: a one-point run, staged without a hull
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # time gap
            st.integers(min_value=-3, max_value=5),  # value delta
        ),
        min_size=0,
        max_size=12,
    ),
    split=st.integers(min_value=0, max_value=12),
)
def test_young_tracker_answers_match_eager(steps, split):
    """Scalar feeds, fused batch feeds, or both: a tracker whose first
    touch was staged alone answers like one fed point by point."""
    times, values = [], []
    t, v = 0, 0
    for gap, dv in steps:
        t += gap
        v += dv
        times.append(t)
        values.append(v)
    eager = OnlinePLA(delta=2.0)
    young = OnlinePLA(delta=2.0)
    for k in range(len(times)):
        eager.feed(times[k], values[k])
    head = min(split, len(times))
    for k in range(head):
        young.feed(times[k], values[k])
    if head < len(times):
        young.feed_many(
            np.array(times[head:], dtype=np.int64),
            np.array(values[head:], dtype=np.int64),
        )
    probes = [0, *times, (times[-1] + 1) if times else 1]
    for probe in probes:
        assert young.value_at(probe) == eager.value_at(probe)
    assert young.words() == eager.words()
    assert young.segment_count() == eager.segment_count()
    assert young.pending() == eager.pending()
    eager.finalize()
    young.finalize()
    # The segment rows a checkpoint or a freeze reads.
    assert young.log.rows(young) == eager.log.rows(eager)


def test_young_tracker_single_touch_is_free():
    young = OnlinePLA(delta=2.0)
    young.feed(5, 3)
    # One touch is a one-point run: no hull, no segment, no words.
    assert young._hull_a == [] and young._hull_b == []
    assert len(young.log) == 0
    assert young.words() == 0
    assert young.value_at(4) == 0.0  # sketchlint: disable=SL002 — the staged step answers exactly, no arithmetic involved
    assert young.value_at(5) == 3
    assert young.value_at(100) == 3
    assert young.initial_value == 0.0  # sketchlint: disable=SL002 — stored verbatim, compared verbatim

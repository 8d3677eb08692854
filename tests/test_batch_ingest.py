"""Scalar-vs-batch bit-equality of the columnar ingestion pipeline.

The tentpole claim of the batch refactor is that ``ingest_batch`` is
*bit-identical* to a loop of scalar ``update()`` calls for **every**
sketch type — including the sampling-based persistent AMS, whose
Bernoulli draws are pre-drawn from the same seeded generator in scalar
order.  These tests compare a structural fingerprint of the full sketch
state (counters, tracker segments, history lists, epoch bookkeeping,
RNG state) rather than just query answers, under hypothesis-driven
streams and arbitrary chunk boundaries.

Runs of at most ``_SCALAR_RUN_MAX`` records replay through the scalar
reference instead of the columnar plan; the planner property pins the
route off (:func:`columnar_only`) so every planner size stays compared
against the reference, and the route itself is tested at the cutoff.
"""

import random
from array import array
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.analysis.contracts import ContractViolation
from repro.core import base
from repro.core import persistent_ams as persistent_ams_module
from repro.core.base import _SCALAR_RUN_MAX
from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.historical_ams import HistoricalAMS
from repro.core.historical_countmin import HistoricalCountMin
from repro.core.historical_heavy_hitters import HistoricalHeavyHitters
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.core.pwc_ams import PWCAMS
from repro.hashing import BucketHashFamily, HashConfig, SignHashFamily
from repro.hashing.carter_wegman import MERSENNE_PRIME, PolynomialHash
from repro.hashing.families import IdentityHashFamily
from repro.persistence.column_log import ColumnLog, group
from repro.persistence.sampling import bulk_uniforms
from repro.pla.orourke import _FUSED_MIN, OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC
from repro.sketch.ams import AMSSketch
from repro.sketch.countmin import CountMinSketch
from repro.store import SketchStore, StreamSpec
from repro.store.sharded import ShardedPersistentSketch
from repro.streams.model import Stream

# --------------------------------------------------------------------- #
# Deep state fingerprint
# --------------------------------------------------------------------- #


# Memoization caches (hash families) and weakref plumbing are not sketch
# state: the scalar path warms per-item caches the vectorized path never
# touches, by design.
_NON_STATE_ATTRS = {
    "_cache",
    "__weakref__",
    # The update-buffer tier is execution plumbing: a flushed buffer
    # holds no sketch state, only lifetime counters the
    # buffered/unbuffered equality tests compare around.
    "_buffer",
    "_buffer_flushing",
    # A store's last committed save (what its next save appends to) is
    # persistence plumbing, not sketch state.
    "_saved",
    # A tracker's reference to its sketch's column log: the sketch
    # fingerprints the log once, canonically, and each tracker its own
    # rows (read through ``_pos``).
    "log",
}


def _slot_names(obj):
    names = []
    for klass in type(obj).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    return names


def fingerprint(obj, _depth=0):
    """Recursively reduce an object graph to comparable plain data.

    Every attribute reachable from the sketch participates — counters,
    tracker segments, history lists, epoch state and RNG state — so two
    equal fingerprints mean bit-identical sketches, not merely sketches
    that happen to answer today's queries alike.
    """
    if _depth > 24:
        raise RuntimeError("fingerprint recursion too deep")
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return ("ndarray", str(obj.dtype), obj.tolist())
    if isinstance(obj, random.Random):
        return ("rng", obj.getstate())
    if isinstance(obj, array):
        return ("array", obj.typecode, obj.tolist())
    if isinstance(obj, ColumnLog):
        # Rows of different components interleave in ingest order, which
        # batch and scalar feeding need not share: compare each
        # component's run, and the components by key.
        run_keys, lengths, columns = group(*obj.entries())
        return (
            "log",
            obj.kind.name,
            run_keys.tolist(),
            lengths.tolist(),
            [column.tolist() for column in columns],
            sorted(
                zip(
                    obj.component_keys,
                    obj.component_params,
                    obj.component_initials,
                )
            ),
        )
    if isinstance(obj, (list, tuple)):
        return [fingerprint(x, _depth + 1) for x in obj]
    if isinstance(obj, dict):
        return {
            repr(key): fingerprint(value, _depth + 1)
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        }
    if isinstance(obj, (set, frozenset)):
        return ("set", sorted(repr(x) for x in obj))
    if callable(obj) and not hasattr(obj, "__dict__"):
        return ("callable", getattr(obj, "__qualname__", repr(type(obj))))
    if callable(obj) and isinstance(
        obj, (type(lambda: 0), type(fingerprint))
    ):
        return ("callable", getattr(obj, "__qualname__", "?"))
    state = {}
    for name in _slot_names(obj):
        if name == "_pos" and hasattr(obj, "log"):
            # Log positions depend on the interleaving; the rows do not.
            state[name] = fingerprint(obj.log.rows(obj), _depth + 1)
        elif name not in _NON_STATE_ATTRS and hasattr(obj, name):
            state[name] = fingerprint(getattr(obj, name), _depth + 1)
    for name, value in vars(obj).items() if hasattr(obj, "__dict__") else ():
        if name in _NON_STATE_ATTRS:
            continue
        if callable(value) and not isinstance(value, random.Random):
            state[name] = ("callable",)
        else:
            state[name] = fingerprint(value, _depth + 1)
    return (type(obj).__name__, state)


# --------------------------------------------------------------------- #
# Stream strategy: bounded turnstile updates with irregular gaps
# --------------------------------------------------------------------- #

update_tuples = st.tuples(
    st.integers(min_value=0, max_value=255),  # item (fits HH universes)
    st.sampled_from([1, 1, 1, 2, -1]),  # count (mostly inserts)
    st.integers(min_value=1, max_value=3),  # time gap
)

update_lists = st.lists(update_tuples, min_size=1, max_size=90)


def build_stream(updates):
    """Materialize a valid cash-register-leaning stream."""
    balance: dict[int, int] = {}
    items, counts, times = [], [], []
    time = 0
    for item, count, gap in updates:
        if count < 0 and balance.get(item, 0) <= 0:
            count = 1
        balance[item] = balance.get(item, 0) + count
        time += gap
        items.append(item)
        counts.append(count)
        times.append(time)
    return Stream(
        np.array(items, dtype=np.int64),
        np.array(times, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


def scalar_ingest(sketch, stream):
    for t, i, c in zip(
        stream.times.tolist(), stream.items.tolist(), stream.counts.tolist()
    ):
        sketch.update(i, count=c, time=t)


@contextmanager
def columnar_only():
    """Send every validated batch, however short, through the columnar
    plan (nested level and shard sketches included)."""
    with mock.patch.object(base, "_SCALAR_RUN_MAX", 0):
        yield


def fixed_stream(n, seed=0):
    """A deterministic ``n``-record stream inside every FACTORIES domain."""
    rng = random.Random(seed)
    return build_stream(
        [
            (rng.randrange(256), rng.choice([1, 1, 1, 2, -1]), rng.randint(1, 3))
            for _ in range(n)
        ]
    )


FACTORIES = {
    "PLA_CM": lambda: PersistentCountMin(width=32, depth=3, delta=5, seed=2),
    "PWC_CM": lambda: PWCCountMin(width=32, depth=3, delta=5, seed=2),
    "PWC_AMS": lambda: PWCAMS(width=32, depth=3, delta=5, seed=2),
    "Sample_AMS": lambda: PersistentAMS(
        width=32, depth=3, delta=5, seed=2, sampling_seed=11
    ),
    "Hist_CM": lambda: HistoricalCountMin(width=32, depth=3, eps=0.1, seed=2),
    "Hist_AMS": lambda: HistoricalAMS(
        width=32, depth=2, eps=0.25, seed=2, expected_length=1000
    ),
    "PLA_HH": lambda: PersistentHeavyHitters(
        universe=256, width=32, depth=2, delta=5, seed=2
    ),
    "Hist_HH": lambda: HistoricalHeavyHitters(
        universe=256, width=16, depth=2, eps=0.15, seed=2
    ),
    "Sharded": lambda: ShardedPersistentSketch(
        shard_length=40, width=32, depth=2, delta=5, seed=2
    ),
}


# --------------------------------------------------------------------- #
# The tentpole property: batch == scalar, bit for bit, for every type
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates=update_lists, chunk=st.integers(min_value=1, max_value=41))
def test_batch_bit_identical_to_scalar(name, updates, chunk):
    """The columnar plan itself, at every chunk size, equals the scalar
    loop (the short-run route is pinned off, or it would compare the
    scalar reference with itself)."""
    stream = build_stream(updates)
    sequential = FACTORIES[name]()
    scalar_ingest(sequential, stream)
    batched = FACTORIES[name]()
    with columnar_only():
        batched.ingest(stream, batch_size=chunk)
    assert fingerprint(batched) == fingerprint(sequential)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("n", [1, _SCALAR_RUN_MAX, _SCALAR_RUN_MAX + 1])
def test_public_batch_at_the_cutoff_equals_scalar(name, n):
    """Either side of the short-run cutoff, ``ingest_batch`` equals the
    scalar loop, the sampled-AMS RNG end state included."""
    prefix = fixed_stream(150, seed=n)
    run = fixed_stream(n, seed=n + 1)
    run = Stream(run.items, run.times + int(prefix.times[-1]), run.counts)
    sequential = FACTORIES[name]()
    scalar_ingest(sequential, prefix)
    scalar_ingest(sequential, run)
    batched = FACTORIES[name]()
    batched.ingest_batch(prefix.times, prefix.items, prefix.counts)
    batched.ingest_batch(run.times, run.items, run.counts)
    assert fingerprint(batched) == fingerprint(sequential)
    assert batched.now == sequential.now
    if isinstance(batched, PersistentAMS):
        assert batched._rng.getstate() == sequential._rng.getstate()


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    updates=st.lists(
        update_tuples,
        min_size=_SCALAR_RUN_MAX + 2,
        max_size=3 * _SCALAR_RUN_MAX,
    ),
    data=st.data(),
)
def test_chunk_boundaries_are_invisible(name, updates, data):
    """Splitting one batch at arbitrary points changes nothing, with
    chunks drawn to land on either side of the short-run cutoff."""
    stream = build_stream(updates)
    n = len(stream)
    sizes = data.draw(
        st.lists(
            st.sampled_from(
                [1, 2, _SCALAR_RUN_MAX - 1, _SCALAR_RUN_MAX, _SCALAR_RUN_MAX + 1]
            )
            | st.integers(min_value=1, max_value=n),
            min_size=1,
            max_size=6,
        )
    )
    cuts = sorted({c for c in np.cumsum(sizes).tolist() if c < n})
    whole = FACTORIES[name]()
    whole.ingest_batch(stream.times, stream.items, stream.counts)
    split = FACTORIES[name]()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if lo < hi:
            split.ingest_batch(
                stream.times[lo:hi], stream.items[lo:hi], stream.counts[lo:hi]
            )
    assert fingerprint(split) == fingerprint(whole)


# --------------------------------------------------------------------- #
# Batch validation: contracts and clock conflicts, before any state
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "factory", [FACTORIES["PLA_CM"], FACTORIES["Sample_AMS"]]
)
def test_non_monotone_batch_rejected_untouched(factory):
    sketch = factory()
    before = fingerprint(sketch)
    times = np.array([1, 2, 2, 4], dtype=np.int64)
    items = np.array([5, 6, 7, 8], dtype=np.int64)
    with pytest.raises(ContractViolation, match="strictly increasing"):
        sketch.ingest_batch(times, items)
    assert sketch.now == 0
    assert fingerprint(sketch) == before


def _bad_item_batches(bad):
    """A short (<= cutoff) and a long (> cutoff) batch ending in ``bad``."""
    for n in (3, _SCALAR_RUN_MAX + 5):
        times = list(range(1001, 1001 + n))
        items = [(7 * k) % 200 for k in range(n - 1)] + [bad]
        yield times, items


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("bad", [-1, 2**63])
def test_item_outside_int64_domain_rejected_untouched(name, bad):
    """``update`` and ``ingest_batch`` on both routes reject items outside
    ``[0, 2**63)`` with ValueError, before any state is touched."""
    sketch = FACTORIES[name]()
    prefix = fixed_stream(40)
    sketch.ingest_batch(prefix.times, prefix.items, prefix.counts)
    before, clock = fingerprint(sketch), sketch.now
    with pytest.raises(ValueError):
        sketch.update(bad, 1, clock + 1)
    with pytest.raises(ValueError):
        sketch.update(bad)
    for times, items in _bad_item_batches(bad):
        with pytest.raises(ValueError):
            sketch.ingest_batch(times, items)
    assert sketch.now == clock
    assert fingerprint(sketch) == before


@pytest.mark.parametrize("name", sorted(FACTORIES))
@pytest.mark.parametrize("bad", [2**63, 2**64])
def test_time_and_count_outside_int64_rejected_untouched(name, bad):
    """Times and counts must fit the int64 columns the batches, the WAL
    and the checkpoints use: ``update`` and ``ingest_batch`` on both
    routes reject them with ValueError, before any state is touched."""
    sketch = FACTORIES[name]()
    prefix = fixed_stream(40)
    sketch.ingest_batch(prefix.times, prefix.items, prefix.counts)
    before, clock = fingerprint(sketch), sketch.now
    with pytest.raises(ValueError):
        sketch.update(1, 1, bad)
    for count in (bad, -bad - 1):
        with pytest.raises(ValueError):
            sketch.update(1, count, clock + 1)
        with pytest.raises(ValueError):
            sketch.update(1, count)
    for n in (3, _SCALAR_RUN_MAX + 5):
        times = list(range(clock + 1, clock + n)) + [bad]
        with pytest.raises(ValueError):
            sketch.ingest_batch(times, [1] * n)
        times = list(range(clock + 1, clock + n + 1))
        for count in (bad, -bad - 1):
            with pytest.raises(ValueError):
                sketch.ingest_batch(times, [1] * n, [1] * (n - 1) + [count])
    assert sketch.now == clock
    assert fingerprint(sketch) == before


@pytest.mark.parametrize("name", ["PLA_HH", "Hist_HH"])
def test_short_batch_outside_universe_rejected_untouched(name):
    """The scalar heavy-hitter path alone would apply the records ahead
    of the offender; the route's up-front check rejects the whole run."""
    sketch = FACTORIES[name]()
    sketch.ingest_batch([1, 2, 3], [4, 5, 6])
    before = fingerprint(sketch)
    with pytest.raises(ValueError, match="outside universe"):
        sketch.ingest_batch([4, 5, 6], [1, 2, 256])
    assert sketch.now == 3
    assert fingerprint(sketch) == before


def test_clock_conflict_rejected_untouched():
    sketch = FACTORIES["PLA_CM"]()
    sketch.ingest_batch([1, 2, 3], [4, 5, 6])
    before = fingerprint(sketch)
    with pytest.raises(ValueError, match="clock is already at"):
        sketch.ingest_batch([3, 4], [7, 8])
    assert fingerprint(sketch) == before


def test_batch_argument_validation():
    sketch = FACTORIES["PLA_CM"]()
    with pytest.raises(ValueError, match="batch_size"):
        sketch.ingest(build_stream([(1, 1, 1)]), batch_size=0)
    with pytest.raises(ValueError, match="equal lengths"):
        sketch.ingest_batch([1, 2], [3])
    sketch.ingest_batch([], [])  # empty batch is a no-op
    assert sketch.now == 0
    sketch.ingest_batch([5, 7], [1, 2])  # counts default to ones
    assert sketch.now == 7
    assert sketch.total == 2


# --------------------------------------------------------------------- #
# Layer 1: vectorized Carter-Wegman hashing
# --------------------------------------------------------------------- #


def test_eval_many_matches_scalar_on_edge_values():
    hash_fn = PolynomialHash(degree=4, rng=random.Random(9))
    edges = [0, 1, 2, 61, MERSENNE_PRIME - 1, MERSENNE_PRIME, 2**62, 2**64 - 1]
    got = hash_fn.eval_many(np.array(edges, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [hash_fn(x) for x in edges]


def test_bucket_and_sign_families_vectorize_exactly():
    config = HashConfig(width=37, depth=4, seed=13)
    buckets = BucketHashFamily(config)
    signs = SignHashFamily(config)
    items = np.arange(0, 500, 7, dtype=np.int64)
    cols = buckets.buckets_many(items)
    sgns = signs.signs_many(items)
    assert cols.shape == (4, len(items))
    for idx, item in enumerate(items.tolist()):
        assert tuple(cols[:, idx].tolist()) == buckets.buckets(item)
        assert tuple(sgns[:, idx].tolist()) == signs.signs(item)


def test_identity_family_vector_range_check():
    family = IdentityHashFamily(16, 2)
    out = family.buckets_many(np.array([0, 3, 15], dtype=np.int64))
    assert out.tolist() == [[0, 3, 15], [0, 3, 15]]
    with pytest.raises(ValueError, match="outside identity range"):
        family.buckets_many(np.array([0, 16], dtype=np.int64))


# --------------------------------------------------------------------- #
# Layer 2: ephemeral sketches
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("cls", [CountMinSketch, AMSSketch])
def test_ephemeral_update_many_matches_scalar(cls):
    rng = np.random.default_rng(3)
    items = rng.integers(0, 4096, size=400)
    counts = rng.integers(-2, 5, size=400)
    counts[counts == 0] = 1
    scalar = cls(width=64, depth=4, seed=7)
    for item, count in zip(items.tolist(), counts.tolist()):
        scalar.update(item, count)
    batched = cls(width=64, depth=4, seed=7)
    batched.update_many(items, counts)
    assert batched.counters.tolist() == scalar.counters.tolist()
    assert batched.total == scalar.total


# --------------------------------------------------------------------- #
# Layer 4: persistence primitives
# --------------------------------------------------------------------- #


def test_bulk_uniforms_is_the_scalar_stream():
    reference = random.Random(41)
    expected = [reference.random() for _ in range(257)]
    rng = random.Random(41)
    got = bulk_uniforms(rng, 257)
    assert got.tolist() == expected
    assert rng.getstate() == reference.getstate()
    # Interleaving bulk and scalar draws continues the same stream.
    assert rng.random() == reference.random()
    assert bulk_uniforms(rng, 3).tolist() == [
        reference.random() for _ in range(3)
    ]
    assert bulk_uniforms(rng, 0).tolist() == []


# --------------------------------------------------------------------- #
# The fused OnlinePLA batch path
# --------------------------------------------------------------------- #

pla_steps = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),  # time gap
        st.integers(min_value=-6, max_value=9),  # value step
    ),
    min_size=_FUSED_MIN,
    max_size=120,
)


def _pla_columns(steps):
    t, v = 0, 0
    times, values = [], []
    for gap, dv in steps:
        t += gap
        v += dv
        times.append(t)
        values.append(v)
    return (
        np.array(times, dtype=np.int64),
        np.array(values, dtype=np.int64),
    )


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=pla_steps,
    delta=st.sampled_from([1.0, 2.0, 5.0, 50.0]),
    data=st.data(),
)
def test_pla_fused_feed_many_matches_scalar(steps, delta, data):
    """The fused vector path leaves bit-identical OnlinePLA state.

    Every internal field participates via the fingerprint: hulls,
    tangent-walk starts, supporting lines, run bookkeeping and emitted
    segments.  Chunk cuts are drawn adversarially so fused windows stop
    and resume at arbitrary run positions.
    """
    times, values = _pla_columns(steps)
    with contracts.enforced(False):
        scalar = OnlinePLA(delta=delta)
        for t, v in zip(times.tolist(), values.tolist()):
            scalar.feed(t, v)
        fused = OnlinePLA(delta=delta)
        pos = 0
        while pos < len(times):
            cut = data.draw(
                st.integers(min_value=1, max_value=len(times) - pos),
                label="cut",
            )
            fused.feed_many(times[pos : pos + cut], values[pos : pos + cut])
            pos += cut
    assert fingerprint(fused) == fingerprint(scalar)


def test_pla_fused_path_engages_on_clean_columns():
    """Integer, strictly-increasing numpy columns take the vector path."""
    times = np.arange(1, 101, dtype=np.int64)
    values = (times * 7) // 3
    with contracts.enforced(False):
        pla = OnlinePLA(delta=5.0)
        assert pla._feed_fused(times, values)
        assert pla._count > 0


def test_pla_fused_declines_unsafe_columns():
    """Guards route float dtypes and unsorted times to the scalar loop."""
    times = np.arange(1, 41, dtype=np.int64)
    values = np.arange(1, 41, dtype=np.int64)
    with contracts.enforced(False):
        assert not OnlinePLA(delta=5.0)._feed_fused(
            times.astype(np.float64), values
        )
        assert not OnlinePLA(delta=5.0)._feed_fused(
            times, values.astype(np.float64)
        )
        shuffled = times.copy()
        shuffled[[3, 4]] = shuffled[[4, 3]]
        assert not OnlinePLA(delta=5.0)._feed_fused(shuffled, values)
        # Fractional delta: the exact-arithmetic argument needs
        # integer-valued hull coordinates.
        assert not OnlinePLA(delta=2.5)._feed_fused(times, values)
        # The declined calls must not have touched any state.
        pla = OnlinePLA(delta=5.0)
        assert not pla._feed_fused(shuffled, values)
        assert fingerprint(pla) == fingerprint(OnlinePLA(delta=5.0))


def _pla_holds_no_numpy_scalars(pla):
    """Recorded state stays plain Python: run state, pending segment
    and rows."""

    def walk(obj, depth=0):
        assert depth < 16
        assert not isinstance(obj, np.generic), repr(obj)
        if isinstance(obj, (list, tuple)):
            for x in obj:
                walk(x, depth + 1)

    walk(pla._hull_a)
    walk(pla._hull_b)
    walk([pla._t0, pla._last_x, pla._count, pla._first_v])
    walk([pla._u_slope, pla._u_icept, pla._l_slope, pla._l_icept])
    walk(list(pla.pending() or ()))
    walk(pla._times)
    walk(list(pla.log.rows(pla)))


def test_pla_fused_state_holds_no_numpy_scalars():
    """Recorded state stays plain Python after numpy-column feeding."""
    times = np.arange(1, 301, dtype=np.int64)
    values = (times * times) // 7  # convex: exercises hull churn
    with contracts.enforced(False):
        pla = OnlinePLA(delta=3.0)
        pla.feed_many(times, values)
    _pla_holds_no_numpy_scalars(pla)


# --------------------------------------------------------------------- #
# The run kernel: one OnlinePLA.feed_many call per list run
# --------------------------------------------------------------------- #

#: Stretches of a kernel test sequence: ``(points, slope, jitter, jump)``
#: — ``points`` near-collinear points along ``slope`` per time step,
#: each off the line by at most ``jitter``, after a ``jump`` that breaks
#: the run when it clears the tube.
pla_stretches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([0, 1, -1, 3]),
        st.sampled_from([0, 0, 1, 4]),
        st.sampled_from([0, 0, 9, -40, 300]),
    ),
    min_size=1,
    max_size=8,
)

#: Offsets of the whole sequence: ``2**47`` puts values past the fused
#: path's exact-arithmetic guard, so numpy chunks decline it too.
KERNEL_OFFSETS = st.sampled_from([0, 0, 2**33, -(2**47)])


def _kernel_points(stretches, floats, t_offset, v_offset, seed):
    rng = random.Random(seed)
    t, level = t_offset, 0
    times, values = [], []
    for points, slope, jitter, jump in stretches:
        level += jump
        for _ in range(points):
            gap = rng.randint(1, 3)
            t += gap
            level += slope * gap
            value = v_offset + level + rng.randint(-jitter, jitter)
            if floats:
                value = value + rng.choice([0.0, 0.25, 0.5, 1 / 3])
            times.append(t)
            values.append(value)
    return times, values


def _chunk(container, values, floats):
    if container == "list":
        return list(values)
    return np.array(values, dtype=np.float64 if floats else np.int64)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stretches=pla_stretches,
    floats=st.booleans(),
    delta=st.sampled_from([1.0, 2.0, 5.0, 2.5, 0.75, 50.0]),
    t_offset=KERNEL_OFFSETS,
    v_offset=KERNEL_OFFSETS,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_pla_kernel_feed_many_matches_feed(
    stretches, floats, delta, t_offset, v_offset, seed, data
):
    """``feed_many`` on list runs (and numpy runs the fused path
    declines) leaves the state of per-point ``feed``, bit for bit.

    Integer and float values, integer and fractional Delta, magnitudes
    past the fused guard, collinear stretches and breaks; the sequence
    is cut into random chunks, with ``finalize()`` between some.
    """
    times, values = _kernel_points(
        stretches, floats, abs(t_offset), v_offset, seed
    )
    with contracts.enforced(False):
        reference = OnlinePLA(delta=delta)
        kernel = OnlinePLA(delta=delta)
        pos = 0
        while pos < len(times):
            cut = data.draw(
                st.integers(min_value=1, max_value=len(times) - pos),
                label="cut",
            )
            container = data.draw(
                st.sampled_from(["list", "list", "array"]), label="container"
            )
            for t, v in zip(times[pos : pos + cut], values[pos : pos + cut]):
                reference.feed(t, v)
            kernel.feed_many(
                _chunk(container, times[pos : pos + cut], False),
                _chunk(container, values[pos : pos + cut], floats),
            )
            pos += cut
            if data.draw(st.sampled_from([False, False, True]), label="close"):
                reference.finalize()
                kernel.finalize()
    assert fingerprint(kernel) == fingerprint(reference)
    assert kernel.log.open.keys() == reference.log.open.keys()
    _pla_holds_no_numpy_scalars(kernel)


def _outcome(feed):
    try:
        feed()
    except ValueError as error:
        return f"{type(error).__name__}: {error}"
    return None


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stretches=pla_stretches,
    floats=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=30),
    back=st.integers(min_value=0, max_value=3),
    close_first=st.booleans(),
    container=st.sampled_from(["list", "array"]),
)
def test_pla_kernel_raise_matches_feed(
    stretches, floats, seed, k, back, close_first, container
):
    """A chunk whose k-th time does not increase raises the k-th
    ``feed``'s ``ValueError`` and keeps points 0..k-1, as ``feed`` does."""
    times, values = _kernel_points(stretches, floats, 0, 0, seed)
    head = max(1, len(times) // 3)
    k = min(k, len(times) - head - 1) if len(times) > head + 1 else 0
    chunk_t = times[head:]
    chunk_v = values[head:]
    assume(chunk_t)
    previous = chunk_t[k - 1] if k else times[head - 1]
    chunk_t[k] = previous - back
    with contracts.enforced(False):
        reference = OnlinePLA(delta=2.0)
        kernel = OnlinePLA(delta=2.0)
        for pla in (reference, kernel):
            for t, v in zip(times[:head], values[:head]):
                pla.feed(t, v)
            if close_first:
                pla.finalize()

        def per_point():
            for t, v in zip(chunk_t, chunk_v):
                reference.feed(t, v)

        expected = _outcome(per_point)
        got = _outcome(
            lambda: kernel.feed_many(
                _chunk(container, chunk_t, False),
                _chunk(container, chunk_v, floats),
            )
        )
    assert got == expected
    if not close_first or k > 0:
        assert expected is not None and "strictly increasing" in expected
    assert fingerprint(kernel) == fingerprint(reference)
    _pla_holds_no_numpy_scalars(kernel)


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates=update_lists, chunk=st.integers(min_value=1, max_value=41))
def test_planner_kernel_bit_identical_to_scalar(name, updates, chunk):
    """:func:`test_batch_bit_identical_to_scalar` with contracts off.

    With contracts on, ``feed_many`` feeds point by point, so only this
    run reaches the run kernel; the sketches are built with contracts
    off too, or their trackers would record run points and keep the
    per-point loop."""
    stream = build_stream(updates)
    with contracts.enforced(False):
        sequential = FACTORIES[name]()
        scalar_ingest(sequential, stream)
        batched = FACTORIES[name]()
        with columnar_only():
            batched.ingest(stream, batch_size=chunk)
    assert fingerprint(batched) == fingerprint(sequential)


# --------------------------------------------------------------------- #
# A save closes its open runs
# --------------------------------------------------------------------- #


def test_second_save_adds_no_rows(tmp_path):
    """A save closes every open run of the stream's PLA logs; a second
    save with no updates between appends no row."""
    with contracts.enforced(False):
        store = SketchStore(width=8, depth=2, join_width=8, seed=1)
        store.create(
            StreamSpec("urls", delta=2, universe=64, heavy_hitters=True)
        )
        times = np.arange(1, 301, dtype=np.int64)
        store.update_batch("urls", times, times % 5, np.ones(300, np.int64))
        state = store._state("urls")
        logs = [state.point_sketch._log] + [
            level._log for level in state.hh_sketch._sketches
        ]
        assert all(log.open for log in logs)
        store.save(tmp_path / "one")
        rows = [len(log) for log in logs]
        assert all(rows) and not any(log.open for log in logs)
        store.save(tmp_path / "two")
        assert [len(log) for log in logs] == rows


def test_closing_open_runs_still_checks_delta():
    """With contracts on, a closed run whose segment misses a fed point
    by more than Delta raises before its row is appended."""
    with contracts.enforced(True):
        sketch = PersistentCountMin(
            width=2, depth=1, delta=2, hashes=IdentityHashFamily(2, 1)
        )
        for t in range(1, 6):
            sketch.update(0, count=1, time=t)
        sketch.update(1, count=1, time=6)
        tracker = sketch._trackers[0][0]
        tracker._u_slope = tracker._l_slope = 10.0  # a bisector off the run
        with pytest.raises(ContractViolation, match="deviates"):
            sketch._log.finalize_open()
        assert len(sketch._log) == 0
        assert set(sketch._log.open) == {0, 1}


def test_pwc_feed_many_fused_path_matches_scalar():
    with contracts.enforced(False):
        scalar = OnlinePWC(delta=2.0, initial_value=0.0)
        fused = OnlinePWC(delta=2.0, initial_value=0.0)
        times = list(range(1, 60))
        values = [float((t * 13) % 17 - 8) for t in times]
        for t, v in zip(times, values):
            scalar.feed(t, v)
        fused.feed_many(times, values)
        assert fused.log.rows(fused) == scalar.log.rows(scalar)
        assert fused.record_count() == scalar.record_count() > 0
        assert fused._last_recorded == scalar._last_recorded


# --------------------------------------------------------------------- #
# The short-run route, structurally: no columnar setup below the cutoff
# --------------------------------------------------------------------- #


def test_one_record_store_batch_makes_no_vectorized_calls(monkeypatch):
    """A one-record ``update_batch`` on a heavy-hitter, joinable stream
    never reaches the columnar plan's per-call setup; one record past
    the cutoff does."""
    calls = {"buckets_many": 0, "signs_many": 0, "bulk_uniforms": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        BucketHashFamily,
        "buckets_many",
        spy("buckets_many", BucketHashFamily.buckets_many),
    )
    monkeypatch.setattr(
        SignHashFamily, "signs_many", spy("signs_many", SignHashFamily.signs_many)
    )
    monkeypatch.setattr(
        persistent_ams_module,
        "bulk_uniforms",
        spy("bulk_uniforms", persistent_ams_module.bulk_uniforms),
    )
    store = SketchStore(width=32, depth=3, join_width=32, seed=7)
    store.create(
        StreamSpec(
            "urls", delta=5, universe=256, heavy_hitters=True, joinable=True
        )
    )
    store.update_batch("urls", [1], [17], [1])
    assert calls == {"buckets_many": 0, "signs_many": 0, "bulk_uniforms": 0}
    n = _SCALAR_RUN_MAX + 1
    times = np.arange(2, 2 + n, dtype=np.int64)
    store.update_batch("urls", times, times % 256, np.ones(n, dtype=np.int64))
    assert all(count > 0 for count in calls.values()), calls

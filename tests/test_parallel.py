"""Multi-core execution layer: bit-equality, worker death, crash safety.

The parallel layer's contract is the same as the batch pipeline's one
level down: ``workers=N`` is an execution detail, *never* a semantic
one.  These tests pin it from every side — hypothesis-driven deep
fingerprint equality for all sketch types, merge-on-query mid-stream,
a SIGKILL'd worker healed transparently (respawn + journal replay, bit
for bit) with the WAL intact, a simulated crash in the middle of a
parallel batch recovering exactly like its serial twin, and a snapshot
frozen after parallel ingest answering bit-identically (batched and
scalar) to the serial snapshot.  (Pool-level healing edge
cases — hung replies, respawn exhaustion, the inline serial fallback —
live in ``tests/test_pool_healing.py``.)

Set ``REPRO_TEST_WORKERS`` to pin the pool width under test (CI runs
2- and 4-worker legs).
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.frozen import freeze
from repro.parallel import fork_available
from repro.runtime import FaultPlan, IngestRuntime, SimulatedCrash
from tests.test_batch_ingest import (
    FACTORIES,
    build_stream,
    fingerprint,
    fixed_stream,
    scalar_ingest,
    update_lists,
)
from tests.test_runtime_batch import make_raws, make_store, store_state, wal_bytes

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel layer requires os.fork"
)

#: Pool widths exercised by the equality tests; CI's parallel leg pins
#: the width via REPRO_TEST_WORKERS, local runs sweep 2-4.
_ENV_WORKERS = os.environ.get("REPRO_TEST_WORKERS")
WORKER_WIDTHS = (
    (int(_ENV_WORKERS),) if _ENV_WORKERS else (2, 3, 4)
)

#: Sketch types whose snapshots the frozen engine can compile.
FREEZABLE = ("PLA_CM", "PWC_CM", "PWC_AMS", "Sample_AMS", "PLA_HH", "Sharded")


def parallel_twin(name, workers):
    sketch = FACTORIES[name]()
    sketch.set_workers(workers)
    return sketch


# --------------------------------------------------------------------- #
# The tentpole property: parallel == serial, bit for bit, every type
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(FACTORIES))
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    updates=update_lists,
    chunk=st.integers(min_value=1, max_value=41),
    workers=st.sampled_from(WORKER_WIDTHS),
)
def test_parallel_bit_identical_to_serial(name, updates, chunk, workers):
    stream = build_stream(updates)
    serial = FACTORIES[name]()
    serial.ingest(stream, batch_size=chunk)
    parallel = parallel_twin(name, workers)
    try:
        parallel.ingest(stream, batch_size=chunk)
    finally:
        parallel.detach_workers()
    assert fingerprint(parallel) == fingerprint(serial)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_mid_stream_queries_merge_and_stay_equal(name):
    """Queries between parallel batches see fully merged state."""
    stream = build_stream([(i % 7, 1, 1) for i in range(120)])
    serial = FACTORIES[name]()
    scalar_ingest(serial, stream)
    parallel = parallel_twin(name, 2)
    half = len(stream) // 2
    try:
        parallel.ingest_batch(
            stream.times[:half], stream.items[:half], stream.counts[:half]
        )
        # Point query in the middle forces a merge; the pool stays
        # alive and keeps feeding afterwards.
        mid = int(stream.times[half - 1])
        assert parallel.point(3, 0, mid) is not None
        parallel.ingest_batch(
            stream.times[half:], stream.items[half:], stream.counts[half:]
        )
        end = int(stream.times[-1])
        for item in (0, 3, 6):
            assert parallel.point(item, 0, end) == serial.point(item, 0, end)
    finally:
        parallel.detach_workers()
    assert fingerprint(parallel) == fingerprint(serial)


PARALLEL_TYPES = tuple(
    name for name in sorted(FACTORIES) if FACTORIES[name]()._parallel_supported()
)


@pytest.mark.parametrize("name", PARALLEL_TYPES)
def test_one_record_batch_still_goes_to_the_pool(name):
    """The pool keeps precedence over the short-run scalar route: forked
    workers own state the master cannot see."""
    stream = fixed_stream(40)
    serial = FACTORIES[name]()
    serial.ingest_batch(stream.times, stream.items, stream.counts)
    parallel = parallel_twin(name, WORKER_WIDTHS[0])
    try:
        for lo in range(len(stream)):
            parallel.ingest_batch(
                stream.times[lo : lo + 1],
                stream.items[lo : lo + 1],
                stream.counts[lo : lo + 1],
            )
            assert parallel._pool is not None and parallel._pool_stale
    finally:
        parallel.detach_workers()
    assert fingerprint(parallel) == fingerprint(serial)


def test_set_workers_validates_and_reports():
    sketch = FACTORIES["PLA_CM"]()
    assert sketch.workers == 1
    sketch.set_workers(3)
    assert sketch.workers == 3
    with pytest.raises(ValueError, match="workers"):
        sketch.set_workers(0)
    with pytest.raises(ValueError, match="workers"):
        FACTORIES["PLA_CM"]().__class__(width=8, depth=1, delta=5, workers=0)


# --------------------------------------------------------------------- #
# Worker death: transparent healing, bit-identical results, durable WAL
# --------------------------------------------------------------------- #


def _kill_first_worker(sketch):
    pid = sketch._pool.pids[0]
    os.kill(pid, signal.SIGKILL)
    # The pool notices the death through the pipe; give the kernel a
    # beat to reap so the next roundtrip sees EOF, not a partial read.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)


def test_worker_death_heals_bit_identically():
    """A SIGKILL'd worker is respawned and its batches replayed: the
    sketch keeps ingesting and stays bit-identical to its serial twin."""
    times = np.arange(1, 301, dtype=np.int64)
    items = (times % 16).astype(np.int64)
    serial = FACTORIES["PLA_CM"]()
    serial.ingest_batch(times[:200], items[:200])

    sketch = parallel_twin("PLA_CM", 2)
    try:
        sketch.ingest_batch(times[:100], items[:100])
        _kill_first_worker(sketch)
        # The pool notices the corpse on the next roundtrip, respawns
        # the slot and replays the journaled feed — no error, no loss.
        sketch.ingest_batch(times[100:200], items[100:200])
        assert sketch._pool.respawns >= 1
        # Compare at the *same* ingest position (PLA interpolation at a
        # timestamp legitimately shifts once later points fold in).
        assert sketch.point(3, 0, 200) == serial.point(3, 0, 200)
        sketch.ingest_batch(times[200:], items[200:])
        serial.ingest_batch(times[200:], items[200:])
        assert sketch.point(3, 0, 300) == serial.point(3, 0, 300)
    finally:
        sketch.detach_workers()
    assert fingerprint(sketch) == fingerprint(serial)


def test_worker_death_in_runtime_heals_and_stays_durable(tmp_path):
    raws = make_raws(n=200, dirty=False)
    twin = IngestRuntime.create(
        tmp_path / "twin", make_store(), checkpoint_every=75
    )
    for lo in range(0, len(raws), 50):
        twin.ingest_batch(raws[lo : lo + 50])

    victim = IngestRuntime.create(
        tmp_path / "victim", make_store(), checkpoint_every=75, workers=2
    )
    victim.ingest_batch(raws[:50])
    victim.ingest_batch(raws[50:100])
    # Kill a worker of one parallel sketch, then keep ingesting: the
    # pool heals the slot (respawn + journal replay) so the batch both
    # frames into the WAL *and* applies — no poisoning, no divergence.
    sketches = [
        entry
        for entry in victim.store._sketches()
        if getattr(entry, "_pool", None) is not None
    ]
    assert sketches, "parallel ingest should have forked at least one pool"
    pool = sketches[0]._pool
    _kill_first_worker(sketches[0])
    victim.ingest_batch(raws[100:150])
    assert pool.respawns >= 1
    victim.ingest_batch(raws[150:])
    assert wal_bytes(victim), "WAL must survive the worker death"
    victim.store.drain_workers()
    assert victim.applied_seq == twin.applied_seq
    assert victim._clocks == twin._clocks
    assert store_state(victim) == store_state(twin)
    victim.close()

    # And the on-disk state recovers to the same answers regardless.
    recovered = IngestRuntime.recover(tmp_path / "victim", checkpoint_every=75)
    assert recovered.applied_seq == twin.applied_seq
    assert store_state(recovered) == store_state(twin)


# --------------------------------------------------------------------- #
# Simulated crash in the middle of a parallel batch
# --------------------------------------------------------------------- #


@pytest.mark.faults
@pytest.mark.parametrize(
    "plan, durable",
    [
        (FaultPlan(crash_before_record=83), 82),
        (FaultPlan(torn_write_at_record=83), 82),
        (FaultPlan(crash_after_record=83), 100),
    ],
)
def test_crash_mid_parallel_batch_recovers_like_serial(tmp_path, plan, durable):
    raws = make_raws(n=150, dirty=False)
    twin = IngestRuntime.create(
        tmp_path / "twin", make_store(), checkpoint_every=60
    )
    for lo in range(0, len(raws), 50):
        twin.ingest_batch(raws[lo : lo + 50])

    victim = IngestRuntime.create(
        tmp_path / "victim",
        make_store(),
        checkpoint_every=60,
        faults=plan,
        sleep=lambda _t: None,
        workers=2,
    )
    with pytest.raises(SimulatedCrash):
        for lo in range(0, len(raws), 50):
            victim.ingest_batch(raws[lo : lo + 50])
    victim.close()

    recovered = IngestRuntime.recover(
        tmp_path / "victim", checkpoint_every=60, workers=2
    )
    assert recovered.applied_seq == durable
    recovered.ingest_batch(raws[recovered.applied_seq :])
    recovered.store.drain_workers()

    assert recovered.applied_seq == twin.applied_seq
    assert recovered._clocks == twin._clocks
    assert store_state(recovered) == store_state(twin)


# --------------------------------------------------------------------- #
# Frozen engine: freeze after parallel ingest, scalar fast path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", FREEZABLE)
def test_parallel_freeze_and_fanout_bit_equal(name):
    stream = build_stream([(i % 11, 1, 1) for i in range(160)])
    serial_sketch = FACTORIES[name]()
    scalar_ingest(serial_sketch, stream)
    serial_frozen = freeze(serial_sketch)

    parallel_sketch = parallel_twin(name, max(WORKER_WIDTHS))
    parallel_sketch.ingest(stream, batch_size=64)
    parallel_frozen = freeze(parallel_sketch)

    end = int(stream.times[-1])
    items = np.tile(np.arange(11, dtype=np.int64), 4)
    windows = [(0, end), (end // 3, 2 * end // 3)] * (len(items) // 2)
    got = parallel_frozen.point_many(items, windows)
    want = serial_frozen.point_many(items, windows)
    np.testing.assert_array_equal(got, want)
    # Scalar fast path answers exactly like the serial snapshot.
    for item in (0, 5, 10):
        for s, t in ((0, end), (end // 3, 2 * end // 3)):
            assert parallel_frozen.point(item, s, t) == serial_frozen.point(
                item, s, t
            )


"""The row kernel and the bulk close, with contracts off.

The suite runs with contracts on, and then every point goes through
``OnlinePLA.feed`` and every run closes through ``finalize``, so these
tests build and feed everything under ``contracts.enforced(False)``:

- :func:`repro.pla.orourke.feed_runs` leaves the state per-point ``feed``
  leaves, tracker by tracker and row by row of the shared log, raises
  included;
- :meth:`ColumnLog.finalize_open` closes a PLA log's open runs exactly as
  per-tracker ``finalize`` calls in ``open`` order do;
- a store pass in ``ingest_durable``'s shape (same-stream blocks, saves
  between them) equals the scalar ``SketchStore.update`` reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import contracts
from repro.persistence.column_log import PLA, ColumnLog
from repro.pla.orourke import OnlinePLA, feed_runs
from repro.store import SketchStore, StreamSpec
from repro.streams.generators import zipf_stream
from tests.test_batch_ingest import (
    _kernel_points,
    _outcome,
    _pla_holds_no_numpy_scalars,
    fingerprint,
    pla_stretches,
)

#: What a tracker has seen before the row: nothing, one point, several
#: points (a run mid-way, or several runs), or a run then a close.
PREFIXES = ("fresh", "one", "mid", "closed")

tracker_cases = st.lists(
    st.tuples(
        pla_stretches,
        st.sampled_from(PREFIXES),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=1,
    max_size=6,
)


def _log_state(log):
    return (
        log.keys.tolist(),
        [column.tolist() for column in log.columns],
        list(log.open),
        log.component_keys.tolist(),
    )


def _row(cases, floats, delta, long_at):
    """Trackers of one shared log, each fed its prefix, and the row that
    follows: ``(trackers, log, runs)`` with ``runs[g]`` the points of
    tracker ``g``'s run."""
    log = ColumnLog(PLA)
    trackers, runs = [], []
    for key, (stretches, prefix, seed) in enumerate(cases):
        if key == long_at:
            stretches = [(300, 1, 1, 0)] + stretches
        times, values = _kernel_points(stretches, floats, 0, 0, seed)
        head = {"fresh": 0, "one": 1}.get(prefix, len(times) // 2)
        head = min(head, len(times) - 1)
        tracker = OnlinePLA(delta, 0.0, log, key)
        for t, v in zip(times[:head], values[:head]):
            tracker.feed(t, v)
        if prefix == "closed":
            tracker.finalize()
        trackers.append(tracker)
        runs.append((times[head:], values[head:]))
    return trackers, log, runs


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cases=tracker_cases,
    floats=st.booleans(),
    delta=st.sampled_from([1.0, 2.0, 0.75]),
    long_at=st.integers(min_value=-1, max_value=5),
    bad=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 40), st.integers(0, 2)),
)
def test_feed_runs_matches_feed(cases, floats, delta, long_at, bad):
    """One ``feed_runs`` call over a row equals per-point ``feed`` run by
    run: fresh, one-point, mid-run and closed trackers, breaks, a long
    run between short ones, and a time that does not increase, which
    raises ``feed``'s error with the points before it kept."""
    with contracts.enforced(False):
        reference, reference_log, runs = _row(cases, floats, delta, long_at)
        kernel, kernel_log, _ = _row(cases, floats, delta, long_at)
        if bad is not None:
            g, k, back = bad
            g = g % len(runs)
            times = runs[g][0]
            k = k % len(times)
            previous = times[k - 1] if k else times[0] - 1
            times[k] = previous - back
        bounds = [0]
        times, values = [], []
        for run_times, run_values in runs:
            times += run_times
            values += run_values
            bounds.append(len(times))

        def per_point():
            for tracker, (run_times, run_values) in zip(reference, runs):
                for t, v in zip(run_times, run_values):
                    tracker.feed(t, v)

        expected = _outcome(per_point)
        got = _outcome(lambda: feed_runs(kernel, bounds, times, values))
    assert got == expected
    assert [fingerprint(t) for t in kernel] == [fingerprint(t) for t in reference]
    assert _log_state(kernel_log) == _log_state(reference_log)
    for tracker in kernel:
        _pla_holds_no_numpy_scalars(tracker)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cases=tracker_cases,
    floats=st.booleans(),
    misordered=st.integers(min_value=-1, max_value=5),
)
def test_bulk_close_matches_finalize(cases, floats, misordered):
    """``finalize_open`` on a PLA log gives the rows, row order, tracker
    state and open set of per-tracker ``finalize`` in ``open`` order.

    One tracker may reopen before its last row, so that its close
    raises: it closes through ``finalize`` in its place, after the runs
    before it and with the runs after it left open."""

    def build():
        log = ColumnLog(PLA)
        trackers = []
        # A "mid" tracker closes and reopens, which moves it to the end
        # of ``open``.
        for key, (stretches, prefix, seed) in enumerate(cases):
            tracker = OnlinePLA(2.0, 0.0, log, key)
            times, values = _kernel_points(stretches, floats, 0, 0, seed)
            cut = len(times) // 2 if prefix == "mid" else 0
            for t, v in zip(times[:cut], values[:cut]):
                tracker.feed(t, v)
            if cut:
                tracker.finalize()
            if key == misordered and cut:
                tracker.feed(times[0] - 1, values[0])
            elif prefix != "fresh":
                for t, v in zip(times[cut:], values[cut:]):
                    tracker.feed(t, v)
            trackers.append(tracker)
        return log, trackers

    with contracts.enforced(False):
        bulk_log, bulk = build()
        each_log, each = build()
        expected = _outcome(
            lambda: [tracker.finalize() for tracker in list(each_log.open.values())]
        )
        got = _outcome(bulk_log.finalize_open)
    assert got == expected
    assert [fingerprint(t) for t in bulk] == [fingerprint(t) for t in each]
    assert _log_state(bulk_log) == _log_state(each_log)


def test_store_pass_matches_scalar_reference(tmp_path):
    """An ``ingest_durable``-shaped pass through ``update_batch`` (two
    streams in alternating same-stream blocks, a save every few blocks)
    equals the scalar ``SketchStore.update`` loop with the same saves:
    every sketch's rows per component and every answer."""

    def store():
        made = SketchStore(width=32, depth=3, join_width=32, seed=7)
        made.create(
            StreamSpec(
                "urls", delta=5, universe=2**10, heavy_hitters=True, joinable=True
            )
        )
        made.create(StreamSpec("clients", delta=5, joinable=True))
        return made

    block, blocks, save_every = 150, 24, 5
    per_stream = block * blocks // 2
    sources = {
        "urls": zipf_stream(per_stream, universe=2**10, exponent=1.2, seed=3).items,
        "clients": zipf_stream(per_stream, universe=2**20, exponent=1.5, seed=4).items,
    }
    with contracts.enforced(False):
        batched, scalar = store(), store()
        t = 0
        for b in range(blocks):
            name = ("urls", "clients")[b % 2]
            lo = b // 2 * block
            items = sources[name][lo : lo + block].astype(np.int64)
            times = np.arange(t + 1, t + 1 + block, dtype=np.int64)
            t += block
            batched.update_batch(name, times, items, np.ones(block, dtype=np.int64))
            for time, item in zip(times.tolist(), items.tolist()):
                scalar.update(name, item, 1, time)
            if (b + 1) % save_every == 0:
                batched.save(tmp_path / f"batched-{b}")
                scalar.save(tmp_path / f"scalar-{b}")
        for name in ("urls", "clients"):
            assert [fingerprint(s) for s in batched._state(name).sketches()] == [
                fingerprint(s) for s in scalar._state(name).sketches()
            ]
        rng = np.random.default_rng(5)
        for name in ("urls", "clients"):
            end = batched.clock(name)
            for s in [0, *rng.integers(1, end, size=3).tolist()]:
                for item in sources[name][:8].tolist():
                    assert batched.point(name, item, s, end) == scalar.point(
                        name, item, s, end
                    )
                assert batched.self_join_size(name, s, end) == scalar.self_join_size(
                    name, s, end
                )
            if name == "urls":
                hitters = batched.heavy_hitters(name, 0.02, 0, end)
                assert hitters == scalar.heavy_hitters(name, 0.02, 0, end)

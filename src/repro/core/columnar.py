"""Shared helpers for the columnar batch ingestion planner.

The batch plan every tracked sketch follows: a stable sort of one row's
updates by column turns the row's time-ordered update sequence into
per-counter runs; each counter's value sequence within its run is just
``base + cumsum(counts)``, so the whole row needs one global cumsum and
one pass over the runs.  Because counters (and their trackers/history
lists) are independent of each other, feeding each counter its complete
run in time order is bit-identical to interleaved scalar feeding.

These helpers live in :mod:`repro.core` (not :mod:`repro.engine`) so the
sketches' ``_ingest_batch`` implementations can use them without an
import cycle; the engine's :func:`repro.engine.batch.batch_ingest` is a
thin wrapper over the sketch-level API.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.persistence.tracker import CounterTracker

#: Per-counter in-batch run length from which a run is handed to its
#: tracker as integer numpy columns, the fused ``feed_many`` path;
#: shorter runs go as Python lists to the run kernel.  Unit-count runs
#: stay inside the PLA tube, so the fused setup only pays for itself on
#: deep runs: ``benchmarks/micro_run_cutover.py`` times both hand-offs,
#: and on rows of equal-length unit-count runs the kernel is ahead or
#: level through length 768 and the fused path wins from 1024 on.
LONG_RUN_MIN = 1024


def run_bounds(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the equal-key runs of a sorted array, as
    int64 arrays; together the runs cover the whole array."""
    edges = np.empty(len(sorted_keys) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return bounds[:-1], bounds[1:]


def run_values(
    bases: np.ndarray,
    sorted_counts: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Counter value after each update, for all equal-key runs at once.

    ``starts``/``ends`` are the runs of :func:`run_bounds`, and
    ``bases[g]`` is the counter's value before the first update of run
    ``g``.  Within each run the value sequence is ``base + cumsum`` of
    the run's counts; computed with one global cumsum plus a per-run
    offset correction, so no per-run numpy calls are needed.
    """
    csum = np.cumsum(sorted_counts)
    if len(starts):
        # The global cumsum before each run's first update.
        before = csum[starts] - sorted_counts[starts]
        csum += np.repeat(bases - before, ends - starts)
    return csum


def feed_tracked_row(
    counters: list[int],
    trackers: dict[int, CounterTracker],
    row_cols: np.ndarray,
    times: np.ndarray,
    counts: np.ndarray,
    make_tracker: Callable[[int], CounterTracker],
) -> None:
    """Apply one row's updates: group by column, feed trackers per run.

    Every update feeds its column's tracker (count 0 included, exactly
    like the scalar path); ``make_tracker(col)`` creates and registers a
    missing one.  One stable argsort turns the row into per-counter
    runs and one :func:`run_values` gives every counter value; each run
    then goes to its tracker in one ``feed_many`` call — as integer
    numpy columns from :data:`LONG_RUN_MIN` on (the fused path), as
    Python lists below it (the run kernel), so the recorded state holds
    Python scalars and matches scalar feeding bit-for-bit.  A one-update
    run is one ``feed`` call: a kernel call would only add the loading
    and storing of the run state around it.
    """
    if row_cols.shape[0] == 0:
        return
    order = np.argsort(row_cols, kind="stable")
    sorted_cols = row_cols[order]
    starts, ends = run_bounds(sorted_cols)
    col_list = sorted_cols[starts].tolist()
    bases = np.array([counters[col] for col in col_list], dtype=np.int64)
    values = run_values(bases, counts[order], starts, ends)
    sorted_times = times[order]
    time_list = sorted_times.tolist()
    value_list = values.tolist()
    for col, lo, hi in zip(col_list, starts.tolist(), ends.tolist()):
        tracker = trackers.get(col)
        if tracker is None:
            tracker = make_tracker(col)
        if hi - lo == 1:
            tracker.feed(time_list[lo], value_list[lo])
        elif hi - lo >= LONG_RUN_MIN:
            tracker.feed_many(sorted_times[lo:hi], values[lo:hi])
        else:
            tracker.feed_many(time_list[lo:hi], value_list[lo:hi])
        counters[col] = value_list[hi - 1]

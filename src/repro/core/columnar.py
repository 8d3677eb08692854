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


def group_slices(sorted_keys: np.ndarray) -> list[tuple[int, int]]:
    """``(start, end)`` index pairs of equal-key runs in a sorted array."""
    if len(sorted_keys) == 0:
        return []
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_keys)]))
    return list(zip(starts.tolist(), ends.tolist()))


def run_values(
    bases: np.ndarray,
    sorted_counts: np.ndarray,
    slices: list[tuple[int, int]],
) -> np.ndarray:
    """Counter value after each update, for all equal-key runs at once.

    ``bases[g]`` is the counter's value before the first update of run
    ``g``.  Within each run the value sequence is ``base + cumsum`` of
    the run's counts; computed with one global cumsum plus a per-run
    offset correction, so no per-run numpy calls are needed.  Positions
    before the first run (updates excluded from every run, sorted to the
    front) keep meaningless values — callers only read run positions.
    """
    csum = np.cumsum(sorted_counts)
    values = csum.copy()
    if slices:
        prev = np.concatenate(([0], csum[:-1]))
        starts = np.array([lo for lo, _hi in slices], dtype=np.int64)
        sizes = np.array([hi - lo for lo, hi in slices], dtype=np.int64)
        first = slices[0][0]
        values[first:] += np.repeat(bases - prev[starts], sizes)
    return values


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
    slices = group_slices(sorted_cols)
    col_list = sorted_cols.tolist()
    bases = np.array(
        [counters[col_list[lo]] for lo, _hi in slices], dtype=np.int64
    )
    values = run_values(bases, counts[order], slices)
    sorted_times = times[order]
    time_list = sorted_times.tolist()
    value_list = values.tolist()
    for lo, hi in slices:
        col = col_list[lo]
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

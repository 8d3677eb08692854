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

from collections.abc import Sequence
from typing import Any, Callable

import numpy as np

from repro.persistence.tracker import CounterTracker
from repro.pla import orourke

#: A recorder's row feed: ``feed_runs(trackers, bounds, times, values)``
#: feeds ``times/values[bounds[g]:bounds[g + 1]]`` to ``trackers[g]``.
FeedRuns = Callable[[Sequence[Any], Sequence[int], list[int], list[Any]], None]

#: Per-counter in-batch run length from which a run is handed to its
#: tracker as integer numpy columns, the fused ``feed_many`` path;
#: shorter runs go as Python lists to the row kernel.  Unit-count runs
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
    feed_runs: FeedRuns = orourke.feed_runs,
) -> None:
    """Apply one row's updates: group by column, feed trackers per run.

    Every update feeds its column's tracker (count 0 included, exactly
    like the scalar path); ``make_tracker(col)`` creates and registers a
    missing one, in run order.  One stable argsort turns the row into
    per-counter runs and one :func:`run_values` gives every counter
    value.  The runs then go to their trackers in column order: runs of
    :data:`LONG_RUN_MIN` updates or more one ``feed_many`` call each,
    as integer numpy columns (the fused path), and every stretch of
    shorter runs between them one ``feed_runs`` call (for PLA trackers
    the row kernel :func:`repro.pla.orourke.feed_runs`) over Python
    lists, so the recorded state holds Python scalars and matches scalar
    feeding bit-for-bit.
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
    run_trackers = [trackers.get(col) for col in col_list]
    if None in run_trackers:
        for g, tracker in enumerate(run_trackers):
            if tracker is None:
                run_trackers[g] = make_tracker(col_list[g])
    bounds = starts.tolist()
    bounds.append(len(sorted_cols))
    time_list = sorted_times.tolist()
    value_list = values.tolist()
    first = 0
    for g in np.flatnonzero(ends - starts >= LONG_RUN_MIN).tolist():
        if g > first:
            feed_runs(
                run_trackers[first:g], bounds[first : g + 1], time_list, value_list
            )
        lo, hi = bounds[g], bounds[g + 1]
        run_trackers[g].feed_many(sorted_times[lo:hi], values[lo:hi])
        first = g + 1
    if first < len(run_trackers):
        feed_runs(run_trackers[first:], bounds[first:], time_list, value_list)
    for col, value in zip(col_list, values[ends - 1].tolist()):
        counters[col] = value

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

#: Update-weighted mean run length (``sum(c_i^2) / n`` over the row's
#: per-column multiplicities) below which the per-row columnar plan
#: costs more than it saves and :func:`feed_tracked_row` falls back to
#: the scalar loop.  The *weighted* mean is the statistic that matters:
#: the columnar win is concentrated in the long runs that reach the
#: fused ``feed_many`` path, so a skewed row with a few hot counters
#: must stay columnar even when the plain mean run length is ~1
#: (ClientID rows weigh in at ~10, ObjectID in the hundreds — both
#: columnar; only near-uniform singleton-run rows fall back).  On a
#: uniform row the weighted mean is the plain mean + 1, so the cutover
#: is calibrated by ``benchmarks/micro_run_cutover.py`` (see
#: EXPERIMENTS.md): the scalar loop is up to ~10% faster through
#: weighted run length ~3.5, the two bodies trade within noise above
#: it on uniform rows, and skewed real rows above the cutover win
#: decisively end-to-end (ClientID ~1.4x) because their hot counters
#: reach the fused deep-run path the uniform sweep only hits at
#: weighted ~1000 (1.75x there).
SHORT_RUN_CUTOVER = 4.0

#: Per-counter in-batch run length at which a run is routed to the
#: columnar body (argsort + fused ``feed_many``) instead of the scalar
#: replay.  Empirically the fused hull path only wins on *deep* runs:
#: the ``micro_run_cutover`` sweep shows it trading slightly below
#: scalar through run length ~64 (unit-count runs stay inside the PLA
#: tube, so the vectorized setup buys little) and winning outright by
#: ~1k, and a per-workload sweep of this threshold puts the crossover
#: in the low hundreds.  Runs below it feed scalar — that is exactly
#: the tiny-run regime that made ObjectID batches *slower* than the
#: scalar loop (BENCH_ingest.json pre-v4).  Because each counter's
#: updates are wholly long or wholly short within a batch, partitioning
#: by run length keeps every counter's complete run in time order and
#: the hybrid stays bit-identical to the scalar reference.
LONG_RUN_MIN = 256


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
    missing one.  Runs are handed over as integer numpy
    columns: trackers with a fused batch path consume them directly,
    the rest convert back to Python scalars so the recorded state
    matches scalar feeding bit-for-bit.

    When the row's update-weighted mean run length falls below
    :data:`SHORT_RUN_CUTOVER` — the near-uniform high-cardinality
    regime where nearly every run is a singleton and no run reaches the
    fused tracker path — the argsort/slicing setup is skipped entirely
    and the row replays through the scalar per-update loop, which is
    the bit-identical reference path by construction.

    Above the cutover the row is *partitioned by run depth*
    (:data:`LONG_RUN_MIN`): counters whose in-batch run is deep enough
    for the fused hull path go through the columnar plan, every other
    update replays scalar.  A counter's run length is a property of the
    whole batch, so each counter lands wholly on one side and still
    receives its complete run in time order — the hybrid is
    bit-identical to the scalar reference by counter independence.
    This is what fixes the mixed-regime workloads (ObjectID: a few hot
    counters with deep runs over a long singleton tail) where a single
    whole-row dispatch had to lose on one half, and it keeps rows with
    *no* fusable run (ClientID) off the argsort entirely.
    """
    n = row_cols.shape[0]
    if n == 0:
        return
    per_col = np.bincount(row_cols)
    weighted = float(np.square(per_col).sum()) / n
    if weighted < SHORT_RUN_CUTOVER or int(per_col.max()) < LONG_RUN_MIN:
        _feed_row_scalar(
            counters, trackers, row_cols, times, counts, make_tracker
        )
        return
    long_mask = per_col[row_cols] >= LONG_RUN_MIN
    if bool(long_mask.all()):
        _feed_row_columnar(
            counters, trackers, row_cols, times, counts, make_tracker
        )
        return
    short_mask = ~long_mask
    _feed_row_columnar(
        counters,
        trackers,
        row_cols[long_mask],
        times[long_mask],
        counts[long_mask],
        make_tracker,
    )
    _feed_row_scalar(
        counters,
        trackers,
        row_cols[short_mask],
        times[short_mask],
        counts[short_mask],
        make_tracker,
    )


def _feed_row_columnar(
    counters: list[int],
    trackers: dict[int, CounterTracker],
    row_cols: np.ndarray,
    times: np.ndarray,
    counts: np.ndarray,
    make_tracker: Callable[[int], CounterTracker],
) -> None:
    """The columnar body: stable argsort, run extraction, per-run feeds.

    Run hand-off is dispatched per run length: runs that reach
    :data:`LONG_RUN_MIN` are handed over as integer numpy columns (the
    fused tracker path consumes them in bulk), shorter runs replay
    through scalar ``feed`` from the pre-unboxed Python lists — the
    counter values are already precomputed by the global cumsum, so a
    short run pays one dict lookup and plain ``feed`` calls instead of
    per-run array slicing and ``feed_many`` dispatch that never reaches
    the fused path anyway.  Both hand-offs are bit-identical to scalar
    feeding (fused by construction, scalar trivially).
    """
    order = np.argsort(row_cols, kind="stable")
    sorted_cols = row_cols[order]
    slices = group_slices(sorted_cols)
    bases = np.array(
        [counters[int(sorted_cols[lo])] for lo, _hi in slices],
        dtype=np.int64,
    )
    values = run_values(bases, counts[order], slices)
    sorted_times = times[order]
    col_list = sorted_cols.tolist()
    time_list = sorted_times.tolist()
    value_list = values.tolist()
    for lo, hi in slices:
        col = col_list[lo]
        tracker = trackers.get(col)
        if tracker is None:
            tracker = make_tracker(col)
        if hi - lo >= LONG_RUN_MIN:
            tracker.feed_many(sorted_times[lo:hi], values[lo:hi])
        else:
            for k in range(lo, hi):
                tracker.feed(time_list[k], value_list[k])
        counters[col] = value_list[hi - 1]


def _feed_row_scalar(
    counters: list[int],
    trackers: dict[int, CounterTracker],
    row_cols: np.ndarray,
    times: np.ndarray,
    counts: np.ndarray,
    make_tracker: Callable[[int], CounterTracker],
) -> None:
    """Per-update replay of one row: the scalar reference path.

    Used below the run-length cutover, where runs are too short for the
    columnar setup to amortize.  ``tracker.feed`` is exactly what scalar
    ``update()`` calls, so this path is bit-identical by construction.
    """
    for col, t, value_change in zip(  # sketchlint: disable=SL010 — short-run regime, scalar is the fast path here
        row_cols.tolist(), times.tolist(), counts.tolist()
    ):
        value = counters[col] + value_change
        counters[col] = value
        tracker = trackers.get(col)
        if tracker is None:
            tracker = make_tracker(col)
        tracker.feed(t, value)


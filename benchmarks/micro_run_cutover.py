"""Micro-benchmark of ``repro.core.columnar.feed_tracked_row``.

``feed_tracked_row`` has one body: a stable argsort turns a row's
updates into per-counter runs, and the runs go to their trackers in
column order — each run of ``LONG_RUN_MIN`` updates or more in one
``feed_many`` call as integer numpy columns (the fused path), every
stretch of shorter runs in one call of the row kernel
``repro.pla.orourke.feed_runs`` as Python lists.

The ``ratios`` leg times that body against the per-update reference,
one ``tracker.feed`` per update as scalar ``update()`` feeds it, on
synthetic single-row workloads whose mean run length sweeps from
singletons (ratio 1) to deep runs (ratio 1024).  The ``handoff`` leg
places ``LONG_RUN_MIN``: on rows of equal-length unit-count runs it
times the body with every run pinned to each hand-off (``LONG_RUN_MIN``
set to infinity or 0).  Every timed path must leave the same counters
and the same rows and pending segment per tracker.

The ``run_length`` leg measures the cutoff one level up,
``_SCALAR_RUN_MAX`` in ``repro.core.base``: whole-store
``SketchStore.update_batch`` with the short-run route pinned off (the
columnar plan at every length), the committed routed ``update_batch``,
and the scalar ``SketchStore.update`` loop, on the served store shape
(a heavy-hitter, joinable ObjectID stream after a 1,000-record preload)
at same-stream run lengths 1-256.  It reports the median and quartiles
of per-record cost and asserts the three twin stores end equal.

Results are written to ``BENCH_run_cutover.json`` at the repo root
(schema documented in EXPERIMENTS.md).  Scale with
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
from conftest import cpu_header, run_once

from repro.core import base, columnar
from repro.eval import harness
from repro.eval.reporting import report
from repro.io.serialize import to_dict
from repro.persistence.column_log import PLA, ColumnLog
from repro.pla.orourke import OnlinePLA
from repro.store import SketchStore, StreamSpec
from repro.streams.worldcup import object_id_stream

DELTA = 50.0

#: Mean run lengths (updates per distinct column).  Ratio 1 is the
#: uniform singleton-run regime, 2-64 the short runs the kernel walks,
#: and 1024 the deep-run regime (Zipf hot counters, thousands of
#: updates per run) where the fused path takes over.
RATIOS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 32.0, 64.0, 1024.0)

#: Run lengths of the ``handoff`` leg, bracketing ``LONG_RUN_MIN``.
HANDOFF_LENGTHS = (256, 512, 768, 1024, 1536, 2048)

#: Timing repetitions per path; the minimum is reported (scheduler noise
#: only ever inflates a run, and the minimum hits every path equally).
REPS = 9

#: Repo-root output consumed by EXPERIMENTS.md.
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_run_cutover.json"


def _tracker_maker(trackers: dict[int, OnlinePLA]):
    """``make_tracker`` for one row: each counter a PLA tracker keyed by
    its column in one shared log."""
    log = ColumnLog(PLA)

    def make(col: int) -> OnlinePLA:
        tracker = trackers[col] = OnlinePLA(DELTA, 0.0, log, col)
        return tracker

    return make


def feed_row_per_update(counters, trackers, row_cols, times, counts, make_tracker):
    """The per-update reference: one ``tracker.feed`` per update, as
    scalar ``update()`` feeds it."""
    for col, t, value_change in zip(
        row_cols.tolist(), times.tolist(), counts.tolist()
    ):
        value = counters[col] + value_change
        counters[col] = value
        tracker = trackers.get(col)
        if tracker is None:
            tracker = make_tracker(col)
        tracker.feed(t, value)


def _row_workload(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One hash row's updates with mean run length ``ratio``."""
    distinct = max(1, round(n / ratio))
    rng = np.random.default_rng(harness.BENCH_SEED)
    row_cols = rng.integers(0, distinct, size=n).astype(np.int64)
    times = np.arange(1, n + 1, dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    return row_cols, times, counts, distinct


def _equal_runs_workload(n: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One hash row of ``n // length`` counters with ``length`` updates
    each, interleaved at random."""
    distinct = max(1, n // length)
    rng = np.random.default_rng(harness.BENCH_SEED)
    row_cols = np.repeat(np.arange(distinct, dtype=np.int64), length)
    rng.shuffle(row_cols)
    times = np.arange(1, len(row_cols) + 1, dtype=np.int64)
    counts = np.ones(len(row_cols), dtype=np.int64)
    return row_cols, times, counts, distinct


def _feed_once(feed, long_run_min, row_cols, times, counts, distinct):
    """One timed row feed on fresh trackers, with ``columnar.LONG_RUN_MIN``
    pinned to ``long_run_min``; returns the time, the final counters and
    each tracker's rows and pending segment."""
    counters = [0] * distinct
    trackers: dict[int, OnlinePLA] = {}
    make_tracker = _tracker_maker(trackers)
    with mock.patch.object(columnar, "LONG_RUN_MIN", long_run_min):
        gc.collect()
        start = time.perf_counter()
        feed(counters, trackers, row_cols, times, counts, make_tracker)
        elapsed = time.perf_counter() - start
    state = [
        (col, tracker.log.rows(tracker), tracker.pending())
        for col, tracker in sorted(trackers.items())
    ]
    return elapsed, [counters, state]


def _time_paths(paths, workload, what: str) -> dict[str, float]:
    """Best-of-``REPS`` time of each ``(name, feed, long_run_min)`` path
    on one row.  The paths take turns going first, so warm-up and
    allocator state favour none; every path must leave the state of the
    per-update reference."""
    row_cols, times, counts, distinct = workload
    seconds = {name: float("inf") for name, _feed, _pin in paths}
    states = {}
    order = list(paths)
    for _ in range(REPS):
        for name, feed, long_run_min in order:
            elapsed, states[name] = _feed_once(
                feed, long_run_min, row_cols, times, counts, distinct
            )
            seconds[name] = min(seconds[name], elapsed)
        order = order[1:] + order[:1]
    _, reference = _feed_once(
        feed_row_per_update, columnar.LONG_RUN_MIN,
        row_cols, times, counts, distinct,
    )
    for name, state in states.items():
        if state != reference:
            raise AssertionError(
                f"{what}: the {name} path diverged from the per-update "
                f"reference"
            )
    return seconds


def _bench_ratio(n: int, ratio: float) -> dict:
    workload = _row_workload(n, ratio)
    row_cols, distinct = workload[0], workload[3]
    per_col = np.bincount(row_cols)
    seconds = _time_paths(
        (
            ("scalar", feed_row_per_update, columnar.LONG_RUN_MIN),
            ("columnar", columnar.feed_tracked_row, columnar.LONG_RUN_MIN),
        ),
        workload,
        f"ratio {ratio}",
    )
    return {
        "updates": n,
        "distinct": distinct,
        "mean_run": n / distinct,
        "weighted_run": float(np.square(per_col).sum()) / n,
        "equal": True,
        "scalar_s": seconds["scalar"],
        "columnar_s": seconds["columnar"],
        "columnar_speedup": seconds["scalar"] / seconds["columnar"],
    }


def _bench_handoff(n: int, length: int) -> dict:
    workload = _equal_runs_workload(n, length)
    seconds = _time_paths(
        (
            ("kernel", columnar.feed_tracked_row, float("inf")),
            ("fused", columnar.feed_tracked_row, 0),
        ),
        workload,
        f"run length {length}",
    )
    return {
        "counters": workload[3],
        "equal": True,
        "kernel_s": seconds["kernel"],
        "fused_s": seconds["fused"],
        "fused_over_kernel": seconds["fused"] / seconds["kernel"],
    }


def _measured_handoff_crossover(rows: dict) -> int | None:
    """First swept run length from which the fused hand-off stays at
    least as fast as the kernel's."""
    for length in HANDOFF_LENGTHS:
        if all(
            rows[str(k)]["fused_over_kernel"] <= 1.0
            for k in HANDOFF_LENGTHS
            if k >= length
        ):
            return length
    return None


# --------------------------------------------------------------------- #
# run_length leg: whole-store update_batch against the scalar loop
# --------------------------------------------------------------------- #

#: Same-stream run lengths swept across ``_SCALAR_RUN_MAX``.
RUN_LENGTHS = (1, 2, 4, 8, 16, 32, 48, 64, 65, 96, 128, 192, 256)

#: Records each run-length row feeds per path (``REPRO_BENCH_SCALE``
#: scales it, with harness's floor of 1000).
RUN_RECORDS = 2048

#: Preload before the sweep, so runs land on a warm store as they do in
#: the served runtime.
PRELOAD = 1000

#: The served store shape (``perfbench/common.py``): w = 256, d = 3,
#: Delta = 50, hash seed 7, and a compact ObjectID universe of 2^16.
STORE_SHAPE = {"width": 256, "depth": 3, "delta": 50.0, "seed": 7}
UNIVERSE = 2**16


def _make_store() -> SketchStore:
    store = SketchStore(
        width=STORE_SHAPE["width"],
        depth=STORE_SHAPE["depth"],
        join_width=STORE_SHAPE["width"],
        seed=STORE_SHAPE["seed"],
    )
    store.create(
        StreamSpec(
            "urls",
            delta=STORE_SHAPE["delta"],
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
        )
    )
    return store


def _store_state(store: SketchStore) -> str:
    """Serialized state of every sketch of the stream (finalizes open
    runs, identically on every twin)."""
    sketches = store._state("urls").sketches()
    return json.dumps([to_dict(sketch) for sketch in sketches], sort_keys=True)


def _quartiles(values: list[float]) -> dict:
    p25, p50, p75 = np.percentile(values, [25, 50, 75]).tolist()
    return {"p25_us": p25, "median_us": p50, "p75_us": p75}


def _measured_run_crossover(rows: dict) -> int | None:
    """First run length from which the columnar plan's median per-record
    cost stays at or below the scalar loop's."""
    for length in RUN_LENGTHS:
        if all(
            rows[str(k)]["columnar_over_scalar"] <= 1.0
            for k in RUN_LENGTHS
            if k >= length
        ):
            return length
    return None


def _bench_run_lengths() -> dict:
    per_length = harness.scaled(RUN_RECORDS)
    total = PRELOAD + per_length * len(RUN_LENGTHS)
    items = object_id_stream(total, seed=harness.BENCH_SEED).items
    _, items = np.unique(items, return_inverse=True)
    items = items.astype(np.int64)
    if int(items.max()) >= UNIVERSE:
        raise ValueError("compact ObjectID ids overflow the store universe")
    times = np.arange(1, total + 1, dtype=np.int64)
    counts = np.ones(total, dtype=np.int64)

    def columnar_batch(store, lo, hi):
        with mock.patch.object(base, "_SCALAR_RUN_MAX", 0):
            store.update_batch("urls", times[lo:hi], items[lo:hi], counts[lo:hi])

    def routed_batch(store, lo, hi):
        store.update_batch("urls", times[lo:hi], items[lo:hi], counts[lo:hi])

    def scalar_loop(store, lo, hi):
        for t, item in zip(times[lo:hi].tolist(), items[lo:hi].tolist()):
            store.update("urls", item, 1, t)

    paths = {
        "columnar": columnar_batch,
        "routed": routed_batch,
        "scalar": scalar_loop,
    }
    stores = {name: _make_store() for name in paths}
    for store in stores.values():
        routed_batch(store, 0, PRELOAD)
    rows = {}
    lo = PRELOAD
    for length in RUN_LENGTHS:
        samples: dict[str, list[float]] = {name: [] for name in paths}
        gc.collect()
        end = lo + per_length // length * length  # whole runs only
        order = list(paths)
        while lo < end:
            hi = lo + length
            for name in order:
                start = time.perf_counter()
                paths[name](stores[name], lo, hi)
                elapsed = time.perf_counter() - start
                samples[name].append(elapsed * 1e6 / (hi - lo))
            order = order[1:] + order[:1]  # rotate who goes first
            lo = hi
        rows[str(length)] = {
            "runs": len(samples["scalar"]),
            **{name: _quartiles(values) for name, values in samples.items()},
        }
    states = {name: _store_state(store) for name, store in stores.items()}
    equal = len(set(states.values())) == 1
    if not equal:
        raise AssertionError("columnar, routed and scalar stores diverged")
    for row in rows.values():
        row["equal"] = equal
        row["columnar_over_scalar"] = (
            row["columnar"]["median_us"] / row["scalar"]["median_us"]
        )
    return {
        "store": {**STORE_SHAPE, "universe": UNIVERSE},
        "preload": PRELOAD,
        "records_per_length": per_length,
        "measured_run_crossover": _measured_run_crossover(rows),
        "lengths": rows,
    }


def run_benchmark() -> dict:
    n = harness.scaled(32_768)
    results = {}
    rows = []
    for ratio in RATIOS:
        stats = _bench_ratio(n, ratio)
        results[f"{ratio:g}"] = stats
        rows.append(
            (
                f"{ratio:g}",
                round(stats["weighted_run"], 2),
                stats["distinct"],
                round(stats["scalar_s"] * 1e3, 2),
                round(stats["columnar_s"] * 1e3, 2),
                round(stats["columnar_speedup"], 2),
            )
        )
    handoff = {str(length): _bench_handoff(n, length) for length in HANDOFF_LENGTHS}
    run_length = _bench_run_lengths()
    payload = {
        "schema": "micro_run_cutover/v3",
        "scale": harness.bench_scale(),
        **cpu_header(),
        "updates": n,
        "delta": DELTA,
        "ratios": results,
        "committed_long_run_min": columnar.LONG_RUN_MIN,
        "measured_handoff_crossover": _measured_handoff_crossover(handoff),
        "handoff": handoff,
        "committed_run_max": base._SCALAR_RUN_MAX,
        "run_length": run_length,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report(
        f"Row feed: per-update loop vs feed_tracked_row (n={n}, "
        f"delta={DELTA})",
        [
            "mean run",
            "weighted run",
            "distinct",
            "scalar ms",
            "columnar ms",
            "columnar speedup",
        ],
        rows,
        json_name="micro_run_cutover",
    )
    report(
        f"Run hand-off: kernel (lists) vs fused (numpy) on equal-length "
        f"runs (committed LONG_RUN_MIN={columnar.LONG_RUN_MIN}, measured "
        f"crossover={payload['measured_handoff_crossover']})",
        ["run length", "counters", "kernel ms", "fused ms", "fused/kernel"],
        [
            (
                length,
                row["counters"],
                round(row["kernel_s"] * 1e3, 2),
                round(row["fused_s"] * 1e3, 2),
                round(row["fused_over_kernel"], 2),
            )
            for length, row in handoff.items()
        ],
        json_name="micro_run_handoff",
    )
    report(
        f"Short-run route: whole-store update_batch vs scalar update loop "
        f"(us/record, median [p25-p75], committed _SCALAR_RUN_MAX="
        f"{base._SCALAR_RUN_MAX}, measured crossover="
        f"{run_length['measured_run_crossover']})",
        ["run length", "runs", "columnar", "routed", "scalar"],
        [
            (
                length,
                row["runs"],
                *(
                    f"{row[name]['median_us']:.0f} "
                    f"[{row[name]['p25_us']:.0f}-{row[name]['p75_us']:.0f}]"
                    for name in ("columnar", "routed", "scalar")
                ),
            )
            for length, row in run_length["lengths"].items()
        ],
        json_name="micro_run_length",
    )
    return payload


def test_run_cutover(benchmark):
    payload = run_once(benchmark, run_benchmark)
    assert OUTPUT.exists()
    for stats in payload["ratios"].values():
        assert stats["equal"]
    for stats in payload["handoff"].values():
        assert stats["equal"]
    # The one row body must not lose to the per-update loop: within 10%
    # on singleton runs (the argsort is pure overhead there), ahead
    # once the row kernel walks runs of ~8,
    # and ahead outright in the deep-run regime where the fused tracker
    # path amortizes (runs of ~1k, the Zipf-hot-counter shape).
    assert payload["ratios"]["1"]["columnar_speedup"] > 0.9, (
        "the row body fell more than 10% behind the per-update loop "
        "on singleton runs"
    )
    assert payload["ratios"]["8"]["columnar_speedup"] > 1.15, (
        "the row kernel no longer beats the per-update loop at mean "
        "run length 8"
    )
    assert payload["ratios"]["1024"]["columnar_speedup"] > 1.2, (
        "scalar loop kept pace with the fused columnar path at mean "
        "run length 1024; the columnar plan has regressed"
    )
    lengths = payload["run_length"]["lengths"]
    for row in lengths.values():
        assert row["equal"]
    # One-record runs are the regime the short-run route exists for: the
    # columnar plan's per-call setup must still dwarf the scalar loop.
    assert lengths["1"]["columnar_over_scalar"] > 2.0, (
        "the columnar plan kept pace with the scalar loop on one-record "
        "runs; _SCALAR_RUN_MAX may be obsolete"
    )


if __name__ == "__main__":
    run_benchmark()

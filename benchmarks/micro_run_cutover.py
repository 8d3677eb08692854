"""Micro-benchmark behind ``SHORT_RUN_CUTOVER`` in ``repro.core.columnar``.

``feed_tracked_row`` has two bit-identical bodies: the columnar plan
(stable argsort, run extraction, one fused ``feed_many`` per counter)
and the scalar per-update loop.  Which one is faster depends on the
row's run-length profile — long runs amortize the sort and reach the
fused tracker path, singleton runs make the setup pure overhead.  The
dispatch statistic is the *update-weighted* mean run length
``sum(c_i^2) / n`` (on the uniform rows swept here it sits one above
the plain mean ``n / distinct``; on skewed rows it is dominated by the
hot counters, which is exactly where columnar must stay on).  This
benchmark times both bodies on synthetic single-row workloads whose
run length sweeps across the crossover, and pins
``SHORT_RUN_CUTOVER`` to the measured regime change in weighted terms.

Both paths are driven through the real ``feed_tracked_row`` entry point
by pinning the module cutover to 0 (always columnar) or infinity
(always scalar), so the timings include exactly the dispatch the
sketches pay.

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

#: Mean run lengths (updates per distinct column) swept across the
#: committed cutover.  Ratio 1 is the uniform singleton-run regime;
#: ratios 2-8 bracket the crossover (the two bodies run within ~10% of
#: each other there); 32/64 cross the fused ``feed_many`` threshold
#: (``_FUSED_MIN = 16``) but unit-count runs of that length stay inside
#: the PLA tube, so the fused setup cost can still lose mildly to
#: per-update feeding; 1024 is the deep-run regime (Zipf hot counters,
#: thousands of updates per run) where the fused path wins outright —
#: the regime the update-weighted dispatch statistic protects on
#: skewed real rows.
RATIOS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 32.0, 64.0, 1024.0)

#: Timing repetitions per path; the minimum is reported (scheduler noise
#: only ever inflates a run, and the minimum hits both paths equally).
REPS = 5

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


def _row_workload(n: int, ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One hash row's updates with mean run length ``ratio``."""
    distinct = max(1, round(n / ratio))
    rng = np.random.default_rng(harness.BENCH_SEED)
    row_cols = rng.integers(0, distinct, size=n).astype(np.int64)
    times = np.arange(1, n + 1, dtype=np.int64)
    counts = np.ones(n, dtype=np.int64)
    return row_cols, times, counts, distinct


def _time_path(
    cutover: float,
    row_cols: np.ndarray,
    times: np.ndarray,
    counts: np.ndarray,
    distinct: int,
) -> tuple[float, list[int], int]:
    """Best-of-``REPS`` wall time for one ``feed_tracked_row`` body.

    ``cutover`` pins the module threshold for the duration of the call:
    0 forces the columnar plan, ``inf`` forces the scalar loop.  Returns
    the final counters and total tracker words alongside the time so the
    caller can gate that both bodies produced the same state.
    """
    saved = columnar.SHORT_RUN_CUTOVER
    columnar.SHORT_RUN_CUTOVER = cutover
    try:
        best = float("inf")
        counters: list[int] = []
        trackers: dict[int, OnlinePLA] = {}
        for _ in range(REPS):
            counters = [0] * distinct
            trackers = {}
            make_tracker = _tracker_maker(trackers)
            start = time.perf_counter()
            columnar.feed_tracked_row(
                counters, trackers, row_cols, times, counts, make_tracker
            )
            best = min(best, time.perf_counter() - start)
    finally:
        columnar.SHORT_RUN_CUTOVER = saved
    words = sum(tracker.words() for tracker in trackers.values())
    return best, counters, words


def _bench_ratio(n: int, ratio: float) -> dict:
    row_cols, times, counts, distinct = _row_workload(n, ratio)
    per_col = np.bincount(row_cols)
    weighted_run = float(np.square(per_col).sum()) / n
    scalar_s, scalar_counters, scalar_words = _time_path(
        float("inf"), row_cols, times, counts, distinct
    )
    columnar_s, col_counters, col_words = _time_path(
        0.0, row_cols, times, counts, distinct
    )
    if scalar_counters != col_counters or scalar_words != col_words:
        raise AssertionError(
            f"ratio {ratio}: columnar and scalar bodies diverged "
            f"(words {col_words} vs {scalar_words})"
        )
    return {
        "updates": n,
        "distinct": distinct,
        "mean_run": n / distinct,
        "weighted_run": weighted_run,
        "equal": True,
        "scalar_s": scalar_s,
        "columnar_s": columnar_s,
        "columnar_speedup": scalar_s / columnar_s,
    }


def _measured_crossover(results: dict) -> float | None:
    """First swept *weighted* run length where columnar stays winning."""
    for ratio in RATIOS:
        if all(
            results[f"{r:g}"]["columnar_speedup"] >= 1.0
            for r in RATIOS
            if r >= ratio
        ):
            return results[f"{ratio:g}"]["weighted_run"]
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
    stream = store._state("urls")
    sketches = (stream.point_sketch, stream.hh_sketch, stream.join_sketch)
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
    run_length = _bench_run_lengths()
    payload = {
        "schema": "micro_run_cutover/v2",
        "scale": harness.bench_scale(),
        **cpu_header(),
        "updates": n,
        "delta": DELTA,
        "committed_cutover": columnar.SHORT_RUN_CUTOVER,
        "measured_crossover": _measured_crossover(results),
        "ratios": results,
        "committed_run_max": base._SCALAR_RUN_MAX,
        "run_length": run_length,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report(
        f"Short-run cutover: scalar vs columnar row feed (n={n}, "
        f"delta={DELTA}, committed cutover="
        f"{columnar.SHORT_RUN_CUTOVER:g})",
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
    # The regimes the cutover constant encodes must hold: the scalar
    # loop is at least competitive in the singleton-run regime, and
    # columnar wins outright in the deep-run regime where the fused
    # tracker path amortizes (runs of ~1k, the Zipf-hot-counter shape).
    # Everything in between is noise-bound — the two bodies run within
    # ~10-20% of each other from ratio 1.5 through 64, including a mild
    # scalar-favoring dip at 32/64 where unit-count runs stay inside
    # the PLA tube — so only the unambiguous extremes gate.
    assert payload["ratios"]["1"]["columnar_speedup"] < 1.15, (
        "columnar body clearly beat the scalar loop at mean run "
        "length 1; SHORT_RUN_CUTOVER may be obsolete"
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

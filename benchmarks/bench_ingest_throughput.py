"""Ingest throughput: columnar batch pipeline vs the scalar update loop.

The update path refactor hoists hashing through the vectorized
Carter-Wegman evaluators, groups updates into per-(row, col) runs and
feeds the persistence trackers columnar — while staying bit-identical to
per-record ``update()`` (pinned by ``tests/test_batch_ingest.py``).
This benchmark measures what that buys at the paper's ephemeral shape
(w = 20000, d = 7, Section 6.1) on all three workloads: records/second
for the scalar loop vs ``ingest`` (the chunked batch planner), with a
cheap state-equality gate so the speedup can never come from doing less
work.

The two-stage update buffer (ISSUE 10) rides in front of all of that:
``exact`` mode stages and replays verbatim (bit-identical, gated by the
same equality proxy), while ``coalesce`` merges same-counter touches
within a bounded window before they reach the trackers — that is what
finally cracks the high-cardinality ingest wall, so ObjectID/ClientID
carry a >= 5x coalesced floor with an explicit error-bound gate in
place of the exact-equality one.

Results are written to ``BENCH_ingest.json`` at the repo root (schema
``bench_ingest_throughput/v5``, documented in EXPERIMENTS.md; v2 added
``cpus``/``workers`` and the per-workload ``parallel`` block to v1; v3
adds the ``cpu_affinity`` header and replaces the parallel ratios with
an explicit ``{"skipped": "cpus < 4"}`` block on hosts too small to
measure them honestly; v4 adds the per-workload ``buffered`` block with
timed exact and coalesce legs; v5 drops the ``workers`` list and the
``parallel`` block with the ingest pool).  Scale with
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import cpu_header, run_once

from repro.core.persistent_countmin import PersistentCountMin
from repro.eval import harness
from repro.eval.reporting import report

#: Paper shape (Section 6.1): w = 20000, d = 7.
WIDTH = 20_000
DEPTH = 7
DELTA = 50.0

BATCH_SIZE = 32_768

#: Timing repetitions per path; the minimum is reported (scheduler noise
#: only ever inflates a run, and the minimum hits both paths equally).
#: Seven reps, not three: the committed numbers gate sub-1.5x ratios
#: (the ObjectID no-regression invariant), which best-of-3 resolves
#: only marginally on a shared 1-CPU container.
REPS = 7

DATASETS = ("Zipf_3", "ObjectID", "ClientID")

#: Repo-root output consumed by CI and EXPERIMENTS.md.
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"

#: Acceptance floors.  The skewed workload must clear >= 5x: long
#: per-counter runs are where the fused PLA path and the run planner
#: pay off.  The high-cardinality ID workloads spread updates over many
#: counters, so runs stay short of the fused threshold and only the
#: vectorized hashing and run extraction help — the floors pin the
#: batch path to "never slower" (measured 1.2-1.3x with the collector
#: quiesced; GC pauses used to eat the margin, see ``_gc_quiesced``).
SPEEDUP_FLOOR = {"Zipf_3": 5.0, "ObjectID": 1.1, "ClientID": 1.2}

#: Update-buffer window for the buffered legs (records staged before a
#: flush feeds the batch planner).  One window of the paper-shape
#: stream is enough for coalescing to find the repeat touches that the
#: high-cardinality workloads spread across many counters.
BUFFER_WINDOW = 32_768

#: Coalesced-ingest floor over the *scalar* loop.  The ID workloads are
#: the tentpole target — their short-run regime is exactly what
#: coalescing collapses (measured 6-16x; Zipf's long runs coalesce to
#: almost nothing and measure >100x, floored loosely at the same 5x).
BUFFERED_FLOOR = {"Zipf_3": 5.0, "ObjectID": 5.0, "ClientID": 5.0}

def _make_sketch() -> PersistentCountMin:
    return PersistentCountMin(
        width=WIDTH, depth=DEPTH, delta=DELTA, seed=harness.BENCH_SEED
    )


@contextmanager
def _gc_quiesced():
    """Keep collector pauses out of the timed region.

    Each rep retires a 140k-tracker sketch; once two workloads' worth
    of those are dead, cyclic-GC pauses land on whichever leg happens
    to be running and skew sub-1.5x ratios by 20%+ on a 1-CPU host
    (measured: the ClientID batch/scalar ratio read 0.94 with the
    collector on, 1.23 with it quiesced).  Collect the backlog up
    front, then keep the collector off inside the timing."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _bench_workload(name: str) -> dict:
    length = harness.scaled(200_000)
    stream = harness.get_dataset(name, length)
    times = stream.times.tolist()
    items = stream.items.tolist()
    counts = stream.counts.tolist()

    scalar_s = float("inf")
    for _ in range(REPS):
        scalar = _make_sketch()
        with _gc_quiesced():
            start = time.perf_counter()
            for t, i, c in zip(times, items, counts):
                scalar.update(i, count=c, time=t)
            scalar_s = min(scalar_s, time.perf_counter() - start)

    batch_s = float("inf")
    for _ in range(REPS):
        batched = _make_sketch()
        with _gc_quiesced():
            start = time.perf_counter()
            batched.ingest(stream, batch_size=BATCH_SIZE)
            batch_s = min(batch_s, time.perf_counter() - start)

    _assert_equal_answers(name, batched, scalar, items)

    # Two-stage buffered legs.  The timed cost includes the final
    # drain — that is what a caller pays before the state is queryable.
    # Exact mode must stay bit-identical (same equality proxy as the
    # batch path); coalesce is the lossy fast lane and is gated on the
    # documented widened error envelope instead.
    exact_s = float("inf")
    exact_sketch = None
    for _ in range(REPS):
        exact_sketch = _make_sketch()
        exact_sketch.configure_buffer(window=BUFFER_WINDOW, mode="exact")
        with _gc_quiesced():
            start = time.perf_counter()
            exact_sketch.ingest(stream, batch_size=BATCH_SIZE)
            exact_sketch.flush_buffer()
            exact_s = min(exact_s, time.perf_counter() - start)
    _assert_equal_answers(
        f"{name}[buffered=exact]", exact_sketch, scalar, items
    )

    coalesce_s = float("inf")
    coalesce_sketch = None
    for _ in range(REPS):
        coalesce_sketch = _make_sketch()
        coalesce_sketch.configure_buffer(
            window=BUFFER_WINDOW, mode="coalesce"
        )
        with _gc_quiesced():
            start = time.perf_counter()
            coalesce_sketch.ingest(stream, batch_size=BATCH_SIZE)
            coalesce_sketch.flush_buffer()
            coalesce_s = min(coalesce_s, time.perf_counter() - start)
    mass = coalesce_sketch.buffer_stats()["max_item_mass"]
    _assert_within_envelope(
        f"{name}[buffered=coalesce]", coalesce_sketch, scalar, items, mass
    )

    return {
        "length": length,
        "batch_size": BATCH_SIZE,
        "equal": True,
        "scalar_s": scalar_s,
        "scalar_rps": length / scalar_s,
        "batch_s": batch_s,
        "batch_rps": length / batch_s,
        "speedup": scalar_s / batch_s,
        "buffered": {
            "window": BUFFER_WINDOW,
            "exact": {
                "equal": True,
                "buffered_s": exact_s,
                "buffered_rps": length / exact_s,
                "speedup_vs_scalar": scalar_s / exact_s,
                "speedup_vs_batch": batch_s / exact_s,
            },
            "coalesce": {
                "within_bounds": True,
                "max_item_mass": mass,
                "buffered_s": coalesce_s,
                "buffered_rps": length / coalesce_s,
                "speedup_vs_scalar": scalar_s / coalesce_s,
                "speedup_vs_batch": batch_s / coalesce_s,
            },
        },
    }


def _assert_equal_answers(name, candidate, scalar, items) -> None:
    """Cheap equality proxy (the bit-level property is pinned by
    tests/test_batch_ingest.py): identical
    persistence footprint and identical answers on a spread of
    historical point queries."""
    if candidate.persistence_words() != scalar.persistence_words():
        raise AssertionError(
            f"{name}: batch ingest changed the persistence footprint"
        )
    t_end = scalar.now
    for item in items[:: max(1, len(items) // 50)]:
        for s, t in ((0, t_end), (t_end // 3, 2 * t_end // 3)):
            if candidate.point(item, s, t) != scalar.point(item, s, t):
                raise AssertionError(
                    f"{name}: batch ingest diverges at point({item}, "
                    f"{s}, {t})"
                )


def _assert_within_envelope(name, lossy, scalar, items, max_item_mass):
    """The coalesce gate: answers may differ from the exact reference
    only by the documented widened envelope — the +/-delta PLA recording
    error per query endpoint for *each* sketch (both record within delta
    of their own trajectory), plus the per-counter mass a window could
    still have been holding at an endpoint that lands mid-history.  The
    final drain means full-range queries carry no mass term at the right
    endpoint; the single conservative slack keeps the gate simple."""
    t_end = scalar.now
    slack = 4 * DELTA + 2 * max_item_mass
    for item in items[:: max(1, len(items) // 50)]:
        for s, t in ((0, t_end), (t_end // 3, 2 * t_end // 3)):
            got = lossy.point(item, s, t)
            want = scalar.point(item, s, t)
            if abs(got - want) > slack:
                raise AssertionError(
                    f"{name}: coalesced answer {got} strays "
                    f"{abs(got - want):.1f} from exact {want} at "
                    f"point({item}, {s}, {t}) — envelope is {slack:.1f}"
                )


def run_benchmark() -> dict:
    header = cpu_header()
    results = {}
    rows = []
    for name in DATASETS:
        stats = _bench_workload(name)
        buffered = stats["buffered"]
        rows.append(
            (
                name,
                stats["length"],
                round(stats["scalar_rps"], 0),
                round(stats["batch_rps"], 0),
                round(stats["speedup"], 1),
                round(buffered["coalesce"]["buffered_rps"], 0),
                round(buffered["coalesce"]["speedup_vs_scalar"], 1),
            )
        )
        results[name] = stats
    payload = {
        "schema": "bench_ingest_throughput/v5",
        "scale": harness.bench_scale(),
        **header,
        "buffer_window": BUFFER_WINDOW,
        "shape": {"width": WIDTH, "depth": DEPTH, "delta": DELTA},
        "workloads": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report(
        f"Ingest throughput: batch vs scalar (w={WIDTH}, d={DEPTH}, "
        f"delta={DELTA}, batch={BATCH_SIZE}, cpus={header['cpus']})",
        [
            "dataset",
            "records",
            "scalar rec/s",
            "batch rec/s",
            "speedup",
            "coalesced rec/s",
            "coalesced speedup",
        ],
        rows,
        json_name="ingest_throughput",
    )
    return payload


def test_ingest_throughput(benchmark):
    payload = run_once(benchmark, run_benchmark)
    assert OUTPUT.exists()
    for name in DATASETS:
        stats = payload["workloads"][name]
        assert stats["equal"]
        floor = SPEEDUP_FLOOR[name]
        assert stats["speedup"] >= floor, (
            f"{name}: batch ingest only {stats['speedup']:.1f}x faster "
            f"than the scalar loop (floor {floor}x)"
        )
        buffered = stats["buffered"]
        assert buffered["exact"]["equal"]
        assert buffered["coalesce"]["within_bounds"]
        got = buffered["coalesce"]["speedup_vs_scalar"]
        assert got >= BUFFERED_FLOOR[name], (
            f"{name}: coalesced ingest only {got:.1f}x over the scalar "
            f"loop (floor {BUFFERED_FLOOR[name]}x)"
        )


if __name__ == "__main__":
    run_benchmark()

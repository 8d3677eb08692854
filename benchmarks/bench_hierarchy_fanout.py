"""Heavy-hitter hierarchy fan-out: ingest, query and space at b = 2..16.

A hierarchy of fan-out ``b`` keeps ``ceil(log_b n)`` levels of
persistent Count-Min sketches, so every update feeds ``log2 b`` times
fewer PLA counters than the paper's dyadic ``b = 2``; in exchange a
heavy-hitter descent scores ``b`` children per surviving range, and a
rank or quantile sums up to ``b - 1`` ranges per level.  For each
``b`` in ``FANOUTS`` this benchmark reports:

* ``ingest``: hierarchy ingest throughput in records/s through
  :meth:`SketchStore.update_batch` on the store's ``urls`` shape
  (universe 2^16, w=256, d=3, Delta=50, same-stream runs of 400 — the
  shape ``perfbench`` ingests), as the median, quartiles and best of
  ``REPEATS`` fresh builds;
* ``queries``: per-call latency of the live and the frozen
  ``heavy_hitters`` (phi = 0.01) and of the live ``quantile`` over the
  same random windows (median and quartiles, ms); the live and frozen
  ``heavy_hitters`` latency on zero-mass windows ``(t, t]`` at the same
  ends, whose threshold is 0, so every level keeps the cap's
  ``max(16, 4 / phi)`` ranges (``*_zero_mass_ms``, with
  ``zero_mass_answer_size`` the cap they return); and whether every
  frozen answer equals the live one (``frozen_equals_live``);
* ``rank_error``: the exact-rank error of the live ``quantile``, ``rank``
  and ``range_count`` over the same windows, as a fraction of each
  window's record count ``W`` (mean and max).  A ``b``-adic prefix adds
  up to ``b - 1`` ranges per level, each a Count-Min overestimate plus
  the PLA error ``Delta``, so this is what a larger ``b`` costs in
  accuracy;
* ``checkpoint_bytes_per_record``: the bytes one store save writes
  (generation plus manifest) over the records it holds;
* ``quality``: precision and recall on Figure 7's workload (its window,
  ``phi`` and a mid-sweep Delta, per dataset) at equal space: each
  fan-out's per-level width grows from Figure 7's until the hierarchy
  holds at least as many counters (``ephemeral_words``) as the dyadic
  one there; its ``persistence_words`` are reported beside the answers.

The store's default fan-out (16, :class:`repro.store.StreamSpec`) was
chosen from these rows; the paper's exhibits stay at 2.

Results are written to ``BENCH_hierarchy.json`` at the repo root (schema
``bench_hierarchy_fanout/v2``).  Scale record counts with
``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from conftest import cpu_header, run_once

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.quantiles import PersistentQuantiles
from repro.engine import freeze
from repro.eval import experiments, harness
from repro.eval.metrics import precision_recall
from repro.store import SketchStore, StreamSpec

#: Repo-root output consumed by CI and EXPERIMENTS.md.
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_hierarchy.json"

FANOUTS = (2, 4, 8, 16)
#: The store shape of the ``urls`` stream (``perfbench/common.py``).
UNIVERSE = 2**16
WIDTH = 256
DEPTH = 3
DELTA = 50.0
RUN = 400
REPEATS = 5
#: Query windows per latency leg, and the heavy-hitter threshold.
WINDOWS = 40
PHI = 0.01
#: Quantiles, and ranks and ranges, asked of each window.
RANK_PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)
RANGES = 5
#: Figure 7's sweep midpoint.
QUALITY_DELTA = experiments.DELTAS_HH[2]


def _records(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The compact ObjectID ids in a 2^16 universe, one per tick."""
    items = harness.get_compact_dataset("ObjectID", n).items.astype(np.int64)
    if items.max() >= UNIVERSE:
        raise ValueError("compact ObjectID ids overflow the universe")
    return (
        np.arange(1, n + 1, dtype=np.int64),
        items,
        np.ones(n, dtype=np.int64),
    )


def _store(fanout: int) -> SketchStore:
    store = SketchStore(width=WIDTH, depth=DEPTH, seed=7)
    store.create(
        StreamSpec(
            "urls", delta=DELTA, universe=UNIVERSE, heavy_hitters=True,
            fanout=fanout,
        )
    )
    return store


def _spread(samples: list[float], scale: float = 1.0) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": median * scale,
        "iqr": [q1 * scale, q3 * scale],
    }


def _ingest_rates(fanout: int, columns) -> tuple[dict, SketchStore]:
    times, items, counts = columns
    rates = []
    store = None
    for _ in range(REPEATS):
        store = _store(fanout)
        start = time.perf_counter()
        for lo in range(0, len(times), RUN):
            hi = lo + RUN
            store.update_batch("urls", times[lo:hi], items[lo:hi], counts[lo:hi])
        rates.append(len(times) / (time.perf_counter() - start))
    return {**_spread(rates), "best": max(rates)}, store


def _timed(calls) -> tuple[list, list[float]]:
    answers, seconds = [], []
    for call in calls:
        start = time.perf_counter()
        answers.append(call())
        seconds.append(time.perf_counter() - start)
    return answers, seconds


def _windows(n: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(5)
    return [
        (int(s), int(s) + int(length))
        for s, length in zip(
            rng.integers(0, n // 2, size=WINDOWS),
            rng.integers(n // 8, n // 2, size=WINDOWS),
        )
    ]


def _queries(store: SketchStore, windows: list[tuple[int, int]]) -> dict:
    hh = store._state("urls").hh_sketch
    frozen = freeze(hh)
    quantiles = PersistentQuantiles(hierarchy=hh)
    live, live_s = _timed(
        [lambda s=s, t=t: hh.heavy_hitters(PHI, s, t) for s, t in windows]
    )
    cold, frozen_s = _timed(
        [lambda s=s, t=t: frozen.heavy_hitters(PHI, s, t) for s, t in windows]
    )
    _, quantile_s = _timed(
        [lambda s=s, t=t: quantiles.quantile(0.5, s, t) for s, t in windows]
    )
    ends = [t for _, t in windows]
    live_zero, live_zero_s = _timed(
        [lambda t=t: hh.heavy_hitters(PHI, t, t) for t in ends]
    )
    cold_zero, frozen_zero_s = _timed(
        [lambda t=t: frozen.heavy_hitters(PHI, t, t) for t in ends]
    )
    return {
        "live_heavy_hitters_ms": _spread(live_s, 1e3),
        "frozen_heavy_hitters_ms": _spread(frozen_s, 1e3),
        "quantile_ms": _spread(quantile_s, 1e3),
        "live_heavy_hitters_zero_mass_ms": _spread(live_zero_s, 1e3),
        "frozen_heavy_hitters_zero_mass_ms": _spread(frozen_zero_s, 1e3),
        "mean_answer_size": statistics.mean(len(a) for a in live),
        "zero_mass_answer_size": statistics.mean(len(a) for a in live_zero),
        "frozen_equals_live": cold == live and cold_zero == live_zero,
    }


def _rank_errors(
    store: SketchStore, items: np.ndarray, windows: list[tuple[int, int]]
) -> dict:
    """Exact-rank error over ``windows`` (the window ``(s, t]`` holds
    ``items[s:t]``), each as a fraction of the window's count ``W``.

    ``quantile``: how far the returned value's exact rank interval
    (items below it, items through it) lies from ``phi * W``.  ``rank``
    and ``range_count``: the distance from the exact count, for prefixes
    ending at, and ranges between, values drawn from the window.
    """
    quantiles = PersistentQuantiles(hierarchy=store._state("urls").hh_sketch)
    rng = np.random.default_rng(9)
    errors: dict[str, list[float]] = {"quantile": [], "rank": [], "range_count": []}
    for s, t in windows:
        window = np.sort(items[s:t])
        mass = len(window)

        def exact(lo: int, hi: int) -> int:
            return int(
                np.searchsorted(window, hi, "right")
                - np.searchsorted(window, lo, "left")
            )

        for phi in RANK_PHIS:
            value = quantiles.quantile(phi, s, t)
            below, through = exact(0, value - 1), exact(0, value)
            errors["quantile"].append(
                max(below - phi * mass, phi * mass - through, 0) / mass
            )
        for value in rng.choice(window, size=RANGES).tolist():
            errors["rank"].append(
                abs(quantiles.rank(value, s, t) - exact(0, value)) / mass
            )
        for lo, hi in np.sort(rng.choice(window, size=(RANGES, 2)), axis=1).tolist():
            errors["range_count"].append(
                abs(quantiles.range_count(lo, hi, s, t) - exact(lo, hi)) / mass
            )
    return {
        name: {"mean": statistics.mean(values), "max": max(values)}
        for name, values in errors.items()
    }


def _checkpoint_bytes(store: SketchStore, n: int) -> float:
    with tempfile.TemporaryDirectory(prefix="bench-hierarchy-") as tmp:
        store.save(Path(tmp) / "ckpt", seq=n)
    return store.last_save.bytes_written / n


def _hierarchy(universe: int, fanout: int, width: int) -> PersistentHeavyHitters:
    return PersistentHeavyHitters(
        universe=universe, width=width, depth=3, delta=QUALITY_DELTA,
        seed=harness.BENCH_SEED, fanout=fanout,
    )


def _quality(fanout: int) -> dict:
    """Figure 7's precision and recall per dataset at equal space: the
    narrowest per-level width from Figure 7's 1024 up, in steps of 64,
    at which the hierarchy holds at least the dyadic one's counters (or
    counts every level exactly)."""
    length = experiments.LENGTH_HH
    s, t = harness.paper_window(length)
    out = {}
    for dataset in harness.DATASETS:
        stream = harness.get_compact_dataset(dataset, length)
        universe = stream.universe or int(stream.items.max()) + 1
        target = _hierarchy(universe, 2, 1024).ephemeral_words()
        for width in itertools.count(1024, 64):
            structure = _hierarchy(universe, fanout, width)
            if width >= universe or structure.ephemeral_words() >= target:
                break
        structure.ingest(stream)
        truth = harness.get_compact_truth(dataset, length)
        found = structure.heavy_hitters(experiments.HH_PHI, s, t)
        actual = truth.heavy_hitters(experiments.HH_PHI, s, t)
        precision, recall = precision_recall(found.keys(), actual.keys())
        out[dataset] = {
            "width": width,
            "levels": structure.levels,
            "ephemeral_words": structure.ephemeral_words(),
            "persistence_words": structure.persistence_words(),
            "precision": round(precision, 3),
            "recall": round(recall, 3),
        }
    return out


def run_benchmark() -> dict:
    n = harness.scaled(32_000)
    columns = _records(n)
    windows = _windows(n)
    rows = {}
    for fanout in FANOUTS:
        ingest, store = _ingest_rates(fanout, columns)
        rows[str(fanout)] = {
            "levels": store._state("urls").hh_sketch.levels,
            "ingest_rec_per_s": ingest,
            "queries": _queries(store, windows),
            "rank_error": _rank_errors(store, columns[1], windows),
            "checkpoint_bytes_per_record": _checkpoint_bytes(store, n),
            "quality": _quality(fanout),
        }
    payload = {
        "schema": "bench_hierarchy_fanout/v2",
        "scale": harness.bench_scale(),
        **cpu_header(),
        "workload": {
            "records": n,
            "universe": UNIVERSE,
            "width": WIDTH,
            "depth": DEPTH,
            "delta": DELTA,
            "run_length": RUN,
            "repeats": REPEATS,
            "windows": WINDOWS,
            "phi": PHI,
            "rank_phis": list(RANK_PHIS),
            "ranges_per_window": RANGES,
            "quality_phi": experiments.HH_PHI,
            "quality_delta": QUALITY_DELTA,
            "quality_records": experiments.LENGTH_HH,
        },
        "fanouts": rows,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summary(payload: dict) -> str:
    lines = ["b  levels  ingest rec/s (median)  live hh ms  frozen hh ms  "
             "zero-mass live/frozen ms  quantile ms  ckpt B/rec  "
             "max rank err (quantile/rank/range)"]
    for fanout, row in payload["fanouts"].items():
        queries = row["queries"]
        errors = "/".join(
            f"{error['max']:.2%}" for error in row["rank_error"].values()
        )
        lines.append(
            f"{fanout:>2}  {row['levels']:>6}  "
            f"{row['ingest_rec_per_s']['median']:>21.0f}  "
            f"{queries['live_heavy_hitters_ms']['median']:>10.2f}  "
            f"{queries['frozen_heavy_hitters_ms']['median']:>12.2f}  "
            f"{queries['live_heavy_hitters_zero_mass_ms']['median']:>12.2f}/"
            f"{queries['frozen_heavy_hitters_zero_mass_ms']['median']:<11.2f}  "
            f"{queries['quantile_ms']['median']:>11.2f}  "
            f"{row['checkpoint_bytes_per_record']:>10.1f}  {errors}"
        )
    return "\n".join(lines)


def test_hierarchy_fanout_benchmark(benchmark):
    payload = run_once(benchmark, run_benchmark)
    for row in payload["fanouts"].values():
        assert row["queries"]["frozen_equals_live"]


if __name__ == "__main__":
    print(_summary(run_benchmark()))
    print(f"wrote {OUTPUT}")

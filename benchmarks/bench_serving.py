"""Serving-daemon throughput and latency under concurrent clients.

ISSUE 8's acceptance benchmark: a :class:`~repro.server.SketchServer`
on a real TCP socket, driven by one writer client plus four reader
clients concurrently (five live connections, mixed read/write).  Reads
cover the protocol's query verbs — ``point``, ``point_many``,
``heavy_hitters``, ``self_join_size`` — and are served through the
frozen/live cutover router while the writer keeps the live tail moving
and the background ticker keeps re-freezing.

A correctness gate rides along: after the load, frozen-routed answers
must be bit-equal to live-routed answers at the frozen horizon, so a
fast-but-wrong server can never score.

Results are written to ``BENCH_serving.json`` at the repo root (schema
``bench_serving/v3``; v2 added the ``cpus``/``cpu_affinity`` header and
a ``query_workers`` block to v1; v3 drops that block — frozen reads are
always answered in the daemon process) with overall qps plus p50/p99
latency per op class.  Scale op counts with ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path

from conftest import cpu_header, run_once

from repro.eval import harness
from repro.runtime import IngestRuntime
from repro.server import Client, ServingRuntime, SketchServer
from repro.store import SketchStore, StreamSpec

#: Repo-root output consumed by CI and EXPERIMENTS.md.
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

N_READERS = 4
UNIVERSE = 1024
PRELOAD = 4_000  # records ingested (and frozen) before timing starts
WRITE_RECORDS = 6_000  # writer-client records during the timed window
WRITE_BATCH = 200
READS_PER_CLIENT = 1_500  # point ops; the rarer verbs ride along below
CHECKPOINT_EVERY = 1_000


def _make_store() -> SketchStore:
    store = SketchStore(width=256, depth=3, join_width=256, seed=harness.BENCH_SEED)
    store.create(
        StreamSpec(
            name="urls",
            delta=8,
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
        )
    )
    store.create(StreamSpec(name="ads", delta=8, joinable=True))
    return store


def _records(n: int, start: int = 0) -> list[dict]:
    return [
        {
            "stream": "urls" if i % 3 else "ads",
            "item": (7 * i) % UNIVERSE,
            "count": 1 + (i % 3),
            "time": i + 1,
        }
        for i in range(start, start + n)
    ]


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    index = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return sorted_vals[index]


class _OpTimer:
    """Per-class latency collector shared by one client thread."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}

    def timed(self, op_class: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples.setdefault(op_class, []).append(
            time.perf_counter() - start
        )
        return result


def _reader_loop(host, port, reader_id, n_ops, frozen_t, timer, errors):
    try:
        with Client(host, port, timeout=30.0) as c:
            items = [(reader_id * 131 + 7 * i) % UNIVERSE for i in range(8)]
            for i in range(n_ops):
                item = items[i % len(items)]
                # Mostly historical windows (frozen-routable), some tail.
                t = frozen_t if i % 4 else None
                timer.timed("point", c.point, "urls", item, 0, t)
                if i % 10 == 0:
                    timer.timed(
                        "point_many", c.point_many, "urls", items, (0, frozen_t)
                    )
                if i % 25 == 0:
                    timer.timed(
                        "heavy_hitters", c.heavy_hitters, "urls", 0.01, 0, t
                    )
                if i % 25 == 5:
                    timer.timed(
                        "self_join_size", c.self_join_size, "ads", 0, None
                    )
    except BaseException as exc:  # noqa: B036  # sketchlint: disable=SL004 — collected and re-asserted on the main thread
        errors.append(exc)


def _writer_loop(host, port, records, timer, errors):
    try:
        with Client(host, port, timeout=30.0) as c:
            for lo in range(0, len(records), WRITE_BATCH):
                timer.timed(
                    "ingest_batch",
                    c.ingest_batch,
                    records[lo : lo + WRITE_BATCH],
                )
    except BaseException as exc:  # noqa: B036  # sketchlint: disable=SL004 — collected and re-asserted on the main thread
        errors.append(exc)


def _run_load() -> dict:
    """One full concurrent-client pass; returns the measured blocks."""
    preload = harness.scaled(PRELOAD)
    write_records = harness.scaled(WRITE_RECORDS)
    reads_per_client = harness.scaled(READS_PER_CLIENT)

    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        runtime = IngestRuntime.create(
            Path(tmp) / "rt", _make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        server = SketchServer(
            ServingRuntime(runtime),
            cutover_poll_s=0.1,
        ).start()
        try:
            host, port = server.address
            with Client(host, port, timeout=60.0) as admin:
                admin.ingest_batch(_records(preload))
                admin.cutover()
                frozen_t = server.serving.view().clock("urls")

                errors: list[BaseException] = []
                timers = [_OpTimer() for _ in range(N_READERS + 1)]
                threads = [
                    threading.Thread(
                        target=_writer_loop,
                        args=(
                            host,
                            port,
                            _records(write_records, start=preload),
                            timers[0],
                            errors,
                        ),
                    )
                ]
                threads += [
                    threading.Thread(
                        target=_reader_loop,
                        args=(
                            host,
                            port,
                            reader_id,
                            reads_per_client,
                            frozen_t,
                            timers[reader_id + 1],
                            errors,
                        ),
                    )
                    for reader_id in range(N_READERS)
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall_s = time.perf_counter() - start
                assert not errors, errors

                # Correctness gate: frozen == live at the frozen horizon.
                admin.cutover()
                gate_t = server.serving.view().clock("urls")
                for item in range(0, UNIVERSE, 97):
                    frozen = admin.point("urls", item, 0, gate_t, mode="frozen")
                    live = admin.point("urls", item, 0, gate_t, mode="live")
                    assert frozen == live, (item, frozen, live)
                assert admin.heavy_hitters(
                    "urls", 0.01, 0, gate_t, mode="frozen"
                ) == admin.heavy_hitters("urls", 0.01, 0, gate_t, mode="live")

                described = admin.describe()
                assert described["applied_seq"] == preload + write_records
                serving_block = described["serving"]
        finally:
            server.stop()

    merged: dict[str, list[float]] = {}
    for timer in timers:
        for op_class, samples in timer.samples.items():
            merged.setdefault(op_class, []).extend(samples)
    op_classes = {}
    total_ops = 0
    for op_class, samples in sorted(merged.items()):
        samples.sort()
        total_ops += len(samples)
        op_classes[op_class] = {
            "count": len(samples),
            "p50_ms": _percentile(samples, 0.50) * 1e3,
            "p99_ms": _percentile(samples, 0.99) * 1e3,
            "mean_ms": sum(samples) / len(samples) * 1e3,
        }

    return {
        "workload": {
            "preload_records": preload,
            "write_records": write_records,
            "write_batch": WRITE_BATCH,
            "reads_per_client": reads_per_client,
        },
        "totals": {
            "ops": total_ops,
            "wall_s": wall_s,
            "qps": total_ops / wall_s,
            "ingested_records_per_s": write_records / wall_s,
        },
        "op_classes": op_classes,
        "serving": {
            "cutovers": serving_block["cutovers"],
            "view_seq": serving_block["view_seq"],
            "tail_records": serving_block["tail_records"],
        },
    }


def run_benchmark() -> dict:
    base = _run_load()
    op_classes = base["op_classes"]
    payload = {
        "schema": "bench_serving/v3",
        "scale": harness.bench_scale(),
        **cpu_header(),
        "clients": {"readers": N_READERS, "writers": 1},
        **base,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"serving: {payload['totals']['qps']:.0f} qps over "
        f"{N_READERS + 1} clients; point p50 "
        f"{op_classes['point']['p50_ms']:.2f} ms p99 "
        f"{op_classes['point']['p99_ms']:.2f} ms; "
        f"{payload['totals']['ingested_records_per_s']:.0f} ingested rec/s"
    )
    return payload


def test_serving_benchmark(benchmark):
    payload = run_once(benchmark, run_benchmark)
    assert OUTPUT.exists()
    assert payload["totals"]["qps"] > 0
    for stats in payload["op_classes"].values():
        assert stats["p99_ms"] >= stats["p50_ms"] >= 0
    assert payload["op_classes"]["point"]["count"] > 0
    assert payload["op_classes"]["ingest_batch"]["count"] > 0


if __name__ == "__main__":
    run_benchmark()

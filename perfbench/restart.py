"""``restart``: crash restart to the first frozen-routed answer.

Set-up builds a runtime directory whose WAL tail past the newest
checkpoint is a third of the stream, then closes it without a final
checkpoint — a durable, un-snapshotted tail, as a crash leaves it.
Each timed restart runs on a fresh copy of that directory and times
``IngestRuntime.recover`` (fsck repair scan, checkpoint open, replay,
contract check), ``SketchServer(ServingRuntime(...)).start()`` (cutover:
open + freeze) and the first ``Client.point`` answer with
``mode="frozen"``.  fsck, checkpoint decode, WAL replay and a
whole-store freeze are on the critical path; there are no WAL appends,
no wire load and no lock contention.
"""

from __future__ import annotations

import contextlib
import shutil
from pathlib import Path
from time import perf_counter

import common
from hostspeed import SpeedLog

CHECKPOINT_EVERY = 4000
HISTORY = 6000  # checkpoint at 4000, then a 2000-record WAL tail
BATCH = 1000
PROBES = 8


class Workload:
    name = "restart"
    threads = 1
    connections = 1
    setup_repeats = 5

    def __init__(self, seed: int, work: Path) -> None:
        import numpy as np

        self.seed = seed
        self.work = work
        self.speed = SpeedLog()
        self.feed = common.Feed(seed, HISTORY // 2, blocked=HISTORY, block=BATCH // 2)
        rng = np.random.default_rng(seed + 202)
        self.horizon = {s: self.feed.last_time(s, CHECKPOINT_EVERY) for s in common.STREAMS}
        self.end = {s: self.feed.last_time(s, HISTORY) for s in common.STREAMS}
        self.probes = []  # (stream, item, s, t, mode)
        for stream in common.STREAMS:
            for item in common.probe_items(self.feed, stream, HISTORY, PROBES, rng):
                s = int(rng.integers(0, self.horizon[stream]))
                self.probes.append((stream, item, s, self.horizon[stream], "frozen"))
                self.probes.append((stream, item, s, self.end[stream], "live"))
        self.first = self.probes[0]
        self._made = 0

    def setup(self, trace: bool = False):
        """Build the crashed directory and record the answers it gave before closing."""
        from repro.runtime import IngestRuntime

        self._made += 1
        directory = self.work / f"restart-src-{self._made}"
        runtime = IngestRuntime.create(
            directory, common.make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for lo in range(0, HISTORY, BATCH):
            runtime.ingest_batch(self.feed.records(lo, lo + BATCH))
        expected = [
            runtime.store.point(stream, item, s, t) for stream, item, s, t, _ in self.probes
        ]
        expected_hh = runtime.store.heavy_hitters("urls", 0.01, 0, self.end["urls"])
        runtime.close()
        return {"dir": directory, "expected": expected, "expected_hh": expected_hh}

    def teardown(self, state) -> dict:
        shutil.rmtree(state["dir"], ignore_errors=True)
        return {}

    def measure(self, state, seconds: float, tracer) -> dict:
        from repro.runtime import IngestRuntime
        from repro.server import Client, ServingRuntime, SketchServer

        speed = self.speed
        spans: list[tuple[float, float]] = []
        replayed: list[int] = []
        mismatches = 0
        errors: dict[str, int] = {}
        attempted = 0
        stream, item, s, t, mode = self.first
        deadline = perf_counter() + seconds
        k = 0
        # The first restart is an untimed warm-up: it pays the lazy
        # imports and first-call costs once, so timed restarts are alike.
        while k == 0 or perf_counter() < deadline:
            k += 1
            target = self.work / f"restart-run-{k}"
            shutil.copytree(state["dir"], target)
            # Calibration probes on both sides of the restart (see hostspeed.py).
            speed.probe()
            speed.probe()
            scope = tracer.span("bench.restart") if tracer else contextlib.nullcontext()
            began = perf_counter()
            with scope:
                runtime = IngestRuntime.recover(target, checkpoint_every=CHECKPOINT_EVERY)
                server = SketchServer(ServingRuntime(runtime), port=0).start()
                client = Client(*server.address, timeout=60.0)
                first = client.point(stream, item, s, t, mode=mode)
            ended = perf_counter()
            speed.probe()
            speed.probe()
            if k > 1:
                spans.append((began, ended))
                replayed.append(runtime.stats.replayed)
            attempted += 1
            try:
                mismatches += first != state["expected"][0]
                for (p_stream, p_item, p_s, p_t, p_mode), want in zip(
                    self.probes, state["expected"]
                ):
                    attempted += 1
                    got = client.point(p_stream, p_item, p_s, p_t, mode=p_mode)
                    mismatches += got != want
                attempted += 1
                got_hh = client.heavy_hitters("urls", 0.01, 0, self.end["urls"], mode="live")
                mismatches += got_hh != state["expected_hh"]
            except Exception as exc:  # a typed wire error: counted, the loop goes on
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            finally:
                client.close()
                server.stop()
                shutil.rmtree(target, ignore_errors=True)
        samples = [speed.scaled(end - began, began, end) for began, end in spans]
        ms = [x * 1e3 for x in samples]
        return {
            "metrics": {
                "op_p50_ms": common.median(ms),
                # A run makes a few dozen restarts: the slowest is the
                # host's noise, so the tail is the highest percentile
                # with ten restarts beyond it.
                "op_tail_ms": common.tail_beyond(ms),
                "op_rate_per_s": HISTORY * len(samples) / sum(samples),
                "peak_rss_mb": common.peak_rss_mb(),
            },
            "attempted": attempted,
            "failed": mismatches + sum(errors.values()),
            "report": {
                "op": "restart: recover + server start + first frozen point",
                "times": "reference-speed (hostspeed.py); raw_* as measured",
                "host_speed": speed.summary(),
                "raw_restart_s": common.median([end - began for began, end in spans]),
                "restart_s": common.median(samples),
                "samples": len(samples),
                "restart_max_s": max(samples),
                "restart_tail_percentile": 100.0 * (1 - min(10, len(samples) - 1) / len(samples)),
                "answer_mismatches": mismatches,
                "wire_errors": errors,
                "mean_same_stream_run": None,
                "checkpoints": 0,
                "cutovers": len(samples),
                "historical_read_share": None,
                "wal_tail_replayed": common.median(replayed),
                "generator_lateness_ms": None,
            },
        }

    def verify(self, state, measured: dict) -> tuple[int, int, dict]:
        return 0, 0, {}

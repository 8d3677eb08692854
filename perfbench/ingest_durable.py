"""``ingest_durable``: the in-process ``repro ingest`` write path.

Closed loop of ``IngestRuntime.ingest_batch`` calls, each 800 records
laid out as one contiguous run per stream (per-source log shipping).
The work is a fixed pass — the same 32,000 records into a fresh runtime
whose checkpoint cadence fires eight times — repeated until the run's
time is up (the pass in progress then completes).  A faster write path
so runs more passes of the same work, never a different one: each
checkpoint saves a store of the same size in every build.  No wire, no
router, no cutover, no query: classify -> WAL append+fsync -> columnar
planner/trackers -> checkpoint save.
"""

from __future__ import annotations

import contextlib
import shutil
from itertools import groupby
from pathlib import Path
from time import perf_counter

import common
from hostspeed import SpeedLog

BATCH = 800
PASS_BATCHES = 40  # ~10 s a pass, so a 20 s run makes ~120 calls
CHECKPOINT_EVERY = 4000  # every fifth call carries a checkpoint
PROBES = 16


class Workload:
    name = "ingest_durable"
    threads = 1
    connections = 0
    setup_repeats = 41  # set-up is one runtime creation: cheap, so more repeats

    def __init__(self, seed: int, work: Path) -> None:
        import numpy as np

        self.seed = seed
        self.work = work
        self.speed = SpeedLog()
        records = BATCH * PASS_BATCHES
        self.feed = common.Feed(seed, records // 2, blocked=records, block=BATCH // 2)
        self._made = 0
        # The probe set every pass's store is checked on (see verify).
        rng = np.random.default_rng(seed + 101)
        hi = len(self.feed)
        self.probes: list[tuple] = []
        for stream in common.STREAMS:
            end = self.feed.last_time(stream, hi)
            windows = [(0, end)] + [
                (int(s), int(s + rng.integers(1, end - s + 1)))
                for s in rng.integers(0, end, size=4)
            ]
            for s, t in windows:
                for item in common.probe_items(self.feed, stream, hi, PROBES, rng):
                    self.probes.append(("point", stream, item, s, t))
                self.probes.append(("self_join_size", stream, s, t))
                if stream == "urls":
                    self.probes.append(("heavy_hitters", stream, 0.01, s, t))

    def setup(self, trace: bool = False):
        from repro.runtime import IngestRuntime

        self._made += 1
        directory = self.work / f"ingest-{self._made}"
        runtime = IngestRuntime.create(
            directory, common.make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        return {"runtime": runtime, "dir": directory}

    def teardown(self, state) -> dict:
        state["runtime"].close()
        shutil.rmtree(state["dir"], ignore_errors=True)
        return {}

    def _answers(self, store) -> list:
        return [getattr(store, verb)(*args) for verb, *args in self.probes]

    def measure(self, state, seconds: float, tracer) -> dict:
        """Passes until ``seconds`` are up; ``state`` ends on the last
        pass's runtime."""
        feed = self.feed
        speed = self.speed
        calls: list[tuple[float, float, float]] = []  # (batch start, call, ack)
        answers: list[list] = []
        failed = checkpoints = passes = 0
        deadline = perf_counter() + seconds
        while True:
            runtime = state["runtime"]
            before = runtime.stats.checkpoints
            for lo in range(0, len(feed), BATCH):
                # A calibration probe between calls (see hostspeed.py).
                speed.probe()
                scope = tracer.span("bench.ingest_op") if tracer else contextlib.nullcontext()
                with scope:
                    start = perf_counter()
                    records = feed.records(lo, lo + BATCH)
                    began = perf_counter()
                    applied = runtime.ingest_batch(records)
                    calls.append((start, began, perf_counter()))
                if applied != len(records):
                    failed += 1
            speed.probe()
            passes += 1
            checkpoints += runtime.stats.checkpoints - before
            # Checks and the next pass's runtime are not part of the op.
            with tracer.muted() if tracer else contextlib.nullcontext():
                answers.append(self._answers(runtime.store))
                if perf_counter() >= deadline:
                    break
                self.teardown(state)
                state.update(self.setup())
        records = passes * len(feed)
        runs = sum(
            sum(1 for _ in groupby(feed.names[lo : lo + BATCH]))
            for lo in range(0, len(feed), BATCH)
        )
        # Reference-speed times; the rate counts building each batch too.
        acks_ms = [speed.scaled((end - began) * 1e3, began, end) for _, began, end in calls]
        busy = sum(speed.scaled(end - start, start, end) for start, _, end in calls)
        return {
            "metrics": {
                "op_p50_ms": common.median(acks_ms),
                "op_tail_ms": common.percentile(acks_ms, 0.9),
                "op_rate_per_s": records / busy,
                "peak_rss_mb": common.peak_rss_mb(),
            },
            "attempted": len(calls),
            "failed": failed,
            "answers": answers,
            "report": {
                "op": "IngestRuntime.ingest_batch call (ack)",
                "times": "reference-speed (hostspeed.py); raw_* as measured",
                "host_speed": speed.summary(),
                "raw_ingest_ack_p50_ms": common.median([(e - b) * 1e3 for _, b, e in calls]),
                "ingest_ack_p50_ms": common.median(acks_ms),
                "ingest_ack_p95_ms": common.percentile(acks_ms, 0.95),
                "ingest_rec_per_s": records / busy,
                "ingest_ack_p90_ms": common.percentile(acks_ms, 0.9),
                "samples": len(calls),
                "samples_beyond_p90": common.beyond(len(calls), 0.9),
                "samples_beyond_p95": common.beyond(len(calls), 0.95),
                "passes": passes,
                "records": records,
                "mean_same_stream_run": len(feed) / runs,
                "checkpoints": checkpoints,
                "cutovers": 0,
                "historical_read_share": None,
                "wal_tail_replayed": None,
                "generator_lateness_ms": None,
            },
        }

    def verify(self, state, measured: dict) -> tuple[int, int, dict]:
        """Every pass's answers == those of an unlogged twin."""
        twin = common.make_store()
        scratch = state["dir"] / "twin"
        hi = len(self.feed)
        common.feed_twin(
            twin, self.feed, 0, hi,
            set(range(CHECKPOINT_EVERY, hi + 1, CHECKPOINT_EVERY)), scratch,
        )
        shutil.rmtree(scratch, ignore_errors=True)
        want = self._answers(twin)
        attempted = mismatches = 0
        for got in measured["answers"]:
            attempted += len(want)
            mismatches += sum(a != b for a, b in zip(got, want))
        return attempted, mismatches, {"twin_mismatches": mismatches, "twin_probes": attempted}

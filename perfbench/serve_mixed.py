"""``serve_mixed``: mixed traffic over the wire against the daemon.

The daemon runs as its own process (``server_proc.py``), preloaded with
history.  One generator process drives two connections:

* writer, open loop: ``ingest_batch`` frames at a fixed rate, records
  interleaved one by one across both streams (same-stream runs of 1);
  ack latency counts from each frame's *scheduled* send time;
* reader, closed loop: ~80% ``point``, ~10% ``point_many`` (32 items),
  ~5% ``heavy_hitters``, ~5% ``self_join_size``; items drawn from the
  stream's own records, windows random historical ``(s, t]`` at or
  before the frozen horizon, except one read in four with ``t=None``
  (live-routed).

The checkpoint cadence gives several checkpoint+cutover cycles per run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep

import common
from hostspeed import SpeedLog

# Daemon and generator share one CPU, so the daemon's background work
# (writes, checkpoint saves, cutover rebuilds) takes its time from the
# reader, and grows when the host is slow: the smaller that share, the
# less the read figures swing with the host.
PRELOAD = 1000
CHECKPOINT_EVERY = 60
FRAME = 2  # records per ingest_batch frame
FRAME_RATE = 10.0  # frames per second (20 records/s offered)
PER_STREAM = 20_000
READY_TIMEOUT_S = 120.0
PROBES = 16
PROBE_EVERY_S = 0.05  # reader-side host-speed calibration cadence
MIX = (("point", 0.80), ("point_many", 0.10), ("heavy_hitters", 0.05), ("self_join_size", 0.05))


def _by_class(classes: list[str], lat_ms: list[float]) -> dict:
    """Share, p50 and p99 of read latency per ``verb:hist|live`` class."""
    groups: dict[str, list[float]] = {}
    for name, ms in zip(classes, lat_ms):
        groups.setdefault(name, []).append(ms)
    return {
        name: {
            "share": len(values) / len(lat_ms),
            "p50_ms": common.median(values),
            "p99_ms": common.percentile(values, 0.99),
        }
        for name, values in sorted(groups.items())
    }


def _error_key(exc: BaseException) -> str:
    return type(exc).__name__


class Workload:
    name = "serve_mixed"
    threads = 2
    connections = 2
    setup_repeats = 5
    # Daemon and load generator share one CPU: a request then hands off
    # by a context switch on a busy CPU, not by waking an idle virtual
    # CPU, whose wake-up latency follows the host's load and dominated
    # run-to-run spread.  The closed loop never has client and daemon
    # compute at the same time.
    pinning = {"daemon": "first allowed CPU", "load_generator": "first allowed CPU"}

    def __init__(self, seed: int, work: Path) -> None:
        import numpy as np

        self.seed = seed
        self.work = work
        self.speed = SpeedLog()
        self.feed = common.Feed(seed, PER_STREAM, blocked=PRELOAD, block=500)
        self.preload_file = work / "serve-preload.npz"
        codes = np.array([common.STREAMS.index(n) for n in self.feed.names[:PRELOAD]], dtype=np.int8)
        np.savez(self.preload_file, codes=codes, items=np.array(self.feed.items[:PRELOAD], dtype=np.int64))
        self.stream_items = {
            s: np.array([it for n, it in zip(self.feed.names, self.feed.items) if n == s], dtype=np.int64)
            for s in common.STREAMS
        }
        self.stream_pos = {
            s: np.cumsum(np.array([n == s for n in self.feed.names], dtype=np.int64))
            for s in common.STREAMS
        }
        self._made = 0

    # ------------------------------------------------------------------ #

    def setup(self, trace: bool = False):
        """Launch a preloaded daemon; with ``trace`` it records spans."""
        self._made += 1
        directory = self.work / f"serve-{self._made}"
        out = self.work / f"serve-{self._made}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve().parent / "server_proc.py"),
            "--work", str(directory), "--preload", str(self.preload_file),
            "--checkpoint-every", str(CHECKPOINT_EVERY), "--out", str(out),
        ] + (["--trace"] if trace else [])
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
        )
        line: list[str] = []
        reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(READY_TIMEOUT_S)
        if not line or not line[0].startswith("READY"):
            proc.kill()
            proc.wait()
            raise RuntimeError(f"serve_mixed daemon did not become ready: {line!r}")
        return {"proc": proc, "port": int(line[0].split()[1]), "dir": directory, "out": out}

    def teardown(self, state) -> dict:
        """Stop the daemon; returns what it measured about itself."""
        proc = state["proc"]
        if proc.poll() is None:
            try:
                proc.stdin.write("STOP\n")
                proc.stdin.flush()
                proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            pipe.close()
        result: dict = {}
        if state["out"].exists():
            result = json.loads(state["out"].read_text(encoding="utf-8"))
            state["out"].unlink()
        shutil.rmtree(state["dir"], ignore_errors=True)
        return result

    # ------------------------------------------------------------------ #

    def _horizon_seq(self, acked: int) -> int:
        """A checkpoint position at least one full cycle old."""
        cycles = (acked - PRELOAD) // CHECKPOINT_EVERY - 1
        return PRELOAD + max(0, cycles) * CHECKPOINT_EVERY

    def _writer(self, port: int, deadline: float, t0: float, out: dict) -> None:
        from repro.server import Client

        acks: list[tuple[float, float]] = []  # (due, acked)
        late: list[float] = []
        backlog: list[int] = []
        errors: dict[str, int] = {}
        period = 1.0 / FRAME_RATE
        lo = PRELOAD
        k = 0
        with Client("127.0.0.1", port, timeout=60.0) as client:
            while True:
                due = t0 + k * period
                if due >= deadline:
                    break
                now = perf_counter()
                if now < due:
                    sleep(due - now)
                    now = perf_counter()
                late.append(now - due)
                backlog.append(int((now - t0) / period) - k)
                records = self.feed.records(lo, lo + FRAME)
                try:
                    applied = client.ingest_batch(records)
                    if applied != len(records):
                        errors["short-ack"] = errors.get("short-ack", 0) + 1
                except Exception as exc:  # typed wire error: counted, load goes on
                    errors[_error_key(exc)] = errors.get(_error_key(exc), 0) + 1
                    applied = 0
                acks.append((due, perf_counter()))
                lo += FRAME
                out["acked"] = lo
                k += 1
        out.update(acks=acks, late=late, backlog=backlog, errors=errors, frames=k)

    def _reader(self, port: int, deadline: float, writer_out: dict, out: dict) -> None:
        import numpy as np

        from repro.server import Client

        rng = np.random.default_rng(self.seed + 303)
        verbs = [v for v, _ in MIX]
        weights = np.array([w for _, w in MIX])
        ops: list[tuple[float, float, float]] = []  # (iteration start, send, answer)
        log: list[tuple] = []
        errors: dict[str, int] = {}
        historical = 0
        classes: list[str] = []
        next_probe = 0.0
        with Client("127.0.0.1", port, timeout=60.0) as client:
            while True:
                start = perf_counter()
                if start >= deadline:
                    break
                if start >= next_probe:
                    self.speed.probe()
                    next_probe = perf_counter() + PROBE_EVERY_S
                    start = perf_counter()
                verb = verbs[int(rng.choice(len(verbs), p=weights))]
                stream = "urls" if verb == "heavy_hitters" else common.STREAMS[int(rng.integers(2))]
                horizon = self._horizon_seq(writer_out["acked"])
                h_time = self.feed.last_time(stream, horizon)
                count = int(self.stream_pos[stream][horizon - 1])
                t = None if rng.random() < 0.25 else int(rng.integers(1, h_time + 1))
                historical += t is not None
                s = int(rng.integers(0, t if t is not None else h_time))
                pool = self.stream_items[stream]
                if verb == "point":
                    args = (stream, int(pool[rng.integers(count)]), s, t)
                elif verb == "point_many":
                    items = [int(x) for x in pool[rng.integers(count, size=32)]]
                    args = (stream, items, (s, t))
                elif verb == "heavy_hitters":
                    args = (stream, 0.02, s, t)
                else:
                    args = (stream, s, t)
                began = perf_counter()
                try:
                    answer = getattr(client, verb)(*args)
                except Exception as exc:  # typed wire error: counted, load goes on
                    errors[_error_key(exc)] = errors.get(_error_key(exc), 0) + 1
                    answer = None
                ops.append((start, began, perf_counter()))
                classes.append(f"{verb}:{'hist' if t is not None else 'live'}")
                if answer is not None and t is not None:
                    log.append((verb, args, answer))
        out.update(ops=ops, log=log, errors=errors, historical=historical, classes=classes)

    def measure(self, state, seconds: float, tracer) -> dict:
        port = state["port"]
        w_out: dict = {"acked": PRELOAD}
        r_out: dict = {}
        t0 = perf_counter()
        deadline = t0 + seconds
        writer = threading.Thread(target=self._writer, args=(port, deadline, t0, w_out))
        # The reader follows the writer's progress through ``w_out["acked"]``.
        reader = threading.Thread(target=self._reader, args=(port, deadline, w_out, r_out))
        writer.start()
        reader.start()
        writer.join()
        reader.join()
        measured_until = perf_counter()
        self.speed.probe()
        ops = r_out["ops"]
        # Reference-speed latencies (see hostspeed.py); the rate counts
        # whole loop iterations, calibration probes excluded.
        raw_ms = [(end - began) * 1e3 for _, began, end in ops]
        lat_ms = [self.speed.scaled(ms, began, end) for ms, (_, began, end) in zip(raw_ms, ops)]
        loop_s = sum(self.speed.scaled(end - start, start, end) for start, _, end in ops)
        ack_ms = [self.speed.scaled((end - due) * 1e3, due, end) for due, end in w_out["acks"]]
        # Medians, so one checkpoint stall (a transient backlog the
        # writer then drains) does not read as growth.
        backlog = w_out["backlog"]
        quarter = max(1, len(backlog) // 4)
        backlog_growth = common.median(backlog[-quarter:]) - common.median(backlog[:quarter])
        errors = dict(r_out["errors"])
        for key, value in w_out["errors"].items():
            errors[key] = errors.get(key, 0) + value
        reads = len(lat_ms)
        return {
            "metrics": {
                "op_p50_ms": common.median(lat_ms),
                "op_tail_ms": common.percentile(lat_ms, 0.99),
                "op_rate_per_s": reads / loop_s,
            },
            "attempted": reads + w_out["frames"],
            "failed": sum(errors.values()),
            "acked": w_out["acked"],
            "log": r_out["log"],
            "window": (t0, measured_until),
            "backlog_growth": backlog_growth,
            "report": {
                "op": "read request over the wire (client round trip)",
                "times": "reference-speed (hostspeed.py); raw_* as measured",
                "host_speed": self.speed.summary(),
                "raw_read_p50_ms": common.median(raw_ms),
                "raw_read_p99_ms": common.percentile(raw_ms, 0.99),
                "read_ops_per_s": reads / loop_s,
                "read_p50_ms": common.median(lat_ms),
                "read_p99_ms": common.percentile(lat_ms, 0.99),
                "read_p95_ms": common.percentile(lat_ms, 0.95),
                "read_samples": reads,
                "read_by_class": _by_class(r_out["classes"], lat_ms),
                "read_samples_beyond_p99": common.beyond(reads, 0.99),
                "ingest_ack_p50_ms": common.median(ack_ms),
                "ingest_ack_p95_ms": common.percentile(ack_ms, 0.95),
                "ack_samples": len(ack_ms),
                "ack_samples_beyond_p95": common.beyond(len(ack_ms), 0.95),
                "offered_records_per_s": FRAME * FRAME_RATE,
                "wire_errors": errors,
                "mean_same_stream_run": 1.0,
                "historical_read_share": r_out["historical"] / reads,
                "generator_lateness_ms": {
                    "p50": common.median(w_out["late"]) * 1e3,
                    "max": max(w_out["late"]) * 1e3,
                },
                "writer_backlog_growth_frames": backlog_growth,
                "wal_tail_replayed": None,
            },
        }

    def verify(self, state, measured: dict) -> tuple[int, int, dict]:
        """Frozen == live at the final horizon; wire answers == a twin."""
        import numpy as np

        from repro.engine.frozen import freeze_store
        from repro.server import Client

        rng = np.random.default_rng(self.seed + 404)
        attempted = mismatches = 0
        acked = measured["acked"]
        with Client("127.0.0.1", state["port"], timeout=120.0) as admin:
            admin.cutover()
            view_seq = admin.describe()["serving"]["view_seq"]
            applied = admin.describe()["applied_seq"]
            attempted += 1
            mismatches += applied != acked
            for stream in common.STREAMS:
                t = self.feed.last_time(stream, view_seq)
                for item in common.probe_items(self.feed, stream, view_seq, PROBES, rng):
                    attempted += 1
                    mismatches += admin.point(stream, item, 0, t, mode="frozen") != admin.point(
                        stream, item, 0, t, mode="live"
                    )
                attempted += 1
                mismatches += admin.self_join_size(stream, 0, t, mode="frozen") != admin.self_join_size(
                    stream, 0, t, mode="live"
                )
            t = self.feed.last_time("urls", view_seq)
            attempted += 1
            mismatches += admin.heavy_hitters("urls", 0.02, 0, t, mode="frozen") != admin.heavy_hitters(
                "urls", 0.02, 0, t, mode="live"
            )
        frozen_gate = mismatches
        twin = common.make_store()
        scratch = state["dir"].with_name(state["dir"].name + "-twin")
        finalize = {PRELOAD} | set(range(PRELOAD + CHECKPOINT_EVERY, acked + 1, CHECKPOINT_EVERY))
        common.feed_twin(twin, self.feed, 0, acked, finalize, scratch)
        shutil.rmtree(scratch, ignore_errors=True)
        view = freeze_store(twin)
        twin_mismatches = 0
        by_verb: dict[str, int] = {}
        for verb, args, answer in measured["log"]:
            attempted += 1
            if verb == "point_many":
                stream, items, (s, t) = args
                want = [float(x) for x in view.point_many(stream, items, [(s, t)] * len(items))]
            elif verb == "heavy_hitters":
                want = {int(k): float(v) for k, v in view.heavy_hitters(*args).items()}
            else:
                want = float(getattr(view, verb)(*args))
            if answer != want:
                twin_mismatches += 1
                by_verb[verb] = by_verb.get(verb, 0) + 1
        mismatches += twin_mismatches
        return attempted, mismatches, {
            "frozen_live_mismatches": frozen_gate,
            "twin_mismatches": twin_mismatches,
            "twin_mismatch_verbs": by_verb,
            "twin_checked_reads": len(measured["log"]),
        }


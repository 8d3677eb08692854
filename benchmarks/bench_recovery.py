"""Checkpoint, recovery and durability-scrub cost vs stream size.

An fsck pass runs in front of every recovery, so the scrub's scan
throughput is on the critical path of restart time.  This benchmark
builds ingest-runtime directories at two sizes, 4x apart, with the same
checkpoint cadence, and measures:

* the checkpoint leg: per checkpoint, its ``SketchStore.save`` seconds
  and the bytes it wrote (:attr:`SketchStore.last_save`): what it
  appended (its new generation plus the manifest), which follows the
  records since the previous checkpoint, not the stream, so
  ``max_appended_bytes`` should barely move between the sizes; and the
  generation a compacting save merges, whose share
  (``write_amplification``, at most ``1 + rewrite_bound``) grows slowly
  with the number of checkpoints;
* ``run_fsck`` scan-only throughput (records/s and MB/s over every WAL
  CRC frame; checkpoints are checked by manifest and generation CRC,
  not decoded), and
* end-to-end :meth:`IngestRuntime.recover` time (repair-mode scrub,
  checkpoint decode, pre-replay freeze, WAL tail replay and contract
  re-check; median of ``REPEATS`` runs on fresh copies, with best-of
  and spread), also per replayed record as ``replayed_per_recover_s`` —
  the denominator is the whole recovery, not the replay — and
* ``replay_s``: :func:`repro.engine.replay.replay_records` alone, over
  the same tail, into a freshly opened copy of the covering checkpoint;
* ``open_s``: :meth:`SketchStore.open` of that covering checkpoint
  alone (median of ``REPEATS`` opens, with best-of and quartiles), so
  the scrub, the open and the replay are each measured beside the whole
  recovery.

Correctness gates ride along — the scrubbed directory must report
clean, and recovery must land exactly on the ingested sequence — so a
fast-but-wrong scan can never score.

Results are written to ``BENCH_recovery.json`` at the repo root (schema
``bench_recovery/v4``).  Scale record counts with ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any

from conftest import cpu_header, run_once

from repro.engine.replay import replay_records
from repro.eval import harness
from repro.io.generations import rewrite_bound
from repro.runtime import IngestRuntime, run_fsck
from repro.store import SketchStore, StreamSpec

#: Repo-root output consumed by CI and EXPERIMENTS.md.
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_recovery.json"

#: Directory sizes in records (scaled by ``REPRO_BENCH_SCALE``).
SIZES = (5_000, 20_000)

#: Checkpoints over the smaller size; the cadence this sets holds at
#: every size.
CHECKPOINTS_AT_SMALLEST = 5

BATCH = 2_000

#: Timed recoveries (and replays) per size; the median is reported.
REPEATS = 5


def _make_store() -> SketchStore:
    store = SketchStore(width=256, depth=3, seed=harness.BENCH_SEED)
    store.create(
        StreamSpec(name="urls", delta=8, universe=1024, heavy_hitters=True)
    )
    store.create(StreamSpec(name="ads", delta=8))
    return store


def _build_directory(root: Path, n: int, checkpoint_every: int) -> tuple[float, list]:
    """Ingest ``n`` records; returns the build time and, per checkpoint
    after the bootstrap one, ``(save seconds, what it saved)``."""
    runtime = IngestRuntime.create(
        root, _make_store(), checkpoint_every=checkpoint_every
    )
    store = runtime.store
    save = store.save
    saves: list[tuple[float, Any]] = []

    def timed_save(directory, seq=None):
        start = time.perf_counter()
        out = save(directory, seq=seq)
        saves.append((time.perf_counter() - start, store.last_save))
        return out

    store.save = timed_save
    start = time.perf_counter()
    for lo in range(0, n, BATCH):
        count = min(BATCH, n - lo)
        runtime.ingest_batch(
            {"stream": "urls" if i % 3 else "ads", "item": i % 997}
            for i in range(lo, lo + count)
        )
    build_s = time.perf_counter() - start
    runtime.close()
    return build_s, saves


def _bench_size(tmp_root: Path, base: int) -> dict:
    n = harness.scaled(base)
    # One cadence at every size (plus 7 so it never divides a size: the
    # WAL keeps a real replay tail to recover).
    checkpoint_every = (
        harness.scaled(SIZES[0]) // CHECKPOINTS_AT_SMALLEST + 7
    )
    directory = tmp_root / f"rt-{base}"
    build_s, saves = _build_directory(directory, n, checkpoint_every)

    start = time.perf_counter()
    report = run_fsck(directory)
    scan_s = time.perf_counter() - start
    assert report.clean, "a clean build must scrub clean"
    assert report.max_seq_seen == n

    # Each recovery runs on a fresh copy (recovery mutates its directory);
    # the median is the headline, best-of and spread ride beside it.
    recover_runs = []
    for attempt in range(REPEATS):
        target = tmp_root / f"rt-{base}-recover-{attempt}"
        shutil.copytree(directory, target)
        start = time.perf_counter()
        recovered = IngestRuntime.recover(
            target, checkpoint_every=checkpoint_every
        )
        recover_runs.append(time.perf_counter() - start)
        assert recovered.applied_seq == n, "recovery must land on the last ack"
        replayed = recovered.stats.replayed
        assert replayed > 0, "the cadence must leave a tail to replay"
        covered = n - replayed
        tail = list(recovered.wal.replay(covered))
        recovered.close()
        shutil.rmtree(target)
    recover_s = statistics.median(recover_runs)

    open_runs, replay_runs = [], []
    for _attempt in range(REPEATS):
        start = time.perf_counter()
        fresh = SketchStore.open(
            directory / "checkpoints" / f"ckpt-{covered:012d}"
        )
        open_runs.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert replay_records(fresh, iter(tail)) == replayed
        replay_runs.append(time.perf_counter() - start)

    # The bootstrap checkpoint was taken before the save was wrapped.
    seconds = [s for s, _ in saves]
    written = [saved.bytes_written for _, saved in saves]
    merged = [saved.merged_bytes for _, saved in saves]
    appended = [w - m for w, m in zip(written, merged)]
    return {
        "records": n,
        "checkpoint_every": checkpoint_every,
        "wal_bytes": report.scanned_bytes,
        "build_s": build_s,
        "fsck_clean": report.clean,
        "checkpoint": {
            "checkpoints": len(written),
            "save_s": seconds,
            "bytes_written": written,
            "merged_bytes": merged,
            "median_save_s": statistics.median(seconds),
            "max_save_s": max(seconds),
            "last_save_s": seconds[-1],
            # The first checkpoint also writes every component's
            # skeleton; later ones append.
            "max_appended_bytes": max(appended[1:] or appended),
            "max_bytes_written": max(written),
            "amortized_bytes_written": sum(written) / len(written),
            "write_amplification": sum(written) / sum(appended),
            "rewrite_bound": rewrite_bound(saves[-1][1].saves),
        },
        "fsck": {
            "scan_s": scan_s,
            "scanned_records": report.scanned_records,
            "records_per_s": report.scanned_records / scan_s,
            "mb_per_s": report.scanned_bytes / scan_s / 1e6,
        },
        "recover": {
            "recover_s": recover_s,
            "recover_best_s": min(recover_runs),
            "recover_spread_s": max(recover_runs) - min(recover_runs),
            "applied_seq": n,
            "replayed": replayed,
            "replayed_per_recover_s": replayed / recover_s,
            "replay_s": statistics.median(replay_runs),
        },
        "open": {
            "checkpoint": f"ckpt-{covered:012d}",
            "open_s": statistics.median(open_runs),
            "open_best_s": min(open_runs),
            "open_quartiles_s": _quartiles(open_runs),
        },
    }


def _quartiles(runs: list[float]) -> list[float]:
    """First and third quartiles of ``runs``."""
    q1, _median, q3 = statistics.quantiles(runs, n=4)
    return [q1, q3]


def run_benchmark() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        sizes = {
            str(base): _bench_size(Path(tmp), base) for base in SIZES
        }
    small, large = (sizes[str(base)]["checkpoint"] for base in SIZES)
    payload = {
        "schema": "bench_recovery/v4",
        "scale": harness.bench_scale(),
        **cpu_header(),
        "sizes": sizes,
        # The largest append of a checkpoint at the larger size over the
        # smaller (same cadence, stream 4x longer).
        "checkpoint_bytes_ratio": (
            large["max_appended_bytes"] / small["max_appended_bytes"]
        ),
        # Compaction included: mean bytes per checkpoint, larger over
        # smaller.  Reported, not gated: it grows with rewrite_bound.
        "checkpoint_amortized_ratio": (
            large["amortized_bytes_written"] / small["amortized_bytes_written"]
        ),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for name, stats in sizes.items():
        print(
            f"recovery[{name}]: checkpoint appends <= "
            f"{stats['checkpoint']['max_appended_bytes']} B, "
            f"{stats['checkpoint']['amortized_bytes_written']:.0f} B and "
            f"{stats['checkpoint']['median_save_s'] * 1e3:.1f} ms median, "
            f"amplification {stats['checkpoint']['write_amplification']:.2f}, fsck "
            f"{stats['fsck']['records_per_s']:.0f} rec/s "
            f"({stats['fsck']['mb_per_s']:.1f} MB/s), recover "
            f"{stats['recover']['recover_s']:.2f} s "
            f"(open alone {stats['open']['open_s']:.3f} s, "
            f"replay alone {stats['recover']['replay_s']:.3f} s)"
        )
    return payload


def test_recovery_benchmark(benchmark):
    payload = run_once(benchmark, run_benchmark)
    assert OUTPUT.exists()
    for stats in payload["sizes"].values():
        assert stats["fsck"]["records_per_s"] > 0
        assert stats["recover"]["replayed"] > 0
    assert payload["checkpoint_bytes_ratio"] <= 1.2


if __name__ == "__main__":
    run_benchmark()

"""Shared pieces of the served-runtime benchmark.

Everything a workload needs besides its own load loop: locating the
package under ``src/``, the store shape, seeded input generation, the
percentile rule, peak-RSS and the environment header.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
HASH_RANDOM_SEED = "0"


def bootstrap(pin_hash_seed: bool = False) -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Fails loudly when the package is missing, so the benchmark can
    never report numbers for something other than the tree it sits in.
    Contract enforcement is an import-time switch that multiplies the
    cost of every guarded call; the benchmark measures the default
    (unenforced) build, so a stray ``REPRO_CONTRACTS`` is dropped.

    ``SketchStore`` derives each joinable stream's AMS sampling seed
    from ``hash(name)``, which string-hash randomization changes from
    process to process.  With ``pin_hash_seed`` the entry point re-execs
    itself under a fixed ``PYTHONHASHSEED`` (inherited by the daemon),
    so the daemon and the in-process reference store sample alike and
    a seed gives the same self-join estimates on every run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'repro'}")
    if pin_hash_seed and os.environ.get("PYTHONHASHSEED") != HASH_RANDOM_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_RANDOM_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    os.environ.pop("REPRO_CONTRACTS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------- #
# Store shape (shrunk from w=2048, d=5 so each workload spans several
# checkpoint/cutover cycles inside one run; see README.md)
# ---------------------------------------------------------------------- #

WIDTH = 256
DEPTH = 3
DELTA = 50.0
HASH_SEED = 7
STREAMS = ("urls", "clients")


def make_store():
    """``urls``: compact ObjectID ids, heavy hitters + joinable;
    ``clients``: ClientID ids, joinable."""
    from repro.store import SketchStore, StreamSpec

    store = SketchStore(width=WIDTH, depth=DEPTH, join_width=WIDTH, seed=HASH_SEED)
    store.create(
        StreamSpec("urls", delta=DELTA, universe=URL_UNIVERSE, heavy_hitters=True, joinable=True)
    )
    store.create(StreamSpec("clients", delta=DELTA, joinable=True))
    return store


#: Compact ObjectID universe: the generated URL ids are re-numbered
#: densely (``np.unique`` order), which always fits in 2^16.
URL_UNIVERSE = 2**16


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #


class Feed:
    """A seeded two-stream record sequence with global timestamps.

    ``names[i]``/``items[i]`` is record ``i``; its time is ``i + 1``
    (every stream clock stays strictly increasing).  The first
    ``blocked`` records are laid out in alternating per-stream blocks
    of ``block`` records (long same-stream runs); the rest alternate
    record by record (same-stream runs of length 1).
    """

    def __init__(self, seed: int, per_stream: int, blocked: int = 0, block: int = 500):
        import numpy as np

        from repro.streams.worldcup import client_id_stream, object_id_stream

        urls = object_id_stream(per_stream, seed=seed * 2 + 1).items
        _, urls = np.unique(urls, return_inverse=True)
        if urls.max() >= URL_UNIVERSE:
            raise ValueError("compact URL ids overflow the store universe")
        clients = client_id_stream(per_stream, seed=seed * 2 + 2).items
        sources = {"urls": urls.astype(np.int64), "clients": clients.astype(np.int64)}
        names: list[str] = []
        items: list[int] = []
        cursor = {"urls": 0, "clients": 0}

        def take(name: str, k: int) -> None:
            lo = cursor[name]
            chunk = sources[name][lo : lo + k]
            cursor[name] = lo + len(chunk)
            names.extend([name] * len(chunk))
            items.extend(int(x) for x in chunk)

        while len(names) < blocked:
            k = min(block, (blocked - len(names)) // 2 or 1)
            take("urls", k)
            take("clients", k)
        while cursor["urls"] < per_stream and cursor["clients"] < per_stream:
            take("urls", 1)
            take("clients", 1)
        self.names = names
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def records(self, lo: int, hi: int) -> list[dict]:
        """Wire records ``lo .. hi-1`` (explicit times)."""
        return [
            {"stream": self.names[i], "item": self.items[i], "count": 1, "time": i + 1}
            for i in range(lo, min(hi, len(self.items)))
        ]

    def last_time(self, stream: str, upto: int) -> int:
        """Time of ``stream``'s newest record among the first ``upto``."""
        for i in range(min(upto, len(self.names)) - 1, -1, -1):
            if self.names[i] == stream:
                return i + 1
        return 0


def feed_twin(store, feed: Feed, lo: int, hi: int, finalize_at, scratch: Path) -> None:
    """Apply records ``lo .. hi-1`` to an unlogged twin store.

    Same-stream runs go through ``update_batch`` (bit-identical to
    per-record updates); at every sequence number in ``finalize_at`` the
    twin is saved, because a checkpoint save finalizes open PLA runs and
    so shapes later segmentation exactly as it did in the runtime.
    """
    import numpy as np

    cuts = sorted(s for s in finalize_at if lo < s <= hi)
    edges = [lo] + cuts + ([hi] if not cuts or cuts[-1] != hi else [])
    for a, b in zip(edges, edges[1:]):
        for name in STREAMS:
            idx = [i for i in range(a, b) if feed.names[i] == name]
            if idx:
                store.update_batch(
                    name,
                    np.array(idx, dtype=np.int64) + 1,
                    np.array([feed.items[i] for i in idx], dtype=np.int64),
                    np.ones(len(idx), dtype=np.int64),
                )
        if b in finalize_at:
            store.save(scratch / f"twin-{b:012d}")


def probe_items(feed: Feed, stream: str, upto: int, k: int, rng) -> list[int]:
    """``k`` items of ``stream`` drawn from its own first ``upto`` records."""
    pool = [feed.items[i] for i in range(upto) if feed.names[i] == stream]
    return [int(pool[j]) for j in rng.integers(0, len(pool), size=k)]


# ---------------------------------------------------------------------- #
# Statistics and environment
# ---------------------------------------------------------------------- #


def pin_to(index: int) -> list[int] | None:
    """Pin this process to the ``index``-th CPU it may use (modulo the
    count); returns the new affinity, or ``None`` where unsupported."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        chosen = {cpus[index % len(cpus)]}
        os.sched_setaffinity(0, chosen)
    except (AttributeError, OSError):
        return None
    return sorted(chosen)


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(q * count))


def tail_beyond(values, count: int = 10) -> float:
    """The highest percentile with ``count`` samples beyond it: the
    sample with exactly ``count`` above it (the maximum when there are
    too few samples)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    return float(ordered[max(0, len(ordered) - 1 - count)])


def median(values) -> float:
    import statistics

    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def temp_filesystem(path: Path) -> dict:
    """Filesystem type and device behind ``path`` (from /proc/mounts)."""
    best = ("", "unknown", "unknown")
    target = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) >= 3 and (
                    target == parts[1] or target.startswith(parts[1].rstrip("/") + "/")
                ):
                    if len(parts[1]) >= len(best[0]):
                        best = (parts[1], parts[2], parts[0])
    except OSError:
        pass
    return {"mount": best[0], "fstype": best[1], "device": best[2]}


def environment(work: Path, threads: int, connections: int) -> dict:
    """Facts about the host a result depends on (taken before pinning)."""
    import numpy as np

    try:
        affinity: list[int] | None = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpus": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "work_filesystem": temp_filesystem(work),
        "fsync_note": "fsync cost is that of the filesystem above, not of a device",
        "load_generator": {"threads": threads, "connections": connections},
    }

"""Daemon launcher for the ``serve_mixed`` workload.

The ``repro serve`` CLI cannot create joinable streams, so this
benchmark-owned launcher builds the store itself, preloads history
from a records file, starts a :class:`repro.server.SketchServer` on an
ephemeral port and prints ``READY <port>``.  It serves until a line
arrives on stdin (or stdin closes), then stops the server and writes
its own measurements — peak RSS, runtime counters and, when traced,
every span — to ``--out``.

    python3 perfbench/server_proc.py --work DIR --preload FILE.npz \
        --checkpoint-every N --out RESULT.json [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.bootstrap()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--preload", type=Path, required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # Same CPU as the load generator (see serve_mixed.Workload.pinning).
    common.pin_to(0)

    import numpy as np

    from repro.runtime import IngestRuntime
    from repro.server import ServingRuntime, SketchServer

    data = np.load(args.preload)
    codes, items = data["codes"], data["items"]
    preload = len(items)
    # One checkpoint exactly at the end of the preload, then the
    # workload's cadence (positions preload + k * checkpoint_every).
    runtime = IngestRuntime.create(args.work, common.make_store(), checkpoint_every=preload)
    for lo in range(0, preload, 1000):
        runtime.ingest_batch(
            [
                {"stream": common.STREAMS[int(codes[i])], "item": int(items[i]),
                 "count": 1, "time": i + 1}
                for i in range(lo, min(lo + 1000, preload))
            ]
        )
    runtime.checkpoint_every = args.checkpoint_every
    serving = ServingRuntime(runtime)
    server = SketchServer(serving, port=0).start()

    tracer = None
    if args.trace:
        from spans import Tracer, install_server

        tracer = Tracer()
        install_server(tracer)
    print(f"READY {server.address[1]}", flush=True)
    sys.stdin.readline()
    server.stop()
    if tracer is not None:
        tracer.uninstall()
    result = {
        "peak_rss_mb": common.peak_rss_mb(),
        "applied_seq": runtime.applied_seq,
        "checkpoints": runtime.stats.checkpoints,
        "cutovers": serving.cutovers,
        "spans": [] if tracer is None else [list(s) for s in tracer.spans],
    }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

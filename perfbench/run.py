"""Benchmark of the served persistent-sketch runtime.

    python3 perfbench/run.py --workload {serve_mixed,ingest_durable,restart} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Builds nothing: the package is imported
from ``src/``.  Every run sets the workload up several times (the
median is ``setup_s``), measures for ``--seconds`` seconds, then checks
the answers it got against an independent reference; mismatches and
typed wire errors count as failed ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the
time in two halves on fresh set-ups — untraced, then traced with a span
around every call into each layer — and reports the per-layer metrics,
``attributed_share`` and ``trace_overhead``; it fails when less than
90% of the workload's op time is attributed to layer spans.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the full report
(environment header, input properties, gates) is the line before it
and is also written to ``.perfbench/reports/``, spans of a traced run
to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("serve_mixed", "ingest_durable", "restart")
MIN_ATTRIBUTED = 0.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_rate_per_s": "1/s",
}


def _workload(name: str, seed: int, work: Path):
    if name == "serve_mixed":
        import serve_mixed as module
    elif name == "ingest_durable":
        import ingest_durable as module
    else:
        import restart as module
    return module.Workload(seed, work)


def _run_plain(workload, seconds: float) -> tuple[dict, dict]:
    timings = []
    raw = []
    state = None
    speed = workload.speed
    for i in range(workload.setup_repeats):
        # Reference-speed set-up time, as every other time (hostspeed.py).
        speed.probe()
        began = perf_counter()
        state = workload.setup()
        ended = perf_counter()
        speed.probe()
        raw.append(ended - began)
        timings.append(speed.scaled(ended - began, began, ended))
        if i < workload.setup_repeats - 1:
            workload.teardown(state)
    try:
        measured = workload.measure(state, seconds, None)
        attempted, failed, gates = workload.verify(state, measured)
    finally:
        daemon = workload.teardown(state)
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = common.median(timings)
    if "peak_rss_mb" in daemon:
        metrics["peak_rss_mb"] = daemon["peak_rss_mb"]
    report = dict(measured["report"])
    report.update(gates)
    report["setup_s_samples"] = timings
    report["raw_setup_s"] = common.median(raw)
    for key in ("checkpoints", "cutovers"):
        if key in daemon:
            report[key] = daemon[key]
    return (
        {
            "metrics": metrics,
            "attempted": measured["attempted"] + attempted,
            "failed": measured["failed"] + failed,
            "backlog_growth": measured.get("backlog_growth", 0.0),
        },
        report,
    )


def _run_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    from spans import (
        SpanIndex,
        Tracer,
        attributed_share,
        install_client,
        install_server,
        layer_metrics,
    )

    half = seconds / 2.0
    # Untraced half: the baseline the overhead is measured against.
    state = workload.setup()
    try:
        plain = workload.measure(state, half, None)
        attempted, failed, _ = workload.verify(state, plain)
    finally:
        workload.teardown(state)

    tracer = Tracer()
    serve = workload.name == "serve_mixed"
    state = workload.setup(trace=True)
    try:
        if serve:
            install_client(tracer)
        else:
            install_server(tracer)
            install_client(tracer, with_protocol=False)
        try:
            traced = workload.measure(state, half, tracer)
        finally:
            tracer.uninstall()
        attempted2, failed2, gates = workload.verify(state, traced)
    finally:
        daemon = workload.teardown(state)

    spans = list(tracer.spans)
    remote = remote_key = None
    if serve:
        lo, hi = traced["window"]
        offset = 10**9
        server = [
            (s[0] + offset, s[1] + offset if s[1] else 0, s[2], s[3], s[4], ("daemon", s[5]), s[6])
            for s in daemon.get("spans", [])
            if lo <= s[3] <= hi
        ]
        index_server = SpanIndex(server)
        roles: dict = {}
        for s in server:
            verb = (s[6] or {}).get("verb") if s[2] == "protocol.decode" else None
            if verb:
                roles[s[5]] = "write" if verb == "ingest_batch" else "read"
        remote = {}
        for s in server:
            if not s[1] and s[5] in roles:
                remote.setdefault(roles[s[5]], []).append(s)
        for key in remote:
            remote[key].sort(key=lambda s: s[3])
        roots = [s for s in spans if s[2].startswith("client.")]
        remote_key = lambda root: "write" if root[2] == "client.ingest_batch" else "read"  # noqa: E731
        spans = spans + server
        index = SpanIndex(spans)
        layers = layer_metrics(index_server)
    else:
        index = SpanIndex(spans)
        roots = [s for s in spans if s[2].startswith("bench.")]
        layers = layer_metrics(index)
    share, waited = attributed_share(index, roots, remote, remote_key)
    layers["wire.recv_wait_s"] = waited.get("wire.recv", 0.0)
    base = plain["metrics"]["op_p50_ms"]
    layers["attributed_share"] = share
    layers["trace_overhead"] = (traced["metrics"]["op_p50_ms"] - base) / base
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps([list(s) for s in spans]), encoding="utf-8")
    report = {
        "untraced_op_p50_ms": base,
        "traced_op_p50_ms": traced["metrics"]["op_p50_ms"],
        "attributed_share": share,
        "attributed_roots": len(roots),
        "reply_wait_s": waited.get("wire.client_recv", 0.0),
        "spans": len(spans),
        "trace_file": str(trace_path.relative_to(common.ROOT)),
        "traced": traced["report"],
        **gates,
    }
    coverage_failed = share < MIN_ATTRIBUTED
    report["coverage_gate"] = "fail" if coverage_failed else "pass"
    return (
        {
            "metrics": layers,
            "attempted": plain["attempted"] + attempted + traced["attempted"] + attempted2,
            "failed": plain["failed"] + failed + traced["failed"] + failed2,
            "backlog_growth": max(
                plain.get("backlog_growth", 0.0), traced.get("backlog_growth", 0.0)
            ),
            "coverage_failed": coverage_failed,
        },
        report,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="served-runtime benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    common.bootstrap(pin_hash_seed=True)
    from spans import PER_LAYER

    work = common.WORK_ROOT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = _workload(args.workload, args.seed, work)
        environment = common.environment(work, workload.threads, workload.connections)
        environment["pinning"] = getattr(workload, "pinning", None)
        # One CPU for the whole run, so the calibration probes time the
        # CPU the measured work runs on.
        environment["pinned_to"] = common.pin_to(0)
        if args.trace:
            trace_path = common.WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
            outcome, report = _run_traced(workload, args.seconds, trace_path)
            units = dict(PER_LAYER)
        else:
            outcome, report = _run_plain(workload, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = outcome["failed"]
    gates_ok = True
    # An open loop whose backlog grows is no longer offering its rate.
    if outcome["backlog_growth"] > 1.0:
        gates_ok = False
        report["backlog_gate"] = "fail: writer backlog grew over the run"
    if outcome.get("coverage_failed"):
        gates_ok = False
    attempted = max(1, outcome["attempted"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "failed_op_share": failed / attempted,
        **report,
    }
    reports = common.WORK_ROOT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str), encoding="utf-8"
    )
    result = {
        "correct": failed == 0 and gates_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

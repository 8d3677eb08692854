"""In-memory span tracer and the per-layer wrappers of the traced run.

A span is ``(id, parent, name, start, end, thread, attrs)``; ``parent``
is the innermost span open on the same thread when it started (0 for a
root).  Spans stay in a list until the run ends, then get summarized
and written out.  Times come from ``time.perf_counter``, which on Linux
is the system-wide monotonic clock, so spans recorded by the daemon
process line up with the load generator's.

Wrappers are installed where each function is *bound at its call site*:
a method is patched on its class, and a function imported by name into
another module (``freeze_store`` in ``repro.server.serving``,
``run_fsck`` in ``repro.runtime.runtime``, ``load_sketch``/``save_sketch``
in ``repro.store.store``) is patched in that module, because patching
its home module would not reach the importer's own reference.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores
every original.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from common import median, percentile

READ_VERBS = ("point", "point_many", "heavy_hitters", "self_join_size", "window_mass")
CORE_SKETCHES = ("PersistentCountMin", "PersistentHeavyHitters", "PersistentAMS")

_MISSING = object()


class Tracer:
    """Records spans around wrapped calls; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[[tuple, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``on_result(args, result)`` may return span attributes; it runs
        after the span's end time is taken.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if getattr(tracer._local, "muted", False):
                return fn(*args, **kwargs)
            # The span's own bookkeeping falls inside it, not in a gap
            # of its parent.
            start = perf_counter()
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, start, end, threading.get_ident(),
                     {"error": type(exc).__name__})
                )
                raise
            end = perf_counter()
            stack.pop()
            attrs = on_result(args, result) if on_result is not None else None
            tracer.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), attrs)
            )
            return result

        return traced

    @contextlib.contextmanager
    def muted(self):
        """Calls made on this thread inside the block record no spans."""
        self._local.muted = True
        try:
            yield
        finally:
            self._local.muted = False

    def span(self, name: str) -> "_SpanContext":
        """A benchmark-side span (``with tracer.span("bench.op"): ...``)."""
        return _SpanContext(self, name)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[[tuple, Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone later)."""
        raw = owner.__dict__.get(attr, _MISSING)
        current = getattr(owner, attr) if raw is _MISSING else raw
        if isinstance(current, classmethod):
            replacement: Any = classmethod(self.wrap(current.__func__, name, on_result))
        elif isinstance(current, staticmethod):
            replacement = staticmethod(self.wrap(current.__func__, name, on_result))
        else:
            replacement = self.wrap(current, name, on_result)
        self.replace(owner, attr, replacement)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (undone by :meth:`uninstall`)."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.start, end,
             threading.get_ident(), None)
        )


# ---------------------------------------------------------------------- #
# Layer wrappers
# ---------------------------------------------------------------------- #


def _checkpoint_attrs(args: tuple, result: Any) -> dict:
    runtime = args[0]
    size = sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())
    return {"bytes": size, "covered": runtime.applied_seq}


def _serving_ingest_attrs(args: tuple, result: Any) -> dict:
    serving = args[0]
    view = serving.view()
    return {"lag": serving.runtime.applied_seq - (0 if view is None else view.seq)}


class _TracedStream:
    """A connection file whose one I/O method runs inside a span."""

    def __init__(self, stream: Any, method: str, wrapped: Callable) -> None:
        self._stream = stream
        setattr(self, method, wrapped)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._stream, attr)


def _install_wire(tracer: Tracer) -> None:
    """Spans on the daemon's socket reads and writes.

    ``wire.recv`` is the handler's blocking ``readline`` and ``wire.send``
    the reply write; :func:`attributed_share` counts them only as parts
    of a transfer (see :data:`TRANSFERS`).
    """
    from repro.server.daemon import _RequestHandler

    original = _RequestHandler.setup

    def setup(handler: Any) -> None:
        original(handler)
        handler.rfile = _TracedStream(
            handler.rfile, "readline", tracer.wrap(handler.rfile.readline, "wire.recv")
        )
        handler.wfile = _TracedStream(
            handler.wfile, "write", tracer.wrap(handler.wfile.write, "wire.send")
        )

    tracer.replace(_RequestHandler, "setup", setup)


def install_client(tracer: Tracer, with_protocol: bool = True) -> None:
    """Client-side spans: one per request, its socket send (``wire.client_send``)
    and reply read (``wire.client_recv``), plus the frame codec (skip the codec
    when the daemon shares this process and already has it)."""
    from repro.server import protocol
    from repro.server.client import Client

    for verb in READ_VERBS + ("ingest_batch",):
        tracer.patch(Client, verb, f"client.{verb}")
    if with_protocol:
        tracer.patch(protocol, "encode", "protocol.encode", lambda a, r: {"bytes": len(r)})
        tracer.patch(protocol, "decode", "protocol.decode", _decode_attrs)

    original = Client.connect

    def connect(client: Any) -> Any:
        fresh = client._sock is None
        result = original(client)
        if fresh:
            sock, rfile = client._sock, client._rfile
            client._sock = _TracedStream(sock, "sendall", tracer.wrap(sock.sendall, "wire.client_send"))
            client._rfile = _TracedStream(
                rfile, "readline", tracer.wrap(rfile.readline, "wire.client_recv")
            )
        return result

    tracer.replace(Client, "connect", connect)


def _decode_attrs(args: tuple, result: Any) -> dict:
    return {"bytes": len(args[0]), "verb": result.get("verb")}


def install_server(tracer: Tracer) -> None:
    """Every layer below the wire, plus the daemon's side of the wire."""
    import repro.analysis.contracts as contracts
    import repro.engine.frozen as frozen_mod
    import repro.engine.replay as replay_mod
    import repro.runtime.runtime as runtime_mod
    import repro.server.serving as serving_mod
    import repro.store.store as store_mod
    from repro.core.heavy_hitters import PersistentHeavyHitters
    from repro.core.persistent_ams import PersistentAMS
    from repro.core.persistent_countmin import PersistentCountMin
    from repro.engine.frozen import FrozenStoreView
    from repro.runtime.runtime import IngestRuntime
    from repro.runtime.wal import WriteAheadLog
    from repro.server import protocol
    from repro.server.daemon import SketchServer
    from repro.server.serving import ServingRuntime
    from repro.store.store import SketchStore

    tracer.patch(protocol, "encode", "protocol.encode", lambda a, r: {"bytes": len(r)})
    tracer.patch(protocol, "decode", "protocol.decode", _decode_attrs)
    _install_wire(tracer)
    tracer.patch(SketchServer, "dispatch", "daemon.dispatch")
    tracer.patch(SketchServer, "start", "daemon.start")
    for verb in READ_VERBS:
        tracer.patch(ServingRuntime, verb, f"serving.{verb}")
    tracer.patch(ServingRuntime, "ingest_batch", "serving.ingest_batch", _serving_ingest_attrs)
    tracer.patch(
        ServingRuntime, "maybe_cutover", "serving.maybe_cutover",
        lambda a, r: {"swapped": bool(r.get("swapped"))},
    )
    tracer.patch(
        IngestRuntime, "ingest_batch", "runtime.ingest_batch", lambda a, r: {"records": r}
    )
    tracer.patch(IngestRuntime, "checkpoint", "runtime.checkpoint", _checkpoint_attrs)
    tracer.patch(IngestRuntime, "recover", "runtime.recover")
    tracer.patch(
        WriteAheadLog, "append_many", "wal.append_many",
        lambda a, r: {"records": len(a[1])},
    )
    tracer.patch(
        runtime_mod, "run_fsck", "fsck.run_fsck",
        lambda a, r: {"records": r.scanned_records, "bytes": r.scanned_bytes},
    )
    tracer.patch(
        SketchStore, "update_batch", "store.update_batch",
        lambda a, r: {"records": len(a[2])},
    )
    tracer.patch(SketchStore, "save", "store.save")
    tracer.patch(SketchStore, "open", "store.open")
    for verb in ("point", "heavy_hitters", "self_join_size", "window_mass"):
        tracer.patch(SketchStore, verb, f"store.{verb}")
    tracer.patch(store_mod, "save_sketch", "io.save")
    tracer.patch(store_mod, "load_sketch", "io.load")
    for cls in (PersistentCountMin, PersistentHeavyHitters, PersistentAMS):
        tracer.patch(cls, "ingest_batch", f"core.{cls.__name__}.ingest_batch")
    tracer.patch(replay_mod, "replay_records", "replay.replay_records", lambda a, r: {"records": r})
    tracer.patch(serving_mod, "freeze_store", "frozen.freeze_store")
    tracer.patch(frozen_mod, "freeze_store", "frozen.freeze_store")
    for verb in READ_VERBS:
        tracer.patch(FrozenStoreView, verb, f"frozen.{verb}")
    tracer.patch(contracts, "check_store", "contracts.check_store")


# ---------------------------------------------------------------------- #
# Summaries
# ---------------------------------------------------------------------- #

#: Every per-layer metric the traced run reports, with its unit.  A
#: layer a workload does not exercise reports 0 (see README.md).
PER_LAYER: list[tuple[str, str]] = [
    ("protocol.decode.calls", "count"),
    ("protocol.decode.self_s", "s"),
    ("protocol.encode.self_s", "s"),
    ("protocol.bytes_in_per_op", "bytes"),
    ("protocol.bytes_out_per_op", "bytes"),
    ("wire.recv_wait_s", "s"),
    ("wire.send.self_s", "s"),
    ("daemon.dispatch.calls", "count"),
    ("daemon.dispatch.self_s", "s"),
    ("serving.read.calls", "count"),
    ("serving.read.frozen_share", "ratio"),
    ("serving.live_wait_s", "s"),
    ("serving.ingest_batch.wait_s", "s"),
    ("serving.maybe_cutover.swaps", "count"),
    ("serving.maybe_cutover.p50_ms", "ms"),
    ("serving.maybe_cutover.max_ms", "ms"),
    ("serving.view_lag_records", "records"),
    ("runtime.ingest_batch.calls", "count"),
    ("runtime.ingest_batch.self_s", "s"),
    ("runtime.records_per_update_batch", "records"),
    ("runtime.checkpoint.calls", "count"),
    ("runtime.checkpoint.self_s", "s"),
    ("wal.append_many.calls", "count"),
    ("wal.append_many.self_s", "s"),
    ("wal.append_many.p99_ms", "ms"),
    ("wal.records_per_fsync", "records"),
    ("fsck.run_fsck.self_s", "s"),
    ("fsck.scanned_records", "records"),
    ("fsck.scanned_bytes", "bytes"),
    ("store.update_batch.calls", "count"),
    ("store.update_batch.self_s", "s"),
    ("store.save.calls", "count"),
    ("store.save.self_s", "s"),
    ("store.save.max_ms", "ms"),
    ("store.open.calls", "count"),
    ("store.open.self_s", "s"),
    ("store.query.self_s", "s"),
    ("io.save.self_s", "s"),
    ("io.load.self_s", "s"),
    ("io.checkpoint_bytes_per_record", "bytes/record"),
    ("core.PersistentCountMin.ingest_batch.self_s", "s"),
    ("core.PersistentHeavyHitters.ingest_batch.self_s", "s"),
    ("core.PersistentAMS.ingest_batch.self_s", "s"),
    ("replay.replay_records.self_s", "s"),
    ("replay.records", "records"),
    ("frozen.freeze_store.calls", "count"),
    ("frozen.freeze_store.self_s", "s"),
    ("frozen.point.self_s", "s"),
    ("frozen.point.p50_us", "us"),
    ("frozen.point_many.self_s", "s"),
    ("frozen.point_many.p50_us", "us"),
    ("frozen.heavy_hitters.self_s", "s"),
    ("frozen.self_join_size.self_s", "s"),
    ("contracts.check_store.self_s", "s"),
    ("attributed_share", "ratio"),
    ("trace_overhead", "ratio"),
]


class SpanIndex:
    """Spans of one or more processes, with children and self time.

    ``spans`` entries are ``(id, parent, name, start, end, thread,
    attrs)`` with ids and threads already unique across processes.
    """

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            if s[1]:
                self.children.setdefault(s[1], []).append(s)

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def self_time(self, span: tuple) -> float:
        kids = self.children.get(span[0], ())
        return (span[4] - span[3]) - sum(k[4] - k[3] for k in kids)

    def self_s(self, *names: str) -> float:
        return sum(self.self_time(s) for s in self.spans if s[2] in names)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[4] - s[3]) * 1e3 for s in self.named(name)]

    def has_ancestor(self, span: tuple, name: str) -> bool:
        parent = span[1]
        while parent:
            up = self.by_id.get(parent)
            if up is None:
                return False
            if up[2] == name:
                return True
            parent = up[1]
        return False

    def under_client(self, span: tuple) -> bool:
        """True for spans a client call made (the load generator's side)."""
        parent = span[1]
        while parent and parent in self.by_id:
            up = self.by_id[parent]
            if up[2].startswith("client."):
                return True
            parent = up[1]
        return False


def _attr_sum(spans: list[tuple], key: str) -> float:
    return float(sum((s[6] or {}).get(key, 0) for s in spans))


def layer_metrics(index: SpanIndex) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except the two run-level ratios."""
    out: dict[str, float] = {}
    server_side = [
        s for s in index.spans
        if s[2].startswith("protocol.") and not index.under_client(s)
    ]
    decodes = [s for s in server_side if s[2] == "protocol.decode"]
    encodes = [s for s in server_side if s[2] == "protocol.encode"]
    out["protocol.decode.calls"] = len(decodes)
    out["protocol.decode.self_s"] = sum(index.self_time(s) for s in decodes)
    out["protocol.encode.self_s"] = sum(index.self_time(s) for s in encodes)
    out["protocol.bytes_in_per_op"] = _attr_sum(decodes, "bytes") / len(decodes) if decodes else 0.0
    out["protocol.bytes_out_per_op"] = _attr_sum(encodes, "bytes") / len(encodes) if encodes else 0.0
    out["wire.recv_wait_s"] = 0.0  # filled in by attributed_share's caller
    out["wire.send.self_s"] = index.self_s("wire.send")
    out["daemon.dispatch.calls"] = len(index.named("daemon.dispatch"))
    out["daemon.dispatch.self_s"] = index.self_s("daemon.dispatch")

    reads = [s for s in index.spans if s[2] in {f"serving.{v}" for v in READ_VERBS}]
    frozen_reads = live_wait = 0.0
    for read in reads:
        kids = index.children.get(read[0], ())
        live = [k for k in kids if k[2].startswith("store.")]
        if live:
            live_wait += (read[4] - read[3]) - sum(k[4] - k[3] for k in live)
        elif any(k[2].startswith("frozen.") for k in kids):
            frozen_reads += 1
    out["serving.read.calls"] = len(reads)
    out["serving.read.frozen_share"] = frozen_reads / len(reads) if reads else 0.0
    out["serving.live_wait_s"] = live_wait
    wait = 0.0
    ingests = index.named("serving.ingest_batch")
    for span in ingests:
        inner = [k for k in index.children.get(span[0], ()) if k[2] == "runtime.ingest_batch"]
        wait += (span[4] - span[3]) - sum(k[4] - k[3] for k in inner)
    out["serving.ingest_batch.wait_s"] = wait
    swaps = [s for s in index.named("serving.maybe_cutover") if (s[6] or {}).get("swapped")]
    swap_ms = [(s[4] - s[3]) * 1e3 for s in swaps]
    out["serving.maybe_cutover.swaps"] = len(swaps)
    out["serving.maybe_cutover.p50_ms"] = median(swap_ms) if swap_ms else 0.0
    out["serving.maybe_cutover.max_ms"] = max(swap_ms) if swap_ms else 0.0
    lags = [(s[6] or {}).get("lag", 0) for s in ingests]
    out["serving.view_lag_records"] = median(lags) if lags else 0.0

    batches = index.named("runtime.ingest_batch")
    out["runtime.ingest_batch.calls"] = len(batches)
    out["runtime.ingest_batch.self_s"] = index.self_s("runtime.ingest_batch")
    runs = [
        s for s in index.named("store.update_batch")
        if index.has_ancestor(s, "runtime.ingest_batch")
    ]
    out["runtime.records_per_update_batch"] = _attr_sum(runs, "records") / len(runs) if runs else 0.0
    out["runtime.checkpoint.calls"] = len(index.named("runtime.checkpoint"))
    out["runtime.checkpoint.self_s"] = index.self_s("runtime.checkpoint")

    appends = index.named("wal.append_many")
    out["wal.append_many.calls"] = len(appends)
    out["wal.append_many.self_s"] = index.self_s("wal.append_many")
    append_ms = index.durations_ms("wal.append_many")
    out["wal.append_many.p99_ms"] = percentile(append_ms, 0.99) if append_ms else 0.0
    out["wal.records_per_fsync"] = _attr_sum(appends, "records") / len(appends) if appends else 0.0

    fscks = index.named("fsck.run_fsck")
    out["fsck.run_fsck.self_s"] = index.self_s("fsck.run_fsck")
    out["fsck.scanned_records"] = _attr_sum(fscks, "records")
    out["fsck.scanned_bytes"] = _attr_sum(fscks, "bytes")

    out["store.update_batch.calls"] = len(index.named("store.update_batch"))
    out["store.update_batch.self_s"] = index.self_s("store.update_batch")
    out["store.save.calls"] = len(index.named("store.save"))
    out["store.save.self_s"] = index.self_s("store.save")
    saves_ms = index.durations_ms("store.save")
    out["store.save.max_ms"] = max(saves_ms) if saves_ms else 0.0
    out["store.open.calls"] = len(index.named("store.open"))
    out["store.open.self_s"] = index.self_s("store.open")
    out["store.query.self_s"] = index.self_s(
        "store.point", "store.heavy_hitters", "store.self_join_size", "store.window_mass"
    )
    out["io.save.self_s"] = index.self_s("io.save")
    out["io.load.self_s"] = index.self_s("io.load")
    ratios = [
        s[6]["bytes"] / s[6]["covered"]
        for s in index.named("runtime.checkpoint")
        if s[6] and s[6].get("covered")
    ]
    out["io.checkpoint_bytes_per_record"] = median(ratios) if ratios else 0.0
    for cls in CORE_SKETCHES:
        out[f"core.{cls}.ingest_batch.self_s"] = index.self_s(f"core.{cls}.ingest_batch")
    out["replay.replay_records.self_s"] = index.self_s("replay.replay_records")
    out["replay.records"] = _attr_sum(index.named("replay.replay_records"), "records")
    out["frozen.freeze_store.calls"] = len(index.named("frozen.freeze_store"))
    out["frozen.freeze_store.self_s"] = index.self_s("frozen.freeze_store")
    for verb in ("point", "point_many", "heavy_hitters", "self_join_size"):
        out[f"frozen.{verb}.self_s"] = index.self_s(f"frozen.{verb}")
    for verb in ("point", "point_many"):
        values = index.durations_ms(f"frozen.{verb}")
        out[f"frozen.{verb}.p50_us"] = median(values) * 1e3 if values else 0.0
    out["contracts.check_store.self_s"] = index.self_s("contracts.check_store")
    return out


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


#: Each blocking read with the peer's write that feeds it.  A read opens
#: while its connection is idle, and a writer that wakes its reader may
#: be preempted before its write returns, so neither span counts on its
#: own: the pair covers the transfer, from the start of the write to the
#: end of the read (see :func:`attributed_share`).
TRANSFERS = (("wire.client_send", "wire.recv"), ("wire.send", "wire.client_recv"))


def _transfer(writes: list[tuple], spans: list[tuple], read: str) -> tuple[float, float, float] | None:
    """``(start, end, wait)`` of the transfer from the first of
    ``writes`` to its ``read`` among ``spans``: write start to read end,
    and the read's time past the write's end (the bytes in flight plus
    the reader's wake-up)."""
    if not writes:
        return None
    w = writes[0]
    reads = [s for s in spans if s[2] == read and s[4] >= w[3]]
    if not reads:
        return None
    r = min(reads, key=lambda s: s[4])
    return w[3], r[4], max(0.0, r[4] - w[4])


def attributed_share(
    index: SpanIndex,
    roots: list[tuple],
    remote: dict[Any, list[tuple]] | None = None,
    remote_key: Callable[[tuple], Any] | None = None,
) -> tuple[float, dict[str, float]]:
    """Share of the root spans' wall time covered by layer spans.

    Covered time is the union of each root's direct children and, for
    requests answered by another process, of that process's root spans
    on the serving connection (``remote[remote_key(root)]``), clipped to
    the root's interval.  The socket spans of :data:`TRANSFERS` count
    only as their transfer interval; a read with no matching write
    counts not at all.  Also returns, per read span name, the summed
    wait of its transfers.
    """
    wall = covered = 0.0
    waited: dict[str, float] = {}
    sockets = {name for pair in TRANSFERS for name in pair}
    starts = {key: [s[3] for s in spans] for key, spans in (remote or {}).items()}
    for root in roots:
        lo, hi = root[3], root[4]
        spans = list(index.children.get(root[0], ()))
        if remote and remote_key is not None:
            key = remote_key(root)
            mine = remote.get(key, [])
            # Spans on one connection never overlap, so only the span
            # open when the request began can start before it.
            first = max(0, bisect.bisect_left(starts.get(key, []), lo) - 1)
            for span in mine[first:]:
                if span[3] >= hi:
                    break
                if span[4] > lo:
                    spans.append(span)
        intervals = [(s[3], s[4]) for s in spans if s[2] not in sockets]
        for write, read in TRANSFERS:
            # A write that began before the request is the previous
            # reply's, its writer preempted by this request's client.
            writes = [s for s in spans if s[2] == write and s[3] >= lo]
            transfer = _transfer(writes, spans, read)
            if transfer is None:
                intervals += [(s[3], s[4]) for s in writes]
                continue
            intervals.append(transfer[:2])
            waited[read] = waited.get(read, 0.0) + transfer[2]
        wall += hi - lo
        covered += _union_length(intervals, lo, hi)
    return (covered / wall if wall > 0 else 0.0), waited

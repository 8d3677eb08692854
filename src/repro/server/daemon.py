"""The sketch-serving TCP daemon.

:class:`SketchServer` pairs a :class:`~repro.server.serving.ServingRuntime`
with a ``socketserver.ThreadingTCPServer`` speaking the JSON-lines
protocol of :mod:`repro.server.protocol`, plus a background ticker that
drives :meth:`ServingRuntime.maybe_cutover` so the frozen view keeps
pace with checkpointing without any reader or writer asking for it.

Exception policy per request: anything that is an :class:`Exception`
becomes a typed error response and the connection lives on.
:class:`~repro.runtime.faults.SimulatedCrash` (a ``BaseException``,
raised by an armed :class:`~repro.runtime.faults.FaultPlan` mid-ingest)
instead kills the whole server abruptly — no response to the in-flight
request, no WAL seal, no checkpoint — emulating ``kill -9`` for the
crash/restart test matrix.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any, BinaryIO

from repro.runtime.faults import SimulatedCrash
from repro.server import protocol
from repro.server.protocol import BadRequestError
from repro.server.serving import ServingRuntime

_MISSING = object()


def _param(message: dict[str, Any], key: str, default: Any = _MISSING) -> Any:
    value = message.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise BadRequestError(f"missing required parameter {key!r}")
        return default
    return value


def _str_param(message: dict[str, Any], key: str, default: Any = _MISSING) -> Any:
    value = _param(message, key, default)
    if value is not default and not isinstance(value, str):
        raise BadRequestError(f"parameter {key!r} must be a string")
    return value


def _int_param(message: dict[str, Any], key: str, default: Any = _MISSING) -> Any:
    value = _param(message, key, default)
    if value is default:
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"parameter {key!r} must be an integer")
    return value


def _num_param(message: dict[str, Any], key: str, default: Any = _MISSING) -> Any:
    value = _param(message, key, default)
    if value is default or value is None:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"parameter {key!r} must be a number")
    return float(value)


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "SketchServer"

    def handle_error(self, request: Any, client_address: Any) -> None:
        # Disconnects mid-write are routine; everything else keeps the
        # default traceback-to-stderr behaviour.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, OSError)):
            return
        super().handle_error(request, client_address)


class _RequestHandler(socketserver.StreamRequestHandler):
    """One thread per connection; requests on a connection run in order."""

    def handle(self) -> None:
        server: SketchServer = self.server.owner  # type: ignore[attr-defined]
        rfile: BinaryIO = self.rfile
        while True:
            line = rfile.readline(protocol.MAX_LINE_BYTES + 1)
            if not line:
                return
            if not line.strip():
                continue
            if len(line) > protocol.MAX_LINE_BYTES:
                self._respond(
                    None,
                    error=protocol.error_payload(
                        BadRequestError(
                            f"frame exceeds {protocol.MAX_LINE_BYTES} bytes"
                        )
                    ),
                )
                return
            request_id: Any = None
            try:
                message = protocol.decode(line)
                request_id = message.get("id")
                result = server.dispatch(message)
            except protocol.ProtocolError as exc:
                # Framing is broken; answer once, then drop the link.
                self._respond(
                    request_id,
                    error=protocol.error_payload(BadRequestError(str(exc))),
                )
                return
            except SimulatedCrash:
                server._abrupt_stop()
                return  # the in-flight request dies unanswered, like kill -9
            except Exception as exc:  # sketchlint: disable=SL004 — protocol boundary: every Exception becomes a typed error response
                self._respond(request_id, error=protocol.error_payload(exc))
                continue
            self.wfile.write(
                protocol.encode({"id": request_id, "ok": True, "result": result})
            )
            self.wfile.flush()

    def _respond(self, request_id: Any, error: dict[str, Any]) -> None:
        self.wfile.write(
            protocol.encode({"id": request_id, "ok": False, "error": error})
        )
        self.wfile.flush()


class SketchServer:
    """Long-lived daemon owning a serving runtime on a TCP socket.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address` after construction.  :meth:`start` spawns the
    accept loop and the cutover ticker and builds the initial frozen
    view from the newest on-disk checkpoint; :meth:`stop` shuts down
    gracefully (the WAL tail is sealed via ``runtime.close()``).
    """

    def __init__(
        self,
        serving: ServingRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cutover_poll_s: float = 0.25,
    ) -> None:
        self.serving = serving
        self.cutover_poll_s = cutover_poll_s
        self.last_cutover_error: BaseException | None = None
        self._tcp = _ThreadingServer((host, port), _RequestHandler)
        self._tcp.owner = self
        self._stop = threading.Event()
        self._crashed = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` bindings."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    @property
    def crashed(self) -> bool:
        """True once a :class:`SimulatedCrash` killed the server."""
        return self._crashed.is_set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SketchServer":
        """Build the initial view, then serve in background threads."""
        self.serving.maybe_cutover(force=True)
        accept = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-accept",
            daemon=True,
        )
        ticker = threading.Thread(
            target=self._cutover_loop, name="repro-serve-cutover", daemon=True
        )
        accept.start()
        ticker.start()
        self._threads = [accept, ticker]
        return self

    def __enter__(self) -> "SketchServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _cutover_loop(self) -> None:
        while not self._stop.wait(self.cutover_poll_s):
            try:
                self.serving.maybe_cutover()
            except Exception as exc:  # sketchlint: disable=SL004 — cutover must never kill the daemon; the error is surfaced on the server object
                self.last_cutover_error = exc

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, seal the WAL."""
        self._stop.set()
        self._tcp.shutdown()
        self._tcp.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        if not self._crashed.is_set():
            self.serving.close()

    def _abrupt_stop(self) -> None:
        """Simulated process death: nothing is sealed or checkpointed."""
        if self._crashed.is_set():
            return
        self._crashed.set()
        self._stop.set()
        # shutdown() must not run on a handler thread (it would deadlock
        # waiting for serve_forever to acknowledge while we hold it up).
        threading.Thread(
            target=self._close_tcp, name="repro-serve-crash", daemon=True
        ).start()

    def _close_tcp(self) -> None:
        try:
            self._tcp.shutdown()
            self._tcp.server_close()
        except OSError:  # sketchlint: disable=SL016 — already dying abruptly
            pass

    def serve_until_stopped(self) -> None:
        """Block the calling thread until :meth:`stop` (or a crash)."""
        self._stop.wait()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def dispatch(self, message: dict[str, Any]) -> Any:
        """Execute one decoded request; returns the JSON-safe result."""
        if self._crashed.is_set():
            # Connections that outlive the crash die unanswered too.
            raise SimulatedCrash("server crashed")
        verb = _str_param(message, "verb")
        handler = self._VERBS.get(verb)
        if handler is None:
            raise BadRequestError(f"unknown verb {verb!r}")
        return handler(self, message)

    # --- writes -------------------------------------------------------- #

    def _verb_ingest(self, message: dict[str, Any]) -> bool:
        record = _param(message, "record")
        return self.serving.ingest(record)

    def _verb_ingest_batch(self, message: dict[str, Any]) -> int:
        records = _param(message, "records")
        if not isinstance(records, list):
            raise BadRequestError("parameter 'records' must be a list")
        return self.serving.ingest_batch(records)

    # --- reads --------------------------------------------------------- #

    def _verb_point(self, message: dict[str, Any]) -> float:
        return self.serving.point(
            _str_param(message, "stream"),
            _int_param(message, "item"),
            s=_num_param(message, "s", 0.0),
            t=_num_param(message, "t", None),
            mode=_str_param(message, "mode", "auto"),
        )

    def _verb_point_many(self, message: dict[str, Any]) -> list[float]:
        items = _param(message, "items")
        if not isinstance(items, list):
            raise BadRequestError("parameter 'items' must be a list")
        return self.serving.point_many(
            _str_param(message, "stream"),
            items,
            windows=_param(message, "windows", None),
            mode=_str_param(message, "mode", "auto"),
        )

    def _verb_heavy_hitters(self, message: dict[str, Any]) -> list[list[float]]:
        hits = self.serving.heavy_hitters(
            _str_param(message, "stream"),
            _num_param(message, "phi"),
            s=_num_param(message, "s", 0.0),
            t=_num_param(message, "t", None),
            mode=_str_param(message, "mode", "auto"),
        )
        # JSON objects only take string keys; ship sorted [item, est] pairs.
        return [
            [item, est]
            for item, est in sorted(hits.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def _verb_self_join_size(self, message: dict[str, Any]) -> float:
        return self.serving.self_join_size(
            _str_param(message, "stream"),
            s=_num_param(message, "s", 0.0),
            t=_num_param(message, "t", None),
            mode=_str_param(message, "mode", "auto"),
        )

    def _verb_window_mass(self, message: dict[str, Any]) -> float:
        return self.serving.window_mass(
            _str_param(message, "stream"),
            s=_num_param(message, "s", 0.0),
            t=_num_param(message, "t", None),
            mode=_str_param(message, "mode", "auto"),
        )

    # --- admin --------------------------------------------------------- #

    def _verb_ping(self, message: dict[str, Any]) -> str:
        return "pong"

    def _verb_health(self, message: dict[str, Any]) -> dict[str, Any]:
        return self.serving.health()

    def _verb_describe(self, message: dict[str, Any]) -> dict[str, Any]:
        return self.serving.describe()

    def _verb_fsck(self, message: dict[str, Any]) -> dict[str, Any]:
        return self.serving.fsck()

    def _verb_cutover(self, message: dict[str, Any]) -> dict[str, Any]:
        force = _param(message, "force", True)
        if not isinstance(force, bool):
            raise BadRequestError("parameter 'force' must be a boolean")
        return self.serving.maybe_cutover(force=force)

    _VERBS = {
        "ingest": _verb_ingest,
        "ingest_batch": _verb_ingest_batch,
        "point": _verb_point,
        "point_many": _verb_point_many,
        "heavy_hitters": _verb_heavy_hitters,
        "self_join_size": _verb_self_join_size,
        "window_mass": _verb_window_mass,
        "ping": _verb_ping,
        "health": _verb_health,
        "describe": _verb_describe,
        "fsck": _verb_fsck,
        "cutover": _verb_cutover,
    }

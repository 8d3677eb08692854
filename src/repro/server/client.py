"""Blocking client for the sketch-serving daemon.

One :class:`Client` owns one TCP connection, lazily opened on first
use and reused across calls.  A connection that dies is torn down and
re-opened transparently on the *next* call — never retried for the
failed call itself, because an ingest whose reply was lost may already
have been applied and WAL-logged server-side; blind retry would
double-count.  Callers that need at-least-once delivery should compare
``describe()["applied_seq"]`` against their own send count and re-send
the tail, exactly as the crash/restart tests do.

Server-side failures re-raise as the same exception classes the
embedded API uses — :class:`~repro.runtime.health.DegradedError`,
:class:`~repro.runtime.policies.MalformedRecordError`,
:class:`~repro.runtime.policies.LateRecordError`, :class:`KeyError`,
:class:`ValueError` — plus :class:`~repro.server.protocol.ServerError`
for anything unclassified (see :func:`repro.server.protocol.raise_for_error`).
"""

from __future__ import annotations

import socket
from typing import Any, BinaryIO, Iterable, Sequence

from repro.server import protocol


class Client:
    """JSON-lines protocol client with connection reuse and timeouts."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, timeout: float = 10.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile: BinaryIO | None = None
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #

    def connect(self) -> "Client":
        """Open the connection now (otherwise the first call does it)."""
        if self._sock is not None:
            return self
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        """Drop the connection; the client stays usable (reconnects)."""
        rfile, sock = self._rfile, self._sock
        self._rfile = None
        self._sock = None
        for closable in (rfile, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:  # sketchlint: disable=SL016 — teardown only
                    pass

    def __enter__(self) -> "Client":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request plumbing
    # ------------------------------------------------------------------ #

    def _call(self, verb: str, **params: Any) -> Any:
        payload: dict[str, Any] = {"id": self._next_id, "verb": verb, **params}
        self._next_id += 1
        if self._sock is None:
            self.connect()
        sock, rfile = self._sock, self._rfile
        if sock is None or rfile is None:
            raise ConnectionError("connection lost before the request was sent")
        try:
            sock.sendall(protocol.encode(payload))
            line = rfile.readline(protocol.MAX_LINE_BYTES + 1)
        except TimeoutError:
            self.close()
            raise TimeoutError(
                f"server at {self.host}:{self.port} did not answer "
                f"{verb!r} within {self.timeout}s"
            ) from None
        except OSError as exc:
            self.close()
            raise ConnectionError(
                f"connection to {self.host}:{self.port} failed: {exc}"
            ) from exc
        if not line:
            self.close()
            raise ConnectionError(
                f"server at {self.host}:{self.port} closed the connection"
            )
        reply = protocol.decode(line)
        if reply.get("id") != payload["id"]:
            self.close()
            raise protocol.ProtocolError(
                f"response id {reply.get('id')!r} does not match request "
                f"id {payload['id']!r}"
            )
        if reply.get("ok"):
            return reply.get("result")
        protocol.raise_for_error(reply.get("error") or {})

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def ingest(  # sketchlint: disable=SL014 — monotonicity is enforced server-side by IngestRuntime's per-stream clock guard
        self,
        stream: str,
        item: int,
        count: int = 1,
        time: int | None = None,
    ) -> bool:
        """Ingest one record; False means the policy skipped/quarantined it."""
        record: dict[str, Any] = {"stream": stream, "item": item, "count": count}
        if time is not None:
            record["time"] = time
        return bool(self._call("ingest", record=record))

    def ingest_record(self, record: dict[str, Any]) -> bool:
        """Ingest one raw record dict, policy checks included."""
        return bool(self._call("ingest", record=record))

    def ingest_batch(self, records: Iterable[dict[str, Any]]) -> int:
        """Ingest a batch of raw record dicts; returns the applied count."""
        return int(self._call("ingest_batch", records=list(records)))

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def point(
        self,
        stream: str,
        item: int,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window frequency estimate for ``item`` over ``(s, t]``."""
        return float(
            self._call("point", stream=stream, item=item, s=s, t=t, mode=mode)
        )

    def point_many(
        self,
        stream: str,
        items: Sequence[int],
        windows: Any = None,
        mode: str = "auto",
    ) -> list[float]:
        """Batched point queries; see ``ServingRuntime.point_many``."""
        result = self._call(
            "point_many",
            stream=stream,
            items=list(items),
            windows=windows,
            mode=mode,
        )
        return [float(v) for v in result]

    def heavy_hitters(
        self,
        stream: str,
        phi: float,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> dict[int, float]:
        """Window heavy hitters as ``{item: estimate}``."""
        pairs = self._call(
            "heavy_hitters", stream=stream, phi=phi, s=s, t=t, mode=mode
        )
        return {int(item): float(est) for item, est in pairs}

    def self_join_size(
        self,
        stream: str,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window second frequency moment estimate."""
        return float(
            self._call("self_join_size", stream=stream, s=s, t=t, mode=mode)
        )

    def window_mass(
        self,
        stream: str,
        s: float = 0,
        t: float | None = None,
        mode: str = "auto",
    ) -> float:
        """Window L1 mass estimate."""
        return float(
            self._call("window_mass", stream=stream, s=s, t=t, mode=mode)
        )

    # ------------------------------------------------------------------ #
    # Admin
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Round-trip liveness probe."""
        return self._call("ping") == "pong"

    def health(self) -> dict[str, Any]:
        """Health snapshot, including the ``serving`` block."""
        return dict(self._call("health"))

    def describe(self) -> dict[str, Any]:
        """Full runtime description, including the ``serving`` block."""
        return dict(self._call("describe"))

    def fsck(self) -> dict[str, Any]:
        """Scan-only durability audit of the server's directory."""
        return dict(self._call("fsck"))

    def cutover(self, force: bool = True) -> dict[str, Any]:
        """Ask the server to advance its frozen view now."""
        return dict(self._call("cutover", force=force))

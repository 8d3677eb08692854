"""Sketch-serving daemon: a long-lived network service over a runtime.

The package splits along the classic client/server seam:

:mod:`repro.server.protocol`
    The JSON-lines wire format and the typed-error mapping shared by
    both ends.
:mod:`repro.server.serving`
    :class:`ServingRuntime` — the lambda-style serving state machine
    (frozen past + live tail) over one
    :class:`~repro.runtime.IngestRuntime`, independent of any socket.
:mod:`repro.server.daemon`
    :class:`SketchServer` — the threaded TCP daemon speaking the
    protocol, with the background cutover ticker.
:mod:`repro.server.client`
    :class:`Client` — blocking client with connection reuse, timeouts
    and typed errors (including
    :class:`~repro.runtime.health.DegradedError` passthrough).

``repro serve`` (see :mod:`repro.cli`) is the operator entry point; see
``docs/serving.md`` for the protocol, the cutover model and the failure
modes.
"""

from __future__ import annotations

from repro.server.client import Client
from repro.server.daemon import SketchServer
from repro.server.protocol import (
    BadRequestError,
    ProtocolError,
    ServerError,
)
from repro.server.serving import ServingRuntime, ServingView

__all__ = [
    "BadRequestError",
    "Client",
    "ProtocolError",
    "ServerError",
    "ServingRuntime",
    "ServingView",
    "SketchServer",
]

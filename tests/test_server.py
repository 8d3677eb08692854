"""Socket-level tests for the sketch-serving daemon.

Everything here exercises the real TCP path: a :class:`SketchServer`
bound to an ephemeral port, real :class:`repro.server.Client` instances
(or raw sockets, for the framing tests), concurrent reader/writer
clients, and a scripted mid-ingest crash whose recovery must answer
bit-identically to an uninterrupted twin.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.runtime import (
    DegradedError,
    FaultPlan,
    IngestPolicy,
    IngestRuntime,
    LateRecordError,
    MalformedRecordError,
)
from repro.engine.frozen import _SCALAR_PROBES_MAX
from repro.server import (
    BadRequestError,
    Client,
    ServerError,
    ServingRuntime,
    SketchServer,
)
from repro.store import SketchStore, StreamSpec

CHECKPOINT_EVERY = 50
UNIVERSE = 32


def make_store():
    store = SketchStore(width=64, depth=3, join_width=64, seed=11)
    store.create(
        StreamSpec(
            name="urls",
            delta=4,
            universe=UNIVERSE,
            heavy_hitters=True,
            joinable=True,
            quantiles=True,
        )
    )
    store.create(StreamSpec(name="ads", delta=4, joinable=True))
    return store


def make_records(n, start=0):
    return [
        {
            "stream": "urls" if i % 3 else "ads",
            "item": (7 * i) % UNIVERSE,
            "count": 1 + (i % 3),
            "time": i + 1,
        }
        for i in range(start, start + n)
    ]


def start_server(tmp_path, name="srv", faults=None, **serving_kwargs):
    runtime = IngestRuntime.create(
        tmp_path / name,
        make_store(),
        checkpoint_every=CHECKPOINT_EVERY,
        faults=faults,
        sleep=lambda _t: None,
    )
    serving = ServingRuntime(runtime, **serving_kwargs)
    return SketchServer(serving, cutover_poll_s=0.05).start()


@pytest.fixture
def server(tmp_path):
    srv = start_server(tmp_path)
    yield srv
    if not srv.crashed:
        srv.stop()


@pytest.fixture
def client(server):
    host, port = server.address
    with Client(host, port, timeout=10.0) as c:
        yield c


class TestRoundTrips:
    def test_ping(self, client):
        assert client.ping() is True

    def test_ingest_and_query(self, server, client):
        records = make_records(80)
        assert client.ingest_batch(records) == 80
        for raw in make_records(3, start=80):
            assert client.ingest_record(raw) is True
        live = server.serving.runtime
        t = live.clock("urls")
        assert client.point("urls", 7, 0, t) == live.store.point("urls", 7, 0, t)
        assert client.self_join_size("ads") == live.store.self_join_size("ads")
        assert client.window_mass("urls") == live.store.window_mass("urls")
        assert client.heavy_hitters("urls", 0.05) == live.store.heavy_hitters(
            "urls", 0.05
        )

    def test_point_many(self, server, client):
        client.ingest_batch(make_records(60))
        live = server.serving.runtime
        t = live.clock("urls")
        items = [1, 7, 14, 21]
        got = client.point_many("urls", items, windows=[0, t])
        want = [live.store.point("urls", item, 0, t) for item in items]
        assert got == want

    def test_cutover_and_frozen_equals_live(self, server, client):
        client.ingest_batch(make_records(80))
        status = client.cutover()
        # The 0.05 s background ticker may adopt the checkpoint first; the
        # forced cutover then reports a no-op.  Either way the view must
        # now sit at the newest checkpoint.
        assert status["swapped"] is True or "newest checkpoint" in status["reason"]
        view = server.serving.view()
        assert view is not None and view.seq == CHECKPOINT_EVERY
        fc = view.clock("urls")
        for item in range(0, UNIVERSE, 5):
            frozen = client.point("urls", item, 0, fc, mode="frozen")
            live = client.point("urls", item, 0, fc, mode="live")
            assert frozen == live
        hh_frozen = client.heavy_hitters("urls", 0.05, 0, fc, mode="frozen")
        hh_live = client.heavy_hitters("urls", 0.05, 0, fc, mode="live")
        assert hh_frozen == hh_live

    def test_points_cross_the_wire_from_level_zero(self, server, client):
        """``urls`` keeps the hierarchy and no point sketch: both routes
        answer its points from level 0."""
        client.ingest_batch(make_records(80))
        client.cutover()
        level0 = server.serving.runtime.store._state("urls").hh_sketch._sketches[0]
        fc = server.serving.view().clock("urls")
        items = list(range(0, UNIVERSE, 3))
        want = [level0.point(item, 0, fc) for item in items]
        for mode in ("frozen", "live"):
            assert [client.point("urls", i, 0, fc, mode=mode) for i in items] == want
            assert client.point_many("urls", items, windows=[0, fc], mode=mode) == want

    def test_health_describe_fsck(self, client):
        client.ingest_batch(make_records(55))
        client.cutover()  # don't rely on the ticker having fired yet
        health = client.health()
        assert health["state"] == "healthy"
        assert health["serving"]["cutovers"] >= 1
        described = client.describe()
        assert described["applied_seq"] == 55
        assert described["dead_letters"] == 0
        assert described["serving"]["tail_records"] <= 55
        report = client.fsck()
        assert report["clean"] is True and report["recoverable"] is True

    def test_background_ticker_advances_view(self, server, client):
        client.ingest_batch(make_records(60))
        deadline = threading.Event()
        for _ in range(100):
            view = server.serving.view()
            if view is not None and view.seq >= CHECKPOINT_EVERY:
                break
            deadline.wait(0.05)
        view = server.serving.view()
        assert view is not None and view.seq >= CHECKPOINT_EVERY


class TestTypedErrors:
    def test_unknown_stream(self, client):
        with pytest.raises(KeyError, match="nope"):
            client.point("nope", 1)

    @pytest.mark.parametrize("items", [[], [1]], ids=["no-items", "one-item"])
    def test_point_many_unknown_stream(self, server, client, items):
        """An unknown stream is refused however few the items, in
        process and on the wire (as ``unknown-stream``)."""
        with pytest.raises(KeyError, match="nope"):
            server.serving.point_many("nope", items)
        with pytest.raises(KeyError, match="nope"):
            client.point_many("nope", items)

    def test_unknown_verb(self, client):
        with pytest.raises(ValueError, match="unknown verb"):
            client._call("frobnicate")

    def test_value_error(self, client):
        client.ingest_batch(make_records(10))
        with pytest.raises(ValueError, match="empty window"):
            client.point("urls", 1, 9, 2)

    @pytest.mark.parametrize("mode", ["frozen", "live"])
    @pytest.mark.parametrize("item", [-5, 2**70])
    def test_out_of_range_read_item_is_bad_request(
        self, server, client, item, mode
    ):
        """Every read verb and route applies the ingest item rule
        ``0 <= item < 2**63``, for small and large batches alike."""
        client.ingest_batch(make_records(60))
        client.cutover()
        t = server.serving.view().clock("urls")
        with pytest.raises(BadRequestError, match="item must lie"):
            client.point("urls", item, 0, t, mode=mode)
        for n in (1, _SCALAR_PROBES_MAX + 1):
            items = [1] * (n - 1) + [item]
            with pytest.raises(BadRequestError, match="item must lie"):
                client.point_many("urls", items, windows=[0, t], mode=mode)
        assert client.point_many("urls", [1], windows=[0, t], mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "frozen", "live"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_window_is_bad_request(self, server, client, bad, mode):
        """Every read verb refuses a non-finite ``s`` or ``t`` before
        routing, in process and on the wire, on every route — never a
        ``nan`` answer from the live side or a conversion error."""
        client.ingest_batch(make_records(60))
        client.cutover()
        t = server.serving.view().clock("urls")
        for reads in (server.serving, client):
            for s, end in ((0, bad), (bad, t)):
                calls = {
                    "point": lambda: reads.point("urls", 1, s, end, mode=mode),
                    "point_many": lambda: reads.point_many(
                        "urls", [1, 2], windows=[s, end], mode=mode
                    ),
                    "point_many/per-probe": lambda: reads.point_many(
                        "urls", [1, 2], windows=[[0, t], [s, end]], mode=mode
                    ),
                    "heavy_hitters": lambda: reads.heavy_hitters(
                        "urls", 0.05, s, end, mode=mode
                    ),
                    "self_join_size": lambda: reads.self_join_size(
                        "urls", s, end, mode=mode
                    ),
                    "window_mass": lambda: reads.window_mass(
                        "urls", s, end, mode=mode
                    ),
                }
                for verb, call in calls.items():
                    with pytest.raises(BadRequestError, match="finite"):
                        call()
                        pytest.fail(f"{verb} answered (s={s}, t={end})")

    @pytest.mark.parametrize(
        "windows",
        [[[0, 5]], [[1, 2, 3], [0, 5]], [["a", 5], [0, 5]], "ab", ["a", 5]],
        ids=["count", "non-pair", "non-numeric", "string", "single-non-numeric"],
    )
    def test_ill_shaped_windows_are_bad_requests(self, server, client, windows):
        """An ill-shaped ``windows`` parameter crosses the wire as a
        ``bad-request``, as docs/serving.md promises; an empty window
        (``s > t``) stays a value error."""
        client.ingest_batch(make_records(60))
        with pytest.raises(BadRequestError):
            client.point_many("urls", [1, 2], windows=windows)
        with pytest.raises(ValueError) as caught:
            client.point_many("urls", [1, 2], windows=[[9, 2], [0, 5]])
        assert not isinstance(caught.value, BadRequestError)

    def test_malformed_and_late_records(self, tmp_path):
        runtime = IngestRuntime.create(
            tmp_path / "strict",
            make_store(),
            checkpoint_every=CHECKPOINT_EVERY,
            policy=IngestPolicy(on_malformed="raise", on_late="raise"),
        )
        server = SketchServer(ServingRuntime(runtime)).start()
        try:
            host, port = server.address
            with Client(host, port) as c:
                with pytest.raises(MalformedRecordError):
                    c.ingest_record({"stream": "urls", "item": "zzz"})
                assert c.ingest("urls", 1, time=5) is True
                with pytest.raises(LateRecordError):
                    c.ingest("urls", 2, time=4)
                # The connection survives typed errors.
                assert c.ping() is True
        finally:
            server.stop()

    def test_degraded_error_passthrough(self, server, client):
        client.ingest_batch(make_records(10))
        server.serving.runtime.monitor.degrade(
            "wal-io", "disk full", recoverable=False
        )
        with pytest.raises(DegradedError) as excinfo:
            client.ingest("urls", 1)
        assert excinfo.value.state.value == "degraded-readonly"
        assert excinfo.value.cause == "wal-io"
        assert "disk full" in excinfo.value.detail
        # Reads keep working through the same connection.
        assert client.point("urls", 7) >= 0.0
        assert client.health()["state"] == "degraded-readonly"


class TestFraming:
    def _raw(self, server, payload: bytes) -> dict:
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(payload)
            reply = sock.makefile("rb").readline()
        return json.loads(reply)

    def test_garbage_line_is_bad_request(self, server):
        reply = self._raw(server, b"this is not json\n")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-request"

    def test_non_object_frame(self, server):
        reply = self._raw(server, b"[1, 2, 3]\n")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-request"

    def test_missing_verb(self, server):
        reply = self._raw(server, b"{}\n")
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-request"

    def test_pipelined_requests_matched_by_id(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(
                b'{"id": 1, "verb": "ping"}\n'
                b'{"id": 2, "verb": "describe"}\n'
                b'{"id": 3, "verb": "ping"}\n'
            )
            rfile = sock.makefile("rb")
            replies = [json.loads(rfile.readline()) for _ in range(3)]
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert replies[0]["result"] == "pong"
        assert replies[1]["result"]["applied_seq"] == 0

    def test_client_rejects_wrong_id(self, server, monkeypatch):
        host, port = server.address
        c = Client(host, port)
        try:
            c._next_id = 41
            # Skew the expected id after the request is built.
            real_encode = json.dumps

            def skew(obj, **kwargs):
                if isinstance(obj, dict) and obj.get("verb") == "ping":
                    obj = dict(obj, id=999)
                return real_encode(obj, **kwargs)

            monkeypatch.setattr("repro.server.protocol.json.dumps", skew)
            with pytest.raises(ConnectionError):
                c.ping()
        finally:
            c.close()


class TestConcurrency:
    def test_concurrent_readers_and_writer(self, server):
        """One writer + 4 readers hammering the daemon concurrently."""
        host, port = server.address
        n_records = 200
        records = make_records(n_records)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                with Client(host, port) as c:
                    for chunk_start in range(0, n_records, 20):
                        c.ingest_batch(records[chunk_start : chunk_start + 20])
            except BaseException as exc:  # noqa: B036  # sketchlint: disable=SL004 — collected and re-asserted on the main thread
                errors.append(exc)
            finally:
                stop.set()

        def reader(item):
            try:
                with Client(host, port) as c:
                    while not stop.is_set():
                        c.point("urls", item)
                        c.self_join_size("ads")
                        c.health()
            except BaseException as exc:  # noqa: B036  # sketchlint: disable=SL004 — collected and re-asserted on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [
            threading.Thread(target=reader, args=(item,)) for item in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        with Client(host, port) as c:
            assert c.describe()["applied_seq"] == n_records


class TestCrashRecovery:
    def test_simulated_crash_kills_connection_then_recovers(self, tmp_path):
        """kill -9 mid-ingest: the in-flight request dies unanswered and
        a recovered runtime answers bit-identically to an uninterrupted
        twin fed the same records."""
        records = make_records(180)
        crash_at = 77
        server = start_server(
            tmp_path, faults=FaultPlan(crash_after_record=crash_at)
        )
        host, port = server.address
        applied = 0
        crashed = False
        with Client(host, port) as c:
            for raw in records:
                try:
                    assert c.ingest_record(raw) is True
                    applied += 1
                except ConnectionError:
                    crashed = True
                    break
        assert crashed and applied == crash_at - 1
        assert server.crashed is True
        # New connections die unanswered too, like a dead process.
        with pytest.raises((ConnectionError, OSError)):
            Client(host, port, timeout=2.0).ping()

        recovered = IngestRuntime.recover(
            tmp_path / "srv", checkpoint_every=CHECKPOINT_EVERY
        )
        # Unacknowledged tail: re-send everything past applied_seq.
        for raw in records[recovered.applied_seq :]:
            assert recovered.ingest(raw) is True

        twin = IngestRuntime.create(
            tmp_path / "twin", make_store(), checkpoint_every=CHECKPOINT_EVERY
        )
        for raw in records:
            assert twin.ingest(raw) is True

        for stream in ("urls", "ads"):
            assert recovered.clock(stream) == twin.clock(stream)
        t = twin.clock("urls")
        for item in range(UNIVERSE):
            for s, e in [(0, None), (t // 3, 2 * t // 3)]:
                assert recovered.store.point(
                    "urls", item, s, e
                ) == twin.store.point("urls", item, s, e)
        assert recovered.store.heavy_hitters(
            "urls", 0.02
        ) == twin.store.heavy_hitters("urls", 0.02)
        assert recovered.store.self_join_size(
            "ads"
        ) == twin.store.self_join_size("ads")

    def test_restarted_server_serves_recovered_state(self, tmp_path):
        records = make_records(120)
        server = start_server(
            tmp_path, faults=FaultPlan(crash_after_record=90)
        )
        host, port = server.address
        with Client(host, port) as c:
            for raw in records:
                try:
                    c.ingest_record(raw)
                except ConnectionError:
                    break
        recovered = IngestRuntime.recover(
            tmp_path / "srv", checkpoint_every=CHECKPOINT_EVERY
        )
        restarted = SketchServer(ServingRuntime(recovered)).start()
        try:
            host2, port2 = restarted.address
            with Client(host2, port2) as c:
                applied = c.describe()["applied_seq"]
                assert applied == 90  # durable through the crashed record
                for raw in records[applied:]:
                    assert c.ingest_record(raw) is True
                assert c.describe()["applied_seq"] == len(records)
                # The restarted view comes from the recovered checkpoints.
                assert c.cutover()["view_seq"] is not None
        finally:
            restarted.stop()


class TestServerErrorType:
    def test_server_error_round_trip(self):
        from repro.server import protocol

        payload = protocol.error_payload(RuntimeError("boom"))
        assert payload["type"] == "internal"
        with pytest.raises(ServerError, match="boom"):
            protocol.raise_for_error(payload)

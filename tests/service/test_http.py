"""The HTTP frontend over real TCP: routes, errors, drain-on-shutdown."""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import warnings
from http.client import HTTPConnection

import pytest

from repro.api import ReceiveRequest, SendRequest
from repro.errors import ServiceError
from repro.service import (
    FleetService,
    LoadGenerator,
    ServiceClient,
    ServiceConfig,
    serve_forever,
)


def _read_response(stream) -> "tuple[int, dict, bytes]":
    """One HTTP response off a socket file: status, headers, body."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


@pytest.fixture(scope="module")
def live_service():
    """One serve_forever loop in a thread for the whole module."""
    ready = threading.Event()
    box: dict = {}

    def on_ready(service) -> None:
        box["service"] = service
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(ServiceConfig(shards=2, port=0),),
        kwargs={"duration": 120, "on_ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=15), "service never came up"
    with ServiceClient(f"http://127.0.0.1:{box['service'].port}") as client:
        yield client
        try:
            client.shutdown()
        except (ServiceError, OSError):
            pass  # already shut down by the shutdown test
    thread.join(timeout=30)
    assert not thread.is_alive(), "serve_forever failed to drain and exit"


def test_healthz(live_service):
    health = live_service.healthz()
    assert health["http_status"] == 200
    assert health["status"] == "ok"
    assert health["healthy_shards"] == ["shard-0", "shard-1"]


def test_send_receive_over_http(live_service):
    sent = live_service.send(
        SendRequest(device_id="http-dev", message=b"over the wire")
    )
    assert sent.device_id == "http-dev"
    assert sent.shard in ("shard-0", "shard-1")
    received = live_service.receive(ReceiveRequest(device_id="http-dev"))
    assert received.message == b"over the wire"
    assert received.shard == sent.shard


def test_load_generator_remote(live_service):
    generator = LoadGenerator(seed=21, message_bytes=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        report = generator.run_remote(live_service, 10, concurrency=4)
        gc.collect()
    assert report.lost == 0
    assert report.completed == 10
    assert report.mismatched == 0
    # The pool threads shared the client's kept connections, and
    # run_remote closed them all on return.
    assert live_service._idle == []
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_two_requests_on_one_socket_answer_in_order(live_service):
    with socket.create_connection(
        (live_service.host, live_service.port), timeout=10
    ) as sock, sock.makefile("rb") as stream:
        # Pipelined: both requests are on the wire before either answer.
        sock.sendall(
            b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        first = _read_response(stream)
        second = _read_response(stream)
        assert first[0] == 404 and "connection" not in first[1]
        assert second[0] == 200
        assert json.loads(second[2])["status"] == "ok"
        # Still open: a third request on the same socket is answered.
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert _read_response(stream)[0] == 200


@pytest.mark.parametrize(
    "request_head",
    [
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_close_requests_get_a_closed_connection(live_service, request_head):
    with socket.create_connection(
        (live_service.host, live_service.port), timeout=10
    ) as sock, sock.makefile("rb") as stream:
        sock.sendall(request_head)
        status, headers, _ = _read_response(stream)
        assert status == 200
        assert headers["connection"] == "close"
        assert stream.read() == b""  # EOF: the server closed its end


def test_metrics_exposition(live_service):
    text = live_service.metrics()
    assert "repro_service_jobs_total" in text
    assert "# HELP" in text


def test_stats_endpoint(live_service):
    stats = live_service.stats()
    assert stats["accepting"] is True
    assert set(stats["queues"]) == {"shard-0", "shard-1"}


def test_unknown_route_404(live_service):
    conn = HTTPConnection(live_service.host, live_service.port, timeout=10)
    try:
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
    finally:
        conn.close()


def test_malformed_job_400(live_service):
    conn = HTTPConnection(live_service.host, live_service.port, timeout=10)
    try:
        conn.request(
            "POST", "/send",
            body=json.dumps({"device_id": "x"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "message_hex" in json.loads(response.read().decode())["error"]
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_400(live_service, length):
    with socket.create_connection(
        (live_service.host, live_service.port), timeout=10
    ) as sock:
        sock.sendall(
            f"POST /send HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
            .encode()
        )
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    # Reading to EOF above proves the malformed connection was closed.
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert "Content-Length" in json.loads(body.decode())["error"]
    # The server survived: the next request on a new connection works.
    assert live_service.healthz()["http_status"] == 200


@pytest.mark.parametrize("how", ["stop", "abort"])
def test_idle_kept_connection_closed_when_service_stops(how):
    async def scenario():
        service = FleetService(ServiceConfig(shards=1, port=0))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"Connection: close" not in head
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        # The connection is now idle and kept alive; stopping must close
        # it rather than wait for the client to go away.
        await asyncio.wait_for(getattr(service, how)(), timeout=30)
        tail = await asyncio.wait_for(reader.read(), timeout=5)
        writer.close()
        return tail

    assert asyncio.run(scenario()) == b""


def test_connection_starting_after_close_is_not_kept():
    # A connection accepted just before stop() stopped listening can get
    # its handler scheduled only after the idle sweep; it must not park.
    async def scenario():
        service = FleetService(ServiceConfig(shards=1, port=0))
        await service.start()
        service._http_server.close()
        ours, peer = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=ours)
        await asyncio.wait_for(service._handle_connection(reader, writer), 5)
        peer.settimeout(5)
        with peer:
            tail = peer.recv(1)
        await asyncio.wait_for(service.stop(), timeout=30)
        return tail

    assert asyncio.run(scenario()) == b""


def test_in_flight_request_finishes_with_connection_close():
    async def scenario():
        service = FleetService(ServiceConfig(shards=1, port=0))
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port
        )
        body = json.dumps(
            SendRequest(device_id="late", message=b"in flight").to_dict()
        ).encode()
        writer.write(
            b"POST /send HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        # Hold the job at the worker gate until the stop has begun: the
        # drain then runs it, its response goes out with Connection:
        # close, and only then does stop return.
        service._pause.clear()
        while not service.queues["shard-0"].unfinished:
            await asyncio.sleep(0.01)
        stopping = asyncio.create_task(service.stop())
        while service.accepting:
            await asyncio.sleep(0.01)
        service._pause.set()
        await asyncio.wait_for(stopping, timeout=60)
        head = await reader.readuntil(b"\r\n\r\n")
        rest = await asyncio.wait_for(reader.read(), timeout=5)
        writer.close()
        return head, rest

    head, rest = asyncio.run(scenario())
    assert head.startswith(b"HTTP/1.1 200 ")
    assert b"\r\nConnection: close" in head
    assert json.loads(rest)["device_id"] == "late"


def test_shutdown_drains(live_service):
    # Ordered last by name? No — pytest runs in definition order; this
    # is the final test in the module, so the fixture teardown only has
    # to tolerate an already-closed service.
    assert live_service.shutdown() == {"status": "draining"}

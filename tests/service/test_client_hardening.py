"""Client hardening: circuit breaker states, retry schedule, idempotency keys."""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.api import SendRequest
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ServiceUnavailableError,
)
from repro.faults import RetryPolicy
from repro.service import CircuitBreaker, LoadGenerator, ServiceClient


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0.0)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.before_call()  # no raise

    def test_opens_at_threshold_and_fails_fast(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        with pytest.raises(CircuitOpenError, match="3 consecutive failures"):
            breaker.before_call()
        clock.now = 4.9
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == "half-open"
        breaker.before_call()  # the single probe slot
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # a concurrent caller is refused

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_call()  # freely admitted again

    def test_non_socket_failure_releases_the_half_open_latch(
        self, monkeypatch
    ):
        """A probe that dies on a non-OSError (e.g. a garbage response
        raising BadStatusLine) must not leak ``_half_open_busy`` — that
        would leave the breaker raising CircuitOpenError forever."""
        from http.client import BadStatusLine

        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.state == "half-open"

        class GarbageConnection:
            def __init__(self, *args, **kwargs):
                pass

            def request(self, *args, **kwargs):
                raise BadStatusLine("HTP/9.9 garbage")

            def close(self):
                pass

        monkeypatch.setattr(
            "repro.service.client.HTTPConnection", GarbageConnection
        )
        client = ServiceClient(
            "http://127.0.0.1:9", retry=RetryPolicy.none(), breaker=breaker
        )
        with pytest.raises(BadStatusLine):
            client.stats()
        # The failed probe re-opened the circuit for a cooldown instead
        # of wedging it: after the window, another probe is admitted.
        assert breaker.state == "open"
        clock.now = 3.0
        assert breaker.state == "half-open"
        with pytest.raises(BadStatusLine):
            client.stats()

    def test_half_open_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.now = 2.4  # still inside the new cooldown window
        with pytest.raises(CircuitOpenError):
            breaker.before_call()


def _dead_client(**kwargs) -> ServiceClient:
    # Port 9 on loopback: nothing listens; connect fails immediately.
    return ServiceClient("http://127.0.0.1:9", timeout=0.2, **kwargs)


class TestClientRetries:
    def test_connection_failures_retry_then_surface(self):
        sleeps: "list[float]" = []
        client = _dead_client(
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.01, max_delay_s=0.05
            ),
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.stats()
        assert client.retried == 2  # two retries between three attempts
        assert len(sleeps) == 2
        assert sleeps == client.retry.delays()[:2]

    def test_open_breaker_short_circuits_without_sleeping(self):
        sleeps: "list[float]" = []
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        client = _dead_client(
            retry=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, max_delay_s=0.05
            ),
            breaker=breaker,
            sleep=sleeps.append,
        )
        with pytest.raises(ServiceUnavailableError):
            client.stats()  # two attempts = two failures: breaker opens
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.stats()  # fails fast: no socket, no retry sleep
        assert len(sleeps) == 1  # only the first call's inter-attempt sleep

    def test_bad_url_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceClient("http://")


class _OneRequestPerConnection(BaseHTTPRequestHandler):
    """Answers one request as keep-alive, then closes the connection
    anyway: what a client sees when the server drops an idle kept
    connection (a drain, a restart)."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = json.dumps({"ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.connections += 1
        self.close_connection = True

    def log_message(self, *args):
        pass


class _Echo(BaseHTTPRequestHandler):
    """Keep-alive server answering each GET with its own path."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        body = json.dumps({"path": self.path}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _serve(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    server.connections = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def dropping_server():
    yield from _serve(_OneRequestPerConnection)


@pytest.fixture
def echo_server():
    yield from _serve(_Echo)


class TestConnectionPool:
    def test_stale_connection_resent_without_breaker_failure(
        self, dropping_server
    ):
        sleeps: "list[float]" = []
        breaker = CircuitBreaker(threshold=1, clock=FakeClock())
        with ServiceClient(
            f"http://127.0.0.1:{dropping_server.server_port}",
            timeout=5,
            retry=RetryPolicy.none(),
            breaker=breaker,
            sleep=sleeps.append,
        ) as client:
            pooled = []
            for _ in range(3):
                assert client.stats() == {"ok": True}
                pooled.extend(client._idle)
            # Every call after the first took the kept connection, found
            # it closed and went straight to a fresh one: no retry, no
            # delay, and a one-failure breaker never opened.
            assert len(pooled) == len(set(map(id, pooled))) == 3
            assert dropping_server.connections == 3
            assert client.retried == 0
            assert sleeps == []
            assert breaker.state == "closed" and breaker.opens == 0

    def test_threads_sharing_a_client_never_share_a_connection(
        self, echo_server
    ):
        # A connection handed to two threads at once would interleave
        # their requests and cross their answers.
        client = ServiceClient(
            f"http://127.0.0.1:{echo_server.server_port}",
            timeout=5,
            retry=RetryPolicy.none(),
        )
        errors: "list[str]" = []

        def caller(worker: int) -> None:
            for call in range(25):
                path = f"/w{worker}/c{call}"
                try:
                    status, raw = client._request("GET", path)
                except Exception as exc:  # reported below, not lost
                    errors.append(f"{path}: {exc!r}")
                    continue
                if status != 200 or json.loads(raw)["path"] != path:
                    errors.append(f"{path}: {status} {raw!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=caller, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert 1 <= len(client._idle) <= 8
        client.close()
        assert client._idle == []

    def test_close_leaves_no_open_socket(self, dropping_server):
        client = ServiceClient(
            f"http://127.0.0.1:{dropping_server.server_port}", timeout=5
        )
        client.stats()
        pooled = list(client._idle)
        assert [conn.sock is not None for conn in pooled] == [True]
        client.close()
        assert client._idle == []
        assert all(conn.sock is None for conn in pooled)


class TestIdempotencyKeys:
    def test_keyed_mints_unique_client_keys(self):
        bare = SendRequest(device_id="d", message=b"x")
        first = ServiceClient._keyed(bare)
        second = ServiceClient._keyed(bare)
        assert first.idempotency_key.startswith("client-")
        assert first.idempotency_key != second.idempotency_key
        assert first.device_id == "d" and first.message == b"x"

    def test_keyed_preserves_an_explicit_key(self):
        keyed = SendRequest(device_id="d", message=b"x", idempotency_key="k")
        assert ServiceClient._keyed(keyed) is keyed

    def test_soak_keys_are_deterministic_per_op(self):
        generator = LoadGenerator(seed=9, idempotency=True)
        send, receive = generator._requests(3)
        assert send.idempotency_key == "soak-9-3-send"
        assert receive.idempotency_key == "soak-9-3-recv"
        again, _ = generator._requests(3)
        assert again.idempotency_key == send.idempotency_key

    def test_keys_off_by_default(self):
        send, receive = LoadGenerator(seed=9)._requests(3)
        assert send.idempotency_key is None
        assert receive.idempotency_key is None


def test_restart_retries_require_idempotency():
    generator = LoadGenerator(seed=1)  # idempotency=False
    client = _dead_client(retry=RetryPolicy.none())
    with pytest.raises(ConfigurationError, match="idempotency"):
        generator.run_remote(client, 1, restart_retries=3)

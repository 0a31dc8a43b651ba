"""HTTP front end + ServingClient, end to end over a real socket.

The server runs its event loop on a background thread (ephemeral port);
the synchronous client talks to it from the test thread — the same
topology as a real ``repro-experiments serve`` deployment.
"""

import asyncio
import contextlib
import gc
import http.client
import json
import re
import socket
import threading
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.report import IterationCost
from repro.serve import (
    CostService,
    HttpServer,
    RetryLater,
    ServingClient,
    ServingError,
    cell_from_json,
)
from repro.sweep import METRICS, GraphCache, SweepSession, price_cell


@contextlib.contextmanager
def running(service):
    """Run an HttpServer for *service* on a background loop thread.

    Yields a namespace with the ``server``, its ``loop`` and ``errors``:
    every call of the loop's exception handler (an exception no server
    code caught)."""
    server = HttpServer(service, port=0)
    started = threading.Event()
    holder = {}
    errors = []

    async def main():
        await server.start()
        started.set()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    def run():
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(lambda _, context: errors.append(context))
        holder["loop"] = loop
        holder["task"] = loop.create_task(main())
        try:
            loop.run_until_complete(holder["task"])
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server never started"
    try:
        yield types.SimpleNamespace(server=server, loop=holder["loop"],
                                    errors=errors)
    finally:
        holder["loop"].call_soon_threadsafe(holder["task"].cancel)
        thread.join(timeout=30)
        service.close()


@contextlib.contextmanager
def serving(service):
    """A ServingClient against a running HttpServer for *service*."""
    with running(service) as live, \
            ServingClient(host=live.server.host,
                          port=live.server.port) as client:
        yield client


def _raw_request(client, method, path, body=b"", headers=()):
    """Bypass ServingClient's error mapping to inspect raw responses."""
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=dict(headers))
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def test_round_trip_and_warm_second_query():
    cell = cell_from_json({"model": "tiny_cnn", "batch": 2})
    want = price_cell(cell, GraphCache())
    with SweepSession() as session, \
            serving(CostService(session)) as client:
        assert client.healthy()
        [row] = client.price_cells([{"model": "tiny_cnn", "batch": 2}])
        assert row["cell"]["model"] == "tiny_cnn"
        assert row["key"] == cell.key()
        for name, fn in METRICS.items():
            assert row["metrics"][name] == pytest.approx(fn(want))
        # SweepCell objects serialize identically to dicts.
        [again] = client.price_cells([cell])
        assert again == row
        stats = client.stats()
        assert stats["service"]["requests"] == 2
        assert stats["service"]["warm_hits"] == 1
        assert stats["service"]["priced"] == 1


def test_grid_request_expands_server_side():
    with SweepSession() as session, \
            serving(CostService(session)) as client:
        rows = client.price_grid(models=["tiny_cnn"],
                                 scenarios=["baseline"], batches=[2, 4])
        assert [r["cell"]["batch"] for r in rows] == [2, 4]
        assert all(r["metrics"]["total_time_s"] > 0 for r in rows)


def test_error_mapping():
    with SweepSession() as session, \
            serving(CostService(session)) as client:
        # Unknown model -> 400 with the sweep layer's own message.
        with pytest.raises(ServingError, match="nope") as err:
            client.price_cells([{"model": "nope"}])
        assert err.value.status == 400
        # Malformed JSON -> 400.
        status, _, body = _raw_request(
            client, "POST", "/price", b"{not json",
            [("Content-Length", "9")],
        )
        assert status == 400 and b"bad JSON" in body
        # Wrong method -> 405; unknown route -> 404.
        assert _raw_request(client, "GET", "/price")[0] == 405
        status, _, body = _raw_request(client, "GET", "/nowhere")
        assert status == 404 and b"/healthz" in body
        # Declared body over the cap -> 413 without reading it.
        status, _, _ = _raw_request(
            client, "POST", "/price", b"",
            [("Content-Length", str(64 << 20))],
        )
        assert status == 413


def test_shed_maps_to_429_and_client_retries():
    release = threading.Event()
    session = SweepSession()

    def pricer(cell):
        assert release.wait(timeout=30)
        return price_cell(cell, session.cache)

    service = CostService(session, max_pending=1, pricer=pricer,
                          min_retry_after_s=0.01)
    with session, serving(service) as client:
        blocked = threading.Thread(
            target=client.price_cells,
            args=([{"model": "tiny_cnn", "batch": 2}],),
        )
        blocked.start()
        while service.pending < 1:
            threading.Event().wait(0.01)
        # No retries: the shed surfaces as RetryLater with the server's
        # own estimate (and a Retry-After header on the wire).
        with pytest.raises(RetryLater) as shed:
            client.price_cells([{"model": "tiny_cnn", "batch": 8}])
        assert shed.value.retry_after_s > 0
        status, headers, _ = _raw_request(
            client, "POST", "/price",
            json.dumps({"cells": [{"model": "tiny_cnn", "batch": 8}]}
                       ).encode(),
        )
        assert status == 429 and int(headers["Retry-After"]) >= 1
        # With retries, the client sleeps the server's estimate and
        # succeeds once the queue drains.
        release.set()
        [row] = client.price_cells([{"model": "tiny_cnn", "batch": 8}],
                                   retries=10)
        assert row["metrics"]["total_time_s"] > 0
        blocked.join(timeout=30)
        assert not blocked.is_alive()


def test_keep_alive_and_connection_close():
    with SweepSession() as session, \
            serving(CostService(session)) as client:
        # Two requests over one kept-alive connection.
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=30)
        try:
            for _ in range(2):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                body = json.loads(response.read())
                assert body["ok"] is True and body["breaker"] == "closed"
                assert response.getheader("Connection") == "keep-alive"
            # Connection: close is honored: the server hangs up after.
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.getheader("Connection") == "close"
            response.read()
            assert conn.sock is None or not _readable(conn.sock)
        finally:
            conn.close()


def _readable(sock):
    try:
        sock.settimeout(1.0)
        return sock.recv(1) != b""
    except (socket.timeout, OSError):
        return False


def test_healthy_is_false_with_no_server():
    # Grab a port that nothing listens on.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    t0 = time.monotonic()
    assert not ServingClient(port=port, timeout_s=1.0).healthy()
    assert time.monotonic() - t0 < 1.0 + 0.5


# -- parser totality ------------------------------------------------------------
_STATUS_LINE = re.compile(rb"HTTP/1\.1 [1-5]\d\d ")


def _exchange(port, data):
    """Send *data* on a fresh connection, half-close, and return every
    byte the server sent before it closed."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except ConnectionError:
            pass  # the server answered and closed before reading it all
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize("data, status", [
    (b"POST /price HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}", 400),
    (b"POST /price HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}", 400),
    (b"POST /price HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n{}", 400),
    (b"POST /price HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n{}", 400),
    (b"garbage\r\n\r\n", 400),
    (b"GET /healthz\r\n\r\n", 400),
    (b"GET /healthz FTP/1.0\r\n\r\n", 400),
    (b"\r\n", 400),
    (b"GET /" + b"a" * (70 << 10) + b" HTTP/1.1\r\n\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * (70 << 10) + b"\r\n\r\n",
     431),
])
def test_unframeable_request_is_answered_then_closed(data, status):
    with SweepSession() as session, running(CostService(session)) as live:
        reply = _exchange(live.server.port, data + b"GET /healthz HTTP/1.1"
                                                   b"\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode()), reply[:200]
        assert b"Connection: close" in head
        # One answer, then the close: the request behind it is not read.
        assert json.loads(body)["error"]
    gc.collect()
    assert live.errors == []


_REQUEST_LINES = st.one_of(
    st.sampled_from([b"GET /healthz HTTP/1.1", b"POST /price HTTP/1.1",
                     b"GET /stats HTTP/1.0", b"PUT /nowhere HTTP/1.1",
                     b"GET /healthz", b""]),
    st.binary(max_size=40),
)
_HEADERS = st.lists(st.tuples(
    st.one_of(st.sampled_from([b"Content-Length", b"Connection", b"Host"]),
              st.binary(max_size=12)),
    st.one_of(st.sampled_from([b"0", b"2", b"-1", b"abc", b"close", b""]),
              st.binary(max_size=12)),
), max_size=4)
_REQUEST = st.builds(
    lambda line, headers, eol, body: line + eol + b"".join(
        name + b": " + value + eol for name, value in headers) + eol + body,
    _REQUEST_LINES, _HEADERS, st.sampled_from([b"\r\n", b"\n"]),
    st.binary(max_size=32),
)
#: Raw bytes, or one to three request-shaped messages on one connection.
_REQUEST_BYTES = st.one_of(
    st.binary(max_size=256),
    st.lists(_REQUEST, min_size=1, max_size=3).map(b"".join),
)


@settings(max_examples=150, deadline=None)
@given(_REQUEST_BYTES)
def test_fuzzed_requests_get_a_status_line_or_a_clean_close(fuzz_server,
                                                            data):
    reply = _exchange(fuzz_server.server.port, data)
    assert reply == b"" or _STATUS_LINE.match(reply), reply[:200]
    assert fuzz_server.errors == []


@pytest.fixture(scope="module")
def fuzz_server():
    with SweepSession() as session, running(CostService(session)) as live:
        yield live
    gc.collect()
    assert live.errors == []


# -- client connections ---------------------------------------------------------
@pytest.fixture
def connects(monkeypatch):
    """Thread ids of every HTTPConnection.connect call, in order."""
    seen = []
    original = http.client.HTTPConnection.connect

    def counting(self):
        seen.append(threading.get_ident())
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return seen


def test_client_keeps_one_connection_per_thread(connects):
    with SweepSession() as session, \
            serving(CostService(session)) as client:
        for _ in range(5):
            assert client.healthy()
        client.price_cells([{"model": "tiny_cnn", "batch": 2}])
        client.stats()
        assert len(connects) == 1

        def calls():
            for _ in range(3):
                client.price_cells([{"model": "tiny_cnn", "batch": 2}])

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(connects) == 3 and len(set(connects)) == 3
        assert client.stats()["service"]["errors"] == 0


def test_client_reconnects_after_server_drops_idle_connection(connects):
    with SweepSession() as session, running(CostService(session)) as live, \
            ServingClient(port=live.server.port) as client:
        assert client.healthy()

        async def hang_up_idle():
            tasks = list(live.server._connections)
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        asyncio.run_coroutine_threadsafe(
            hang_up_idle(), live.loop).result(timeout=30)
        [row] = client.price_cells([{"model": "tiny_cnn", "batch": 2}])
        assert row["metrics"]["total_time_s"] > 0
        assert len(connects) == 2
        # close() drops the connection; the next call opens a new one.
        client.close()
        assert client.healthy()
        assert len(connects) == 3


def test_client_does_not_resend_on_a_fresh_connection():
    accepted = []
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up_on_accept():
        conn, _ = listener.accept()
        accepted.append(conn.recv(65536))
        conn.close()

    thread = threading.Thread(target=hang_up_on_accept, daemon=True)
    thread.start()
    try:
        client = ServingClient(port=listener.getsockname()[1], timeout_s=5.0)
        with pytest.raises(ConnectionError):
            client.stats()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(accepted) == 1
    finally:
        listener.close()

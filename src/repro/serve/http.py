"""JSON-over-HTTP front end for :class:`~repro.serve.service.CostService`.

A deliberately small HTTP/1.1 server on asyncio streams — no external
dependencies (the container bakes in only the python toolchain), no
framework. Three routes:

* ``GET /healthz`` — liveness: ``{"ok": true}``;
* ``GET /stats`` — service/cache/disk counters (shape of
  :meth:`CostService.stats_snapshot`);
* ``POST /price`` — body ``{"cells": [...]}`` and/or ``{"grid": {...}}``
  (see :mod:`repro.serve.wire`); responds
  ``{"results": [{cell, key, metrics}, ...]}`` in request order.

Error mapping: malformed JSON or unknown axis values → ``400`` with the
sweep layer's own message; shed by backpressure *or an open circuit
breaker* → ``429`` with a ``Retry-After`` header and ``retry_after_s``
(plus ``reason``) in the body; an expired request deadline → ``504``;
unknown route → ``404``; anything else → ``500``. ``GET /healthz``
answers ``200 {"ok": true}`` only while the service's circuit breaker
is closed — degraded gives ``503`` with a ``Retry-After`` of the
breaker's remaining reset window. ``POST /price`` accepts an optional
top-level ``"deadline_s"`` bounding that request's wall time.
Connections are keep-alive by default (HTTP/1.1 semantics).

The parser is total: a request it cannot frame is answered, then the
connection closes (the rest of the stream cannot be trusted). A
malformed request line or a ``Content-Length`` that is not a
non-negative decimal → ``400``; a request line or header longer than
``MAX_LINE_BYTES`` → ``431``; a body over ``MAX_BODY_BYTES`` → ``413``,
without reading it. A client that hangs up mid-request gets no answer.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional, Tuple

from repro.errors import SweepSpecError
from repro.serve.service import (
    CostService,
    DeadlineExceeded,
    ServiceOverloaded,
)
from repro.serve.wire import cells_from_json, result_to_json

#: Request-body cap: a 1M-cell grid request is a client bug, not a query.
MAX_BODY_BYTES = 8 << 20
#: Longest request line or header line the server reads (asyncio's
#: default stream limit).
MAX_LINE_BYTES = 64 << 10

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Unframed(Exception):
    """A request the parser cannot frame: answered with *status*, then
    the connection closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _retry_after_header(retry_after_s: float) -> Dict[str, str]:
    return {"Retry-After": str(max(1, math.ceil(retry_after_s)))}


class HttpServer:
    """One service, one listening socket, many keep-alive connections."""

    def __init__(self, service: CostService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — with
        ``port=0`` the kernel picks a free one (tests/bench use this)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # wait_closed covers the listening socket only: idle keep-alive
        # connections would otherwise outlive the server as orphan tasks.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Unframed as e:
                    self._write_response(writer, e.status,
                                         {"error": str(e)}, {}, False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body, version = request
                status, payload, extra = await self._dispatch(
                    method, path, body
                )
                keep_alive = (
                    version != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                )
                self._write_response(writer, status, payload, extra,
                                     keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-request: nothing to answer
        except asyncio.CancelledError:
            # Loop shutdown while this keep-alive connection idled: end
            # the handler cleanly (re-raising would just log the
            # cancellation as a spurious callback error).
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF between requests.

        Raises :class:`_Unframed` for a request it cannot frame."""
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _Unframed(400, f"malformed request line {line[:80]!r}")
        method, path, version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        # isascii: str.isdigit also accepts digits int() rejects ("²").
        if not (declared.isascii() and declared.isdigit()):
            raise _Unframed(400, f"bad Content-Length {declared[:40]!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Unframed(413, f"request body exceeds {MAX_BODY_BYTES} "
                                 "bytes")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body, version

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # StreamReader's limit overrun
            raise _Unframed(431, "request line or header longer than "
                                 f"{MAX_LINE_BYTES} bytes") from None

    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request; returns (status, json-payload, extra headers)."""
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            health = self.service.health()
            if health.get("ok"):
                return 200, health, {}
            return 503, health, _retry_after_header(
                float(health.get("retry_after_s", 1.0))
            )
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}, {}
            return 200, self.service.stats_snapshot(), {}
        if path == "/price":
            if method != "POST":
                return 405, {"error": "use POST"}, {}
            return await self._price(body)
        return 404, {"error": f"unknown route {path!r}; available: "
                              "/healthz, /stats, /price"}, {}

    async def _price(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            deadline_s = None
            if isinstance(payload, dict) and payload.get(
                "deadline_s"
            ) is not None:
                deadline_s = float(payload["deadline_s"])
            cells = cells_from_json(
                payload, cache=self.service.session.cache
            )
            costs = await self.service.price_cells(
                cells, deadline_s=deadline_s
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            return 400, {"error": f"bad JSON: {e}"}, {}
        except (SweepSpecError, ValueError, TypeError) as e:
            return 400, {"error": str(e)}, {}
        except ServiceOverloaded as e:
            return 429, {
                "error": str(e),
                "retry_after_s": e.retry_after_s,
                "reason": e.reason,
                "pending": e.pending,
                "capacity": e.capacity,
            }, _retry_after_header(e.retry_after_s)
        except DeadlineExceeded as e:
            return 504, {
                "error": str(e),
                "deadline_s": e.deadline_s,
                "unresolved": e.unresolved,
            }, {}
        except Exception as e:  # pricing bug: report, don't kill the server
            return 500, {"error": f"{type(e).__name__}: {e}"}, {}
        return 200, {
            "results": [result_to_json(c, cost)
                        for c, cost in zip(cells, costs)],
            "count": len(cells),
        }, {}

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        payload, extra: Dict[str, str],
                        keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(body)),
            "Connection": "keep-alive" if keep_alive else "close",
            **extra,
        }
        head = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, '')}\r\n"
            f"{head}\r\n".encode("ascii") + body
        )


async def serve(service: CostService, host: str = "127.0.0.1",
                port: int = 8731) -> None:
    """Convenience: start an :class:`HttpServer` and serve until cancelled."""
    server = HttpServer(service, host, port)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.close()

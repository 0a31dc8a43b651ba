"""Clients for the cost-query service.

Two ways in:

* **in-process** — hold the :class:`~repro.serve.service.CostService`
  and ``await service.price_cells(...)`` directly (the service *is* the
  in-process API; benchmarks and embedding applications use it as such);
* **HTTP** — :class:`ServingClient` below, a small synchronous
  JSON-over-HTTP client on stdlib ``http.client``, for scripts, tests
  and load generators talking to a ``repro-experiments serve`` process.

A shed response (``429``) surfaces as :class:`RetryLater` carrying the
server's ``retry_after_s``; ``price_cells(retries=N)`` optionally
retries that many times before giving up — the client half of the
shed-with-retry-after contract. Each retry sleeps the *larger* of the
server's ``retry_after_s`` hint and a bounded exponential backoff
(``backoff_base_s * backoff_factor**attempt``, capped at
``backoff_max_s``), jittered by a seeded generator so a fleet of
clients retrying the same shed doesn't re-stampede the server in
lockstep — deterministically per client, so tests stay exact.

Each calling thread keeps one HTTP/1.1 connection to the server and
reuses it for every call (the server keeps connections alive). When a
*reused* connection fails before any byte of the response arrives —
the server closed it while it sat idle — the call reconnects and sends
once more; pricing is idempotent, so the resend is safe. A failure on a
fresh connection propagates. ``close()`` (or leaving a ``with`` block)
closes every connection the client holds; a later call reconnects.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import SweepSpecError
from repro.sweep.spec import SweepCell
from repro.serve.wire import cell_to_json


class ServingError(RuntimeError):
    """Non-retryable server response (4xx/5xx other than shed)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class RetryLater(ServingError):
    """The server shed the request; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float, message: str):
        RuntimeError.__init__(
            self, f"server overloaded, retry in {retry_after_s:.2f}s: "
            f"{message}"
        )
        self.status = 429
        self.retry_after_s = retry_after_s


class ServingClient:
    """Synchronous JSON-over-HTTP client for one serving endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 timeout_s: float = 60.0,
                 backoff_base_s: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_max_s: float = 5.0,
                 backoff_jitter: float = 0.1,
                 seed: int = 0):
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff bounds must be non-negative")
        if backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if not 0 <= backoff_jitter < 1:
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got {backoff_jitter}"
            )
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter = backoff_jitter
        self.seed = seed
        self._rng = random.Random(f"{seed}:{host}:{port}")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def backoff_s(self, attempt: int, hint_s: float = 0.0) -> float:
        """Sleep before retry *attempt* (0-based), honoring the server
        hint but never exceeding ``backoff_max_s``."""
        delay = min(
            self.backoff_max_s,
            max(hint_s, self.backoff_base_s * self.backoff_factor ** attempt),
        )
        if self.backoff_jitter:
            delay *= 1 + self.backoff_jitter * (2 * self._rng.random() - 1)
        return delay

    # -- transport -----------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened lazily by its first
        request, and again after a close)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _request(self, method: str, path: str,
                 payload: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                # No response byte arrived (RemoteDisconnected is a
                # ConnectionResetError). On a reused connection that is
                # the server closing it while idle; pricing is idempotent,
                # so sending once more on a fresh one is safe.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            raw = response.read()
        except BaseException:
            conn.close()  # unknown stream state: the next call reconnects
            raise
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            data = {"error": raw[:200].decode("utf-8", "replace")}
        if response.status == 429:
            raise RetryLater(float(data.get("retry_after_s", 1.0)),
                             data.get("error", ""))
        if response.status >= 400:
            raise ServingError(response.status,
                               data.get("error", "unknown error"))
        return data

    # -- endpoints -----------------------------------------------------------
    def healthy(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (OSError, ServingError):
            return False

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def price_cells(
        self,
        cells: Sequence[Union[SweepCell, Mapping[str, Any]]],
        retries: int = 0,
    ) -> List[Dict[str, Any]]:
        """Price explicit cells; result rows in request order.

        ``retries`` > 0 turns a shed into up to that many sleep-and-retry
        rounds (bounded exponential backoff, floored at the server's own
        ``retry_after_s`` hint — see :meth:`backoff_s`) before the final
        :class:`RetryLater` propagates.
        """
        payload = {"cells": [
            cell_to_json(c) if isinstance(c, SweepCell) else dict(c)
            for c in cells
        ]}
        return self._price(payload, retries)

    def price_grid(self, retries: int = 0, **axes) -> List[Dict[str, Any]]:
        """Price a whole grid, e.g. ``price_grid(models=["resnet50"])``."""
        if "models" not in axes:
            raise SweepSpecError("price_grid needs at least models=[...]")
        return self._price({"grid": axes}, retries)

    def _price(self, payload: Mapping[str, Any],
               retries: int) -> List[Dict[str, Any]]:
        attempt = 0
        while True:
            try:
                return self._request("POST", "/price", payload)["results"]
            except RetryLater as shed:
                if attempt >= retries:
                    raise
                time.sleep(self.backoff_s(attempt, shed.retry_after_s))
                attempt += 1

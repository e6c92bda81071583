"""Stdlib client for the floorplanning service (http.client, no deps).

Used by ``repro.cli submit``, the CI smoke, and the serve benchmark.
Requests ride persistent HTTP/1.1 connections, so a stream of requests
pays one TCP handshake (and one server thread) rather than one each.
JSON floats round-trip exactly through Python's encoder/parser, so
values read back here are bitwise-comparable against locally computed
results.
"""

from __future__ import annotations

import http.client
import json
import threading
import weakref
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError"]

#: How a request fails when the server closed its idle connection
#: before the request arrived.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ServeError(RuntimeError):
    """Server answered with an error status (message from its body)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Client of one service; safe to share between threads.

    An ``http.client`` connection serves one request at a time, so the
    client keeps a pool of idle keep-alive connections: a call takes one
    (or opens one) and puts it back when its answer is read.  A request
    that fails on a *reused* connection before any answer arrives —
    the server closed it while idle — is sent once more on a fresh
    connection.  Resending is safe because every endpoint is
    idempotent: ``evaluate`` is pure, ``place`` is memoized and
    single-flighted, and registering a policy replaces it.
    """

    def __init__(self, base_url: str, timeout: float = 600.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http:// URL, got {base_url!r}")
        self._address = (parts.hostname, parts.port)
        self._prefix = parts.path
        self._idle: list = []  # idle keep-alive HTTPConnections
        self._lock = threading.Lock()
        # A client dropped without close() still closes its sockets.
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle = list(self._idle)
            self._idle.clear()
        _close_all(idle)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ------------------------------------------------------

    def _request(
        self, method: str, path: str, body: bytes | None = None,
        content_type: str = "application/json",
    ) -> dict:
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = http.client.HTTPConnection(
                *self._address, timeout=self.timeout
            )
        headers = {"Content-Type": content_type} if body else {}
        try:
            status, raw = _exchange(
                connection, method, self._prefix + path, body, headers
            )
        except BaseException:
            connection.close()
            raise
        with self._lock:
            self._idle.append(connection)
        if not 200 <= status < 300:
            text = raw.decode("utf-8", errors="replace")
            try:
                message = json.loads(text).get("error", text)
            except json.JSONDecodeError:
                message = text
            raise ServeError(status, message)
        return json.loads(raw.decode("utf-8"))

    def _post_json(self, path: str, payload: dict) -> dict:
        return self._request(
            "POST", path, json.dumps(payload).encode("utf-8")
        )

    # -- endpoints ------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def benchmarks(self) -> list:
        return self._request("GET", "/v1/benchmarks")["benchmarks"]

    def policies(self) -> dict:
        return self._request("GET", "/v1/policies")["policies"]

    def place(self, system: str, method: str, budget: dict | None = None) -> dict:
        return self._post_json(
            "/v1/place",
            {"system": system, "method": method, "budget": budget or {}},
        )

    def evaluate(
        self,
        system: str,
        placement: dict,
        evaluator: str = "fast",
        budget: dict | None = None,
    ) -> dict:
        return self._post_json(
            "/v1/evaluate",
            {
                "system": system,
                "placement": placement,
                "evaluator": evaluator,
                "budget": budget or {},
            },
        )

    def rollout(
        self,
        policy: str,
        system: str,
        seed: int = 0,
        greedy: bool = False,
        budget: dict | None = None,
    ) -> dict:
        return self._post_json(
            "/v1/rollout",
            {
                "policy": policy,
                "system": system,
                "seed": seed,
                "greedy": greedy,
                "budget": budget or {},
            },
        )

    def register_policy(
        self, name: str, payload: bytes, channels=(16, 32, 32)
    ) -> dict:
        channel_spec = ",".join(str(int(c)) for c in channels)
        return self._request(
            "POST",
            f"/v1/policies?name={name}&channels={channel_spec}",
            payload,
            content_type="application/octet-stream",
        )


def _close_all(connections) -> None:
    for connection in connections:
        connection.close()


def _exchange(connection, method, url, body, headers) -> tuple:
    """One request/answer on ``connection``: ``(status, body bytes)``."""
    reused = connection.sock is not None
    try:
        connection.request(method, url, body=body, headers=headers)
        reply = connection.getresponse()
    except _STALE_CONNECTION:
        if not reused:
            raise
        connection.close()
        connection.request(method, url, body=body, headers=headers)
        reply = connection.getresponse()
    return reply.status, reply.read()

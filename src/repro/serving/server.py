"""The asyncio policy server and its in-process client.

A deliberately minimal HTTP/1.1 JSON transport over
:func:`asyncio.start_server` — stdlib only, loopback-oriented, keep-alive
capable — in front of a :class:`~repro.serving.fallback.DecisionService`.
Routes:

* ``POST /decide`` — body ``{"fingerprint": ..., "signature": [...],
  "now": ...}``; answers with the served decision, its tier, and a counter
  snapshot.  Admission control is enforced *here*: when the number of
  in-flight decisions reaches ``max_pending`` the request is shed — still
  HTTP 200, still a valid (safe-default) decision, but
  ``"status": "overloaded"`` so a well-behaved client backs off.
* ``POST /reload`` — drop the registry's memory cache; in-flight requests
  keep the table object they already hold.
* ``GET /healthz`` / ``GET /readyz`` — liveness / readiness (503 when not
  ready to take traffic); ``GET /metrics`` — counter snapshot.

What runs where: a ``/decide`` whose table version is already in memory and
still the one ``CURRENT`` names is answered on the event loop — a pointer
read and two dict lookups, nothing that can block.  Everything else (a
version load after a publish or ``/reload``, live planning, chaos mode) runs
in the loop's thread pool via ``run_in_executor``, so health probes stay
responsive while tier 2 grinds.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.api.policy import signature_from_json
from repro.errors import OverloadedError, ServingError
from repro.serving.fallback import DecisionService
from repro.serving.health import healthz_payload, readyz_payload
from repro.serving.registry import is_path_component

__all__ = ["PolicyClient", "PolicyServer"]

#: Largest request body the server will read (a decision signature is tiny;
#: anything bigger is a confused or hostile client).
MAX_BODY_BYTES = 1_000_000

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 503: "Service Unavailable"}


def _render_response(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """The start line's words and the (lower-cased) headers of one message head."""
    start_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return start_line.split(), headers


class PolicyServer:
    """Serve one :class:`DecisionService` over loopback HTTP.

    Parameters
    ----------
    service:
        The fallback chain answering ``/decide``.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start` — the test and CLI pattern).
    max_pending:
        Admission-control bound on concurrent in-flight decisions; the
        ``max_pending``-plus-first request is shed.
    """

    def __init__(
        self,
        service: DecisionService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 32,
    ) -> None:
        if max_pending < 1:
            raise ServingError(f"max_pending must be at least 1, got {max_pending!r}")
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self._pending = 0
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def pending(self) -> int:
        """In-flight ``/decide`` requests right now."""
        return self._pending

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as error:  # a head that does not parse
                    payload = {"status": "error", "error": f"malformed request head: {error}"}
                    writer.write(_render_response(400, payload, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, payload = await self._dispatch(method, path, body)
                writer.write(_render_response(status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError lands here when stop() tears down an idle
                # keep-alive connection; the transport is already closed,
                # so completing quietly beats asyncio's noisy callback log.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, bytes, bool]]:
        """One HTTP/1.1 request, ``(method, path, body, keep_alive)``; ``None`` when
        the client went away or announced a body not worth reading; raises
        :class:`ValueError` when the head does not parse."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        parts, headers = _parse_head(head)
        if len(parts) < 2:
            return None
        length = int(headers.get("content-length") or 0)
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return parts[0].upper(), parts[1], body, keep_alive

    # --------------------------------------------------------------- routing

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        if method == "GET" and path == "/healthz":
            return 200, healthz_payload(self.service.uptime_s)
        if method == "GET" and path == "/readyz":
            ready, payload = readyz_payload(
                tables=len(self.service.registry.fingerprints()),
                configs=len(self.service.configs),
                pending=self._pending,
                max_pending=self.max_pending,
                breaker_states=self.service.breaker_states(),
            )
            return (200 if ready else 503), payload
        if method == "GET" and path == "/metrics":
            return 200, {"counters": self.service.counters_snapshot()}
        if method == "POST" and path == "/reload":
            return 200, {"status": "ok", "dropped": self.service.registry.reload()}
        if method == "POST" and path == "/decide":
            return await self._decide(body)
        return 404, {"status": "error", "error": f"no route {method} {path}"}

    async def _decide(self, body: bytes) -> tuple[int, dict]:
        try:
            request = json.loads(body.decode("utf-8"))
            fingerprint = str(request["fingerprint"])
            if not is_path_component(fingerprint):
                raise ValueError(f"fingerprint {fingerprint!r} is not one path component")
            signature = signature_from_json(request["signature"])
            now = float(request.get("now", 0.0))
        except (ValueError, KeyError, TypeError, RecursionError) as error:
            return 400, {"status": "error", "error": f"malformed /decide request: {error}"}

        if self._pending >= self.max_pending:
            served = self.service.shed(fingerprint)
            return 200, served.to_payload(self.service.counters_snapshot())

        served = None
        if self.service.registry.is_resident(fingerprint):
            # A hit on a version already in memory is answered right here; with
            # nothing resident there is none to try, only the one full call.
            served = self.service.decide(fingerprint, signature, now, resident_only=True)
        if served is None:
            self._pending += 1
            try:
                served = await asyncio.get_running_loop().run_in_executor(
                    None, self.service.decide, fingerprint, signature, now
                )
            finally:
                self._pending -= 1
        return 200, served.to_payload(self.service.counters_snapshot())


class PolicyClient:
    """Keep-alive asyncio client for a :class:`PolicyServer`.

    Not thread-safe and not for concurrent use from one instance — open
    one client per logical caller (they multiplex fine at the server).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        raise_on_overload: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.raise_on_overload = raise_on_overload
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict]:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = (json.dumps(payload) if payload is not None else "").encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()

        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            raise ServingError("policy server closed the connection") from error
        parts, headers = _parse_head(head)
        status, length = int(parts[1]), int(headers.get("content-length") or 0)
        data = await self._reader.readexactly(length) if length else b""
        return status, json.loads(data.decode("utf-8")) if data else {}

    # ------------------------------------------------------------------ verbs

    async def decide(
        self, fingerprint: str, signature, now: float = 0.0
    ) -> dict:
        """One decision lookup; returns the response payload.

        ``signature`` may be the tuple form or its JSON (list) form.  With
        ``raise_on_overload`` a shed response raises
        :class:`~repro.errors.OverloadedError` instead of returning — for
        callers that would rather retry elsewhere than accept the safe
        default.
        """
        status, payload = await self._request(
            "POST",
            "/decide",
            {"fingerprint": fingerprint, "signature": signature, "now": now},
        )
        if status != 200:
            raise ServingError(f"/decide failed ({status}): {payload.get('error')}")
        if payload.get("status") == "overloaded" and self.raise_on_overload:
            raise OverloadedError(f"policy server shed the request for {fingerprint}")
        return payload

    async def get(self, path: str) -> tuple[int, dict]:
        """A raw GET (health probes, metrics)."""
        return await self._request("GET", path)

    async def reload(self) -> dict:
        status, payload = await self._request("POST", "/reload")
        if status != 200:
            raise ServingError(f"/reload failed ({status})")
        return payload

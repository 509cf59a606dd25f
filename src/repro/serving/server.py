"""The asyncio policy server and its in-process client.

A deliberately minimal HTTP/1.1 JSON transport over asyncio protocols on
both ends (``loop.create_server`` and ``loop.create_connection``, each
connection an :class:`asyncio.BufferedProtocol`) — stdlib only,
loopback-oriented, keep-alive capable — in front of a
:class:`~repro.serving.fallback.DecisionService`.  Routes:

* ``POST /decide`` — body ``{"fingerprint": ..., "signature": [...],
  "now": ...}``, each signature row ``[assignment_digest, weight, gate_on,
  backlog_rounds, busy]`` (a Figure-3 request is about 780 bytes); answers
  with the served decision and its tier, nothing else.  A body of
  any other shape, with a weight or ``now`` that is not finite, or with a
  ``now`` past ±``MAX_CLOCK_S`` (1e9 s), is a 400 that counts nothing.
  Admission control is enforced *here*: when the number of in-flight
  decisions reaches ``max_pending`` the request is shed — still HTTP 200,
  still a valid (safe-default) decision, but ``"status": "overloaded"`` so
  a well-behaved client backs off.
* ``POST /reload`` — drop the registry's memory cache; in-flight requests
  keep the table object they already hold.
* ``GET /healthz`` / ``GET /readyz`` — liveness / readiness (503 when not
  ready to take traffic); ``GET /metrics`` — counter snapshot.

What runs where: a connection's protocol parses a request as its bytes
arrive and answers it in the same callback, unless the answer needs the
thread pool.  On the event loop: a ``/decide`` whose table version
is already in memory and still the one ``CURRENT`` names (a pointer read and
two dict lookups; the reply joins the text the table keeps for that decision,
:meth:`~repro.api.policy.PolicyTable.decision_json`, to a kept envelope), a shed, a
400, the probes and ``/reload`` — nothing that can block.  In the pool, via
``run_in_executor``: a version load after a publish or ``/reload``, live
planning and chaos mode.  That reply leaves when its future completes; until
then the connection buffers later requests unparsed, so replies keep request
order, and other connections (health probes included) are answered while
tier 2 grinds.
"""

from __future__ import annotations

import asyncio
import functools
import json
from typing import Optional, Union

from repro.api.policy import _clock, signature_from_json
from repro.errors import ServingError
from repro.serving.fallback import DecisionService, ServedDecision
from repro.serving.health import healthz_payload, readyz_payload
from repro.serving.registry import is_path_component

__all__ = ["PolicyClient", "PolicyServer"]

#: Largest request body the server will read (a decision signature is tiny;
#: anything bigger is a confused or hostile client).
MAX_BODY_BYTES = 1_000_000

#: Longest message head either end reads: one that has not ended by then
#: closes the connection unanswered (asyncio's default stream-reader limit).
MAX_HEAD_BYTES = 2**16

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 503: "Service Unavailable"}

#: What a route answers with: a payload, a served decision, or the thread
#: pool's future of one.
_Answer = Union[dict, ServedDecision, asyncio.Future]


def _frame(status: int, body: bytes, *, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


def _render_response(status: int, payload: dict, *, keep_alive: bool) -> bytes:
    return _frame(
        status, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"), keep_alive=keep_alive
    )


def _parse_head(head: bytes) -> tuple[list[str], dict[str, str]]:
    """The start line's words and the (lower-cased) headers of one message head."""
    start_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return start_line.split(), headers


def _head_end(buffer: bytearray) -> int:
    """Where the head at the front of ``buffer`` ends (past its blank line);
    0 while it may still end in bounds, -1 once it cannot."""
    end = buffer.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES + 4)
    if end >= 0:
        return end + 4
    return -1 if len(buffer) >= MAX_HEAD_BYTES + 4 else 0


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
        self._connections: set[_ServerConnection] = set()
        #: Per fingerprint, ``((table_digest, known_config), text)``: a table
        #: hit's reply after its ``"decision"``, for the latest version seen.
        self._envelopes: dict[str, tuple[tuple, str]] = {}

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self), host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop listening and close every open connection (a reply still in
        the thread pool is dropped; its decision is still counted)."""
        if self._server is not None:
            self._server.close()
            for connection in list(self._connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    @property
    def pending(self) -> int:
        """In-flight ``/decide`` requests right now."""
        return self._pending

    # --------------------------------------------------------------- routing

    def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, _Answer]:
        if method == "POST" and path == "/decide":
            return self._decide(body)
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
        return 404, {"status": "error", "error": f"no route {method} {path}"}

    def _decide(self, body: bytes) -> tuple[int, _Answer]:
        try:
            request = json.loads(body.decode("utf-8"))
            fingerprint = str(request["fingerprint"])
            if not is_path_component(fingerprint):
                raise ValueError(f"fingerprint {fingerprint!r} is not one path component")
            signature = signature_from_json(request["signature"])
            now = _clock("now", request.get("now", 0.0))
        except (ValueError, KeyError, TypeError, RecursionError) as error:
            return 400, {"status": "error", "error": f"malformed /decide request: {error}"}

        if self._pending >= self.max_pending:
            return 200, self.service.shed(fingerprint)

        if self.service.registry.is_resident(fingerprint):
            # A hit on a version already in memory is answered right here; with
            # nothing resident there is none to try, only the one full call.
            served = self.service.decide(fingerprint, signature, now, resident_only=True)
            if served is not None:
                return 200, served
        # Counted in flight from now until the pool's future completes, so
        # requests arriving in the meantime see it at admission.
        self._pending += 1
        planned = asyncio.get_running_loop().run_in_executor(
            None, self.service.decide, fingerprint, signature, now
        )
        planned.add_done_callback(self._release)
        return 200, planned

    def _release(self, _planned: asyncio.Future) -> None:
        self._pending -= 1

    def _render(self, status: int, answer: Union[dict, ServedDecision], keep_alive: bool) -> bytes:
        """``_render_response(status, payload, ...)`` byte for byte, a served
        decision's payload being ``to_payload()``.  With sorted keys
        ``"decision"`` comes first: a table hit is its table's text of it
        (``decision_json``), then the rest of the object, rendered once per
        fingerprint, version and ``known_config`` and kept."""
        if not isinstance(answer, ServedDecision):
            return _render_response(status, answer, keep_alive=keep_alive)
        if answer.decision_json is None:
            return _render_response(status, answer.to_payload(), keep_alive=keep_alive)
        version = (answer.table_digest, answer.known_config)
        kept = self._envelopes.get(answer.fingerprint)
        if kept is None or kept[0] != version:
            rest = answer.to_payload()
            del rest["decision"]
            kept = version, json.dumps(rest, sort_keys=True)[1:] + "\n"
            self._envelopes[answer.fingerprint] = kept
        body = f'{{"decision": {answer.decision_json}, {kept[1]}'
        return _frame(status, body.encode("utf-8"), keep_alive=keep_alive)


class _Connection(asyncio.BufferedProtocol):
    """What both ends share: the transport, and the bytes read and not yet
    parsed.

    A socket read lands in one chunk buffer the connection keeps and is
    copied onto ``_buffer``.  A plain ``Protocol`` is handed a fresh
    ``bytes`` per read, allocated at the transport's 256 KiB read size —
    past glibc's ``mmap`` threshold, so that read can map and unmap pages
    every time, which costs more than parsing the message it carries.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._chunk = bytearray(MAX_HEAD_BYTES)
        self._buffer = bytearray()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> bytearray:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        self._buffer += self._chunk[:nbytes]
        self._received()

    def _received(self) -> None:
        raise NotImplementedError


class _ServerConnection(_Connection):
    """One client connection of a :class:`PolicyServer`.

    Requests are answered in order, at most one in flight: while a reply
    waits on the thread pool (or the transport's write buffer is full),
    later bytes are buffered unparsed, and reading pauses once that buffer
    outgrows a head.  A head that does not end within ``MAX_HEAD_BYTES``, a
    start line that is not one, or a body longer than ``MAX_BODY_BYTES``
    (or negative) closes the connection unanswered; a ``Content-Length``
    that does not parse is a 400 and a close.
    """

    def __init__(self, server: PolicyServer) -> None:
        super().__init__()
        self.server = server
        #: The thread pool's future this connection's next reply waits on.
        self._waiting: Optional[asyncio.Future] = None
        self._writing_paused = False
        self._reading_paused = False
        self._eof = False

    # ------------------------------------------------------------- protocol

    def connection_made(self, transport: asyncio.Transport) -> None:
        super().connection_made(transport)
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)
        self._buffer.clear()

    def eof_received(self) -> bool:
        self._eof = True
        # Keep the write half open while a reply is still owed.
        return self._busy

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._serve()

    # ------------------------------------------------------------- requests

    @property
    def _busy(self) -> bool:
        return self._waiting is not None or self._writing_paused

    def _received(self) -> None:
        self._serve()

    def _serve(self) -> None:
        """Answer the buffered requests in order until one must wait."""
        transport = self.transport
        while not self._busy and not transport.is_closing():
            request = self._next_request()
            if request is None:
                break
            method, path, body, keep_alive = request
            status, answer = self.server._dispatch(method, path, body)
            if isinstance(answer, asyncio.Future):
                self._waiting = answer
                answer.add_done_callback(functools.partial(self._answered, status, keep_alive))
            else:
                self._send(self.server._render(status, answer, keep_alive), keep_alive)
        if transport.is_closing():
            return
        if self._eof and not self._busy:
            transport.close()
            return
        hold = self._busy and len(self._buffer) > MAX_HEAD_BYTES
        if hold != self._reading_paused:
            self._reading_paused = hold
            if hold:
                transport.pause_reading()
            else:
                transport.resume_reading()

    def _next_request(self) -> Optional[tuple[str, str, bytes, bool]]:
        """The buffer's first complete request, ``(method, path, body,
        keep_alive)``, taken off it; ``None`` while it is incomplete, or when
        it closed the connection."""
        buffer = self._buffer
        end = _head_end(buffer)
        if end <= 0:
            if end < 0:
                self.transport.close()
            return None
        parts, headers = _parse_head(bytes(buffer[:end]))
        if len(parts) < 2:
            self.transport.close()
            return None
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError as error:
            payload = {"status": "error", "error": f"malformed request head: {error}"}
            self._send(_render_response(400, payload, keep_alive=False), False)
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            self.transport.close()
            return None
        if len(buffer) < end + length:
            return None
        body = bytes(buffer[end : end + length])
        del buffer[: end + length]
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return parts[0].upper(), parts[1], body, keep_alive

    def _answered(self, status: int, keep_alive: bool, planned: asyncio.Future) -> None:
        self._waiting = None
        try:
            served = planned.result()
            if self.transport.is_closing():
                return  # the client went away while its request was planned
            reply = self.server._render(status, served, keep_alive)
        except BaseException:
            self.transport.close()
            raise
        self._send(reply, keep_alive)
        self._serve()

    def _send(self, reply: bytes, keep_alive: bool) -> None:
        self.transport.write(reply)
        if not keep_alive:
            self.transport.close()


class _ClientConnection(_Connection):
    """The client end of one keep-alive connection: resolves the one pending
    reply future with ``(status, body, keep_alive)``, or fails it with
    :class:`ServingError` — closing the transport — when the connection
    ends first."""

    def __init__(self) -> None:
        super().__init__()
        self.reply: Optional[asyncio.Future] = None
        #: Resolved once the connection is gone (what ``close`` waits for).
        self.closed = asyncio.get_running_loop().create_future()

    def _received(self) -> None:
        reply = self.reply
        if reply is None or reply.done():
            return
        buffer = self._buffer
        end = _head_end(buffer)
        if end <= 0:
            if end < 0:
                self._end("policy server sent an overlong reply head")
            return
        parts, headers = _parse_head(bytes(buffer[:end]))
        try:
            status, length = int(parts[1]), int(headers.get("content-length") or 0)
        except (IndexError, ValueError) as error:
            self._end(f"policy server sent a malformed reply head: {error}")
            return
        if len(buffer) < end + length:
            return
        body = bytes(buffer[end : end + length])
        del buffer[: end + length]
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        reply.set_result((status, body, keep_alive))

    def eof_received(self) -> bool:
        self._end("policy server closed the connection")
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end("policy server closed the connection")
        if not self.closed.done():
            self.closed.set_result(None)

    def _end(self, why: str) -> None:
        if self.reply is not None and not self.reply.done():
            self.reply.set_exception(ServingError(why))
        self.transport.close()


class PolicyClient:
    """Keep-alive asyncio client for a :class:`PolicyServer`.

    Not thread-safe and not for concurrent use from one instance — open
    one client per logical caller (they multiplex fine at the server).

    A connection the server ends — it closed the socket, answered with
    ``Connection: close``, or the connection dropped — is let go, and the
    next call opens a new one; a request in flight when its connection
    ends raises :class:`~repro.errors.ServingError`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        #: The open connection's transport (its protocol a ``_ClientConnection``).
        self._writer: Optional[asyncio.Transport] = None

    async def connect(self) -> None:
        self._writer, _ = await asyncio.get_running_loop().create_connection(
            _ClientConnection, self.host, self.port
        )

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            await writer.get_protocol().closed

    async def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple[int, dict]:
        if self._writer is None or self._writer.is_closing():
            await self.connect()
        writer = self._writer
        assert writer is not None
        connection = writer.get_protocol()
        body = (json.dumps(payload) if payload is not None else "").encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("ascii")
        connection.reply = reply = asyncio.get_running_loop().create_future()
        writer.write(head + body)
        try:
            status, data, keep_alive = await reply
        except BaseException:
            # Ended, or the caller gave up (a cancellation): a reply still
            # owed on this connection would answer the next request.
            writer.close()
            raise
        finally:
            connection.reply = None
        if not keep_alive:
            writer.close()
        return status, json.loads(data.decode("utf-8")) if data else {}

    # ------------------------------------------------------------------ verbs

    async def decide(
        self, fingerprint: str, signature, now: float = 0.0
    ) -> dict:
        """One decision lookup; returns the response payload.

        ``signature`` may be the tuple form or its JSON (list) form.  A
        request the server shed under admission control still returns its
        safe-default decision, marked ``"status": "overloaded"``.
        """
        status, payload = await self._request(
            "POST",
            "/decide",
            {"fingerprint": fingerprint, "signature": signature, "now": now},
        )
        if status != 200:
            raise ServingError(f"/decide failed ({status}): {payload.get('error')}")
        return payload

    async def get(self, path: str) -> tuple[int, dict]:
        """A raw GET (health probes, metrics)."""
        return await self._request("GET", path)

    async def reload(self) -> dict:
        status, payload = await self._request("POST", "/reload")
        if status != 200:
            raise ServingError(f"/reload failed ({status})")
        return payload

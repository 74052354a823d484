"""`repro.lake.wire` — the one HTTP/1.1 framing every lake hop speaks.

:class:`~repro.lake.server.LakeServer`, :class:`~repro.lake.frontend.
LakeFrontend` (both as a listener and as a client of its backends) and
:class:`~repro.lake.client.LakeClient` frame messages only through this
module: one head parser (:func:`parse_head`) for request and response heads
alike, Content-Length bodies, one encoder per direction, the one keep-alive
accept loop (:func:`serve_connection`), and the one rule for which requests
are safe to send twice (:func:`is_read_only`).
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Awaitable, Callable

from repro.lake.api import API_VERSION, DiscoveryError, bad_request

#: Upper bound on a message body (64 MiB) — a lake payload of tables is
#: large but bounded; an unframed flood is a peer bug.
MAX_BODY_BYTES = 64 * 1024 * 1024

JSON = "application/json"

#: HTTP reason phrases for the statuses the API can emit.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: POST routes without side effects, so as safe to send twice as a GET.
_QUERY_ROUTES = ("/v1/query", "/v1/query_batch")


class BadFrame(ValueError):
    """A message that cannot be framed (and so cannot stay keep-alive)."""


def is_read_only(method: str, path: str) -> bool:
    """Whether a request may be re-sent after a transport failure: GETs and
    the query POSTs. A mutation that failed after going out may already have
    run (ingested, appended, removed), so it is never sent twice."""
    return method == "GET" or path.partition("?")[0] in _QUERY_ROUTES


def parse_head(head: bytes) -> tuple[list[str], dict[str, str], int]:
    """One request or response head -> ``(start-line parts, headers,
    body length)``.

    The start line splits into its three parts (``method, target, version``
    or ``version, status, reason``); header names are lower-cased. Raises
    :class:`BadFrame` on a start line without three parts and on an
    unparseable, negative or over-limit Content-Length.
    """
    start, *lines = bytes(head).decode("latin-1").split("\r\n")
    parts = start.split(" ", 2)
    if len(parts) != 3:
        raise BadFrame(f"malformed start line {start[:80]!r}")
    headers: dict[str, str] = {}
    for line in lines:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise BadFrame("unparseable Content-Length header") from None
    if length < 0:
        raise BadFrame(f"negative Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise BadFrame(
            f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    return parts, headers, length


async def read_message(
    reader: asyncio.StreamReader,
) -> tuple[list[str], dict[str, str], bytes]:
    """Read one framed message: ``(start-line parts, headers, body)``.
    :class:`asyncio.IncompleteReadError` when the peer closes first."""
    parts, headers, length = parse_head(await reader.readuntil(b"\r\n\r\n"))
    body = await reader.readexactly(length) if length else b""
    return parts, headers, body


def _head(start: str, headers: dict) -> bytes:
    lines = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return f"{start}\r\n{lines}\r\n".encode("latin-1")


def encode_request(
    method: str, target: str, headers: dict, body: bytes = b""
) -> bytes:
    """One request, written in a single buffer; the caller supplies
    ``Host`` and any other headers, this adds Content-Length."""
    return _head(
        f"{method} {target} HTTP/1.1",
        {**headers, "Content-Length": len(body)},
    ) + body


def encode_response(
    status: int,
    body: bytes,
    content_type: str = JSON,
    keep_alive: bool = True,
    extra_headers: dict | None = None,
) -> bytes:
    """Frame ``body`` as-is, so a relayed body keeps every byte."""
    head = {
        "Content-Type": content_type,
        "Content-Length": len(body),
        "Connection": "keep-alive" if keep_alive else "close",
        **(extra_headers or {}),
    }
    return _head(f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}", head) + body


def encode_json(status: int, payload: dict, **options) -> bytes:
    """A JSON ``payload`` as a response; ``options`` as for
    :func:`encode_response`."""
    return encode_response(status, json.dumps(payload).encode("utf-8"), **options)


def error_payload(exc: DiscoveryError) -> dict:
    """The typed error envelope every hop answers failures with."""
    return {"error": exc.to_dict(), "version": API_VERSION}


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    answer: Callable[[str, str, dict, bytes], Awaitable[bytes]],
) -> None:
    """The one keep-alive loop: frame each request and write what
    ``await answer(method, target, headers, body)`` returns, until the peer
    closes or vanishes, asks for ``Connection: close``, or sends a request
    that cannot be framed (answered with the typed 400, then closed — its
    unread body makes keep-alive moot).

    Cancellation (the listener shutting down under an open connection) ends
    it quietly. This is the connection task's outermost frame, so nothing
    above it awaits the cancellation, and asyncio logs an error for a
    connection task that ends cancelled.
    """
    try:
        while True:
            try:
                (method, target, _), headers, body = await read_message(reader)
            except BadFrame as exc:
                error = bad_request(exc.args[0])
                writer.write(
                    encode_json(error.status, error_payload(error), keep_alive=False)
                )
                await writer.drain()
                break
            writer.write(await answer(method.upper(), target, headers, body))
            await writer.drain()
            if headers.get("connection", "").lower() == "close":
                break
    except (
        ConnectionError,
        asyncio.IncompleteReadError,  # peer closed, or vanished mid-body
        asyncio.LimitOverrunError,
        TimeoutError,
        asyncio.CancelledError,
    ):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass

"""`LakeClient` — the SDK for a remote lake.

Round-trips the exact dataclasses of :mod:`repro.lake.api`: a
:class:`~repro.lake.api.DiscoveryRequest` goes out as JSON, the ranked
:class:`~repro.lake.api.DiscoveryResult` comes back decoded — so swapping
an in-process :class:`~repro.lake.service.LakeService` for a client
pointed at :mod:`repro.lake.server` changes *nothing* about the hits a
caller sees (the parity the server tests and ``query_external_http``
assert). Server-side failures arrive as the typed error envelope and
re-raise as the same :class:`~repro.lake.api.DiscoveryError` the service
would have raised locally. :mod:`repro.lake.target` puts both behind one
op surface (:class:`~repro.lake.target.ClientTarget` wraps a client).

One keep-alive socket per client, guarded by a lock (HTTP/1.1 pipelining
is not attempted), framed by :mod:`repro.lake.wire` like every other hop:
each request is one ``sendall`` of :func:`~repro.lake.wire.encode_request`,
each response the shared head parser plus an exact body read. A failed
exchange is re-dialled once when the request never went out or its route
is read-only (:func:`~repro.lake.wire.is_read_only`). For concurrent load,
use one client per thread — they are cheap.

Every request is stamped with an ``X-Request-Id`` header (caller-supplied
via ``query(..., request_id=...)`` or freshly generated), the server binds
it to the handling trace, and the echoed header of the last exchange is
kept on :attr:`LakeClient.last_request_id` — one id correlates the client
call, the server's access-log line, and the slow-query entry.
"""

from __future__ import annotations

import json
import socket
import threading

from repro import obs
from repro.lake.api import (
    API_VERSION,
    DiscoveryError,
    DiscoveryRequest,
    DiscoveryResult,
    bad_request,
    table_to_dict,
)
from repro.lake.wire import encode_request, is_read_only, parse_head
from repro.table.schema import Table

DEFAULT_TIMEOUT = 60.0


def parse_host_port(address: str, what: str = "--server") -> tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` — the one parser behind every
    ``--server`` / ``--backends`` flag; :class:`ValueError` on anything else."""
    address = address.strip()
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"{what} wants HOST:PORT, got {address!r}")
    return host, int(port)


class LakeClient:
    """Typed HTTP access to a running :class:`~repro.lake.server.LakeServer`.

    ``connect_timeout`` bounds dialing the server, ``read_timeout`` bounds
    each response wait; both default to ``timeout``. Either deadline
    expiring raises a typed ``DiscoveryError("timeout")`` (HTTP-status
    analogue 504) instead of letting a raw socket ``OSError`` escape the
    SDK — ``is_alive`` and broad ``except DiscoveryError`` handlers keep
    working unchanged. Connection-refused/reset failures still surface as
    ``OSError`` (callers distinguish "server absent" from "server slow").
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        #: ``X-Request-Id`` echoed by the server on the last exchange.
        self.last_request_id: str | None = None

    # ------------------------------------------------------------------ #
    def _socket(self) -> socket.socket:
        if self._sock is None:
            # Dial under the connect deadline, then move the socket to the
            # (usually longer) read deadline for every exchange.
            sock = socket.create_connection(
                (self.host, self.port), self.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.read_timeout)
            self._sock = sock
        return self._sock

    def _hang_up(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _timeout_error(self, method: str, path: str) -> DiscoveryError:
        return DiscoveryError(
            "timeout",
            f"{method} {path} to {self.host}:{self.port} timed out "
            f"(connect {self.connect_timeout}s / read {self.read_timeout}s)",
        )

    def close(self) -> None:
        with self._lock:
            self._hang_up()

    def __enter__(self) -> "LakeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        request_id: str | None = None,
        expect_json: bool = True,
    ):
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        # Caller-supplied id wins; else propagate the trace-bound one (an
        # in-process pipeline calling out keeps one id end to end); else mint.
        rid = request_id or obs.request_id() or obs.new_request_id()
        headers = {"Host": f"{self.host}:{self.port}", "X-Request-Id": rid}
        if body:
            headers["Content-Type"] = "application/json"
        request = encode_request(method, path, headers, body)
        with self._lock:
            for attempt in (0, 1):
                sent = False
                try:
                    sock = self._socket()
                    sock.sendall(request)
                    sent = True
                    status, reply, raw = _receive(sock)
                    break
                except (OSError, ValueError) as exc:
                    self._hang_up()
                    # Re-dial once, but only when the retry cannot double-
                    # apply: the request never went out, or the route is
                    # read-only. A mutation that failed *after* sending may
                    # already have executed server-side — retrying could
                    # ingest twice or turn a successful remove into a
                    # spurious not-found — so it surfaces instead.
                    if attempt or (sent and not is_read_only(method, path)):
                        # Socket deadlines surface as the typed taxonomy and
                        # an unframeable answer as internal; refused/reset
                        # connections stay OSError.
                        if isinstance(exc, TimeoutError):
                            raise self._timeout_error(method, path) from exc
                        if isinstance(exc, ValueError):
                            raise DiscoveryError(
                                "internal", f"unframeable server response: {exc}"
                            ) from None
                        raise
            if reply.get("connection", "").lower() == "close":
                self._hang_up()
        self.last_request_id = reply.get("x-request-id") or rid
        if not expect_json and status < 400:
            return raw.decode("utf-8")
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DiscoveryError(
                "internal", f"undecodable server response ({status}): {exc}"
            ) from None
        if status >= 400:
            error = decoded.get("error") if isinstance(decoded, dict) else None
            if isinstance(error, dict):
                raise DiscoveryError.from_dict(error)
            raise DiscoveryError("internal", f"HTTP {status}: {decoded!r}")
        if not isinstance(decoded, dict):
            raise DiscoveryError(
                "internal", f"expected a JSON object response, got {decoded!r}"
            )
        return decoded

    # ------------------------------------------------------------------ #
    def query(
        self, request: DiscoveryRequest, request_id: str | None = None
    ) -> DiscoveryResult:
        """``POST /v1/query`` — one typed request, one typed ranked result."""
        payload = request.validated().to_dict()
        return DiscoveryResult.from_dict(
            self._request("POST", "/v1/query", payload, request_id=request_id)
        )

    def query_batch(
        self, requests: "list[DiscoveryRequest]"
    ) -> list[DiscoveryResult]:
        """``POST /v1/query_batch`` — the batched-embedding path, remotely."""
        payload = {"requests": [r.validated().to_dict() for r in requests]}
        decoded = self._request("POST", "/v1/query_batch", payload)
        results = decoded.get("results")
        if not isinstance(results, list):
            raise DiscoveryError(
                "internal", "query_batch response missing 'results' list"
            )
        return [DiscoveryResult.from_dict(raw) for raw in results]

    # ------------------------------------------------------------------ #
    def add_tables(self, tables: "list[Table] | dict[str, Table]") -> dict:
        """``POST /v1/tables`` — remote ingest through the same pipeline."""
        ordered = list(tables.values()) if isinstance(tables, dict) else list(tables)
        if not ordered:
            raise bad_request("add_tables needs at least one table")
        payload = {"tables": [table_to_dict(table) for table in ordered]}
        return self._request("POST", "/v1/tables", payload)

    def add_table(self, table: Table) -> dict:
        return self.add_tables([table])

    def update_table(self, table: Table) -> dict:
        """``PUT /v1/tables`` — staged replacement; answers the new per-table
        version. Not retried on transport failure (a resend would double the
        version bump)."""
        return self._request(
            "PUT", "/v1/tables", {"table": table_to_dict(table)}
        )

    def append_rows(self, name: str, rows: "list[list[str]]") -> dict:
        """``POST /v1/tables/{name}/rows`` — O(delta) sketch-merge append.

        The response carries ``table_version`` and ``embedding_stale``
        (``True`` until the server's next strict query or background sweep
        re-embeds the table). Not retried on transport failure — a resend
        would append the rows twice.
        """
        from urllib.parse import quote

        return self._request(
            "POST",
            f"/v1/tables/{quote(name, safe='')}/rows",
            {"rows": rows},
        )

    def refresh_stale(self, tables: "list[str] | None" = None) -> dict:
        """``POST /v1/refresh`` — eagerly re-embed stale tables server-side.

        ``tables=None`` sweeps everything stale; a list restricts the
        sweep. The response carries the ``refreshed`` names and the
        ``stale_remaining`` count.
        """
        payload = {"tables": tables} if tables is not None else {}
        return self._request("POST", "/v1/refresh", payload)

    def remove_table(self, name: str) -> dict:
        """``DELETE /v1/tables/{name}`` — raises not-found when absent."""
        from urllib.parse import quote

        return self._request("DELETE", f"/v1/tables/{quote(name, safe='')}")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> dict:
        """``GET /v1/metrics`` — the :mod:`repro.obs` registry as JSON."""
        return self._request("GET", "/v1/metrics")

    def metrics_text(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — the text exposition."""
        return self._request(
            "GET", "/v1/metrics?format=prometheus", expect_json=False
        )

    def slow_queries(self) -> list[dict]:
        """``GET /v1/slow_queries`` — slowest requests, span breakdowns."""
        decoded = self._request("GET", "/v1/slow_queries")
        entries = decoded.get("slow_queries")
        if not isinstance(entries, list):
            raise DiscoveryError(
                "internal", "slow_queries response missing 'slow_queries' list"
            )
        return entries

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def is_alive(self) -> bool:
        try:
            return self.healthz().get("status") == "ok"
        except (DiscoveryError, OSError):
            return False


def _receive(sock: socket.socket) -> tuple[int, dict, bytes]:
    """One response: the head through the shared parser, then exactly its
    Content-Length of body."""
    data, end, need = bytearray(), -1, None
    while need is None or len(data) < need:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionResetError("server closed the connection before answering")
        data += chunk
        if need is None and (end := data.find(b"\r\n\r\n")) >= 0:
            (_, status, _), headers, length = parse_head(data[:end])
            need = end + 4 + length
    return int(status), headers, bytes(data[end + 4 : need])


__all__ = ["LakeClient", "API_VERSION", "DEFAULT_TIMEOUT", "parse_host_port"]

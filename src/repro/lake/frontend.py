"""`repro.lake.frontend` — a round-robin proxy over N lake replicas.

The thinnest possible fan-out layer, stdlib asyncio only: one accept loop
frames HTTP/1.1 requests with the same code as :class:`~repro.lake.server.
LakeServer` (:func:`~repro.lake.server.read_request` — so an unframeable
request gets the same typed 400 here as there) and relays each one to the
next backend in rotation over a pooled keep-alive connection. Response
bodies are relayed **verbatim** — the frontend never re-encodes JSON, so
ranked hits coming back through it are byte-identical to what the replica
produced (which is in turn byte-identical to the in-process service; the
parity chain ``bench_replicated_lake`` and the CI smoke assert).

Behavior:

- **Round-robin dispatch** per request (not per connection), so a single
  keep-alive benchmark client still exercises every backend.
- **Failover for safe requests**: a backend that cannot be reached (or
  dies before answering) is skipped and the request retried on the next
  one — but only for read-only routes (GETs and the side-effect-free
  query POSTs), mirroring :class:`~repro.lake.client.LakeClient`'s
  retry rule. With every backend down, the typed ``unavailable``
  envelope (503) goes back to the caller.
- **Health-aware routing** (opt-in via ``health_interval``): a timer
  task probes every backend's ``GET /v1/stats`` on the interval. Probes
  that fail, replicas reporting ``available: false``, and replicas
  serving a *stale generation* (behind the newest generation any healthy
  replica reports) are taken out of rotation until a later probe clears
  them. Routing fails open — with every backend marked out, dispatch
  falls back to the full list rather than refusing traffic on the word
  of a possibly-wrong prober. A forward failure also marks its backend
  unhealthy immediately (the probe is the only thing that re-adds it).
- ``GET /v1/replicas`` is answered by the frontend itself: the backend
  list with per-backend request/failure counters — plus, when health
  probing is on, each backend's ``healthy`` flag, last-seen replica
  ``generation``, and probe count.

:class:`FrontendThread` hosts the loop on a daemon thread for tests and
benchmarks; ``python -m repro.lake frontend`` is the CLI entry point.
"""

from __future__ import annotations

import asyncio
import json

from repro import obs
from repro.lake.api import API_VERSION, DiscoveryError
from repro.lake.client import parse_host_port
from repro.lake.server import (
    BadFrame,
    LoopThread,
    bad_frame_response,
    encode_response,
    error_payload,
    read_request,
)

_PROXIED = obs.counter(
    "frontend_requests_total",
    "Requests relayed by the lake frontend, by backend",
    ("backend",),
)
_FAILOVERS = obs.counter(
    "frontend_failovers_total",
    "Requests that failed over to another backend after a backend error",
)
_UNHEALTHY_SKIPS = obs.counter(
    "frontend_unhealthy_skips_total",
    "Dispatch decisions that excluded at least one unhealthy/stale backend",
)

#: Per-probe deadline (connect + response), seconds.
_PROBE_TIMEOUT = 2.0

#: Routes safe to retry on another backend (same rule as LakeClient).
_READ_ONLY_POSTS = ("/v1/query", "/v1/query_batch")


def _is_read_only(method: str, path: str) -> bool:
    route = path.partition("?")[0]
    return method == "GET" or route in _READ_ONLY_POSTS


class LakeFrontend:
    """Round-robin HTTP proxy fanning lake queries across replicas."""

    def __init__(
        self,
        backends: "list[tuple[str, int]]",
        host: str = "127.0.0.1",
        port: int = 0,
        health_interval: float = 0.0,
    ):
        if not backends:
            raise ValueError("frontend needs at least one backend")
        if health_interval < 0:
            raise ValueError(
                f"health_interval must be >= 0, got {health_interval}"
            )
        self.backends = list(backends)
        self.host = host
        self.port = port
        #: Seconds between ``/v1/stats`` health probes; 0 disables probing
        #: (every backend stays permanently in rotation — the pre-health
        #: behavior).
        self.health_interval = health_interval
        self._next = 0
        self._server: asyncio.AbstractServer | None = None
        self._prober: asyncio.Task | None = None
        #: Idle pooled connections per backend index.
        self._pools: dict[int, list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]] = {
            i: [] for i in range(len(backends))
        }
        self.requests_by_backend = [0] * len(backends)
        self.failures_by_backend = [0] * len(backends)
        #: Health record per backend. Backends start healthy so nothing is
        #: skipped before the first probe has actually observed anything.
        self.health = [
            {"healthy": True, "generation": None, "probes": 0, "error": None}
            for _ in backends
        ]

    # ------------------------------------------------------------------ #
    async def start(self) -> "LakeFrontend":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.health_interval > 0:
            self._prober = asyncio.create_task(self._probe_loop())
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._prober is not None:
            self._prober.cancel()
            try:
                await self._prober
            except asyncio.CancelledError:
                pass
            self._prober = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for pool in self._pools.values():
            for _, writer in pool:
                writer.close()
            pool.clear()

    # ------------------------------------------------------------------ #
    # Health probing
    # ------------------------------------------------------------------ #
    async def _probe_loop(self) -> None:
        while True:
            await self.probe_all()
            await asyncio.sleep(self.health_interval)

    async def probe_all(self) -> None:
        """One probe round over every backend (the timer body; tests call
        it directly instead of waiting out the interval)."""
        await asyncio.gather(
            *(self._probe(i) for i in range(len(self.backends)))
        )

    async def _probe(self, index: int) -> None:
        """``GET /v1/stats`` on a dedicated short-deadline connection (the
        request pools stay untouched — a slow probe must not steal a
        pooled connection from live traffic)."""
        host, port = self.backends[index]
        record = self.health[index]
        record["probes"] += 1
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), _PROBE_TIMEOUT
            )
            writer.write(
                (
                    f"GET /v1/stats HTTP/1.1\r\nHost: {host}:{port}\r\n"
                    "Content-Length: 0\r\nConnection: close\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            status, _, body = await asyncio.wait_for(
                self._read_response(reader), _PROBE_TIMEOUT
            )
            if status != 200:
                raise ValueError(f"/v1/stats answered HTTP {status}")
            stats = json.loads(body.decode("utf-8"))
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                ValueError) as exc:
            record["healthy"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
            return
        finally:
            if writer is not None:
                writer.close()
        replica = stats.get("replica") if isinstance(stats, dict) else None
        if isinstance(replica, dict):
            record["generation"] = replica.get("generation")
            record["healthy"] = bool(replica.get("available", True))
            record["error"] = (
                None if record["healthy"] else "replica reports unavailable"
            )
        else:
            # A plain (non-replica) server: reachable means healthy, and
            # there is no generation to lag behind.
            record["generation"] = None
            record["healthy"] = True
            record["error"] = None

    def _eligible(self) -> list[int]:
        """Backend indices currently in rotation.

        With probing off, everything. Otherwise: healthy backends whose
        generation is the newest any healthy backend reports (backends
        with no generation — plain servers — always count as current).
        Fails open to the full list when the prober has marked everything
        out, so a wrong or stalled prober degrades to pre-health routing
        instead of a self-inflicted total outage.
        """
        everyone = list(range(len(self.backends)))
        if self.health_interval <= 0:
            return everyone
        healthy = [i for i in everyone if self.health[i]["healthy"]]
        if not healthy:
            return everyone
        generations = [
            self.health[i]["generation"]
            for i in healthy
            if self.health[i]["generation"] is not None
        ]
        if generations:
            newest = max(generations)
            current = [
                i
                for i in healthy
                if self.health[i]["generation"] in (None, newest)
            ]
            if current:
                healthy = current
        if len(healthy) < len(everyone) and obs.enabled():
            _UNHEALTHY_SKIPS.inc()
        return healthy

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await read_request(reader)
                except BadFrame as exc:
                    writer.write(bad_frame_response(exc))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                writer.write(await self._answer(method, path, headers, body))
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            TimeoutError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancelled this handler mid-close; the transport
                # is already closed, so ending quietly is the right thing
                # (propagating trips asyncio.streams' connection_made
                # callback into logging a spurious error).
                pass

    async def _answer(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> bytes:
        route = path.partition("?")[0]
        if route == "/v1/replicas" and method == "GET":
            return encode_response(200, self._replicas_payload())
        eligible = self._eligible()
        attempts = len(eligible) if _is_read_only(method, path) else 1
        first = self._next
        self._next = (self._next + 1) % len(eligible)
        last_error: Exception | None = None
        for step in range(attempts):
            index = eligible[(first + step) % len(eligible)]
            try:
                response = await self._forward(index, method, path, headers, body)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                self.failures_by_backend[index] += 1
                # The prober is the only path back into rotation; until it
                # clears the backend, dispatch stops offering it traffic.
                if self.health_interval > 0:
                    self.health[index]["healthy"] = False
                    self.health[index]["error"] = (
                        f"forward failed: {type(exc).__name__}"
                    )
                last_error = exc
                if step + 1 < attempts:
                    _FAILOVERS.inc()
                continue
            self.requests_by_backend[index] += 1
            if obs.enabled():
                host, port = self.backends[index]
                _PROXIED.labels(backend=f"{host}:{port}").inc()
            return response
        error = DiscoveryError(
            "unavailable",
            f"no lake backend answered {method} {path} "
            f"({len(self.backends)} configured): {last_error!r}",
        )
        return encode_response(error.status, error_payload(error))

    def _replicas_payload(self) -> dict:
        probing = self.health_interval > 0
        eligible = set(self._eligible())
        backends = []
        for i, (host, port) in enumerate(self.backends):
            entry = {
                "host": host,
                "port": port,
                "requests": self.requests_by_backend[i],
                "failures": self.failures_by_backend[i],
            }
            if probing:
                entry.update(
                    healthy=self.health[i]["healthy"],
                    generation=self.health[i]["generation"],
                    probes=self.health[i]["probes"],
                    error=self.health[i]["error"],
                    in_rotation=i in eligible,
                )
            backends.append(entry)
        return {
            "version": API_VERSION,
            "health_interval": self.health_interval,
            "backends": backends,
        }

    # ------------------------------------------------------------------ #
    async def _acquire(
        self, index: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        pool = self._pools[index]
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing() and not reader.at_eof():
                return reader, writer
            writer.close()
        host, port = self.backends[index]
        return await asyncio.open_connection(host, port)

    def _release(
        self,
        index: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        reusable: bool,
    ) -> None:
        if reusable and not writer.is_closing():
            self._pools[index].append((reader, writer))
        else:
            writer.close()

    async def _forward(
        self, index: int, method: str, path: str, headers: dict, body: bytes
    ) -> bytes:
        """Relay one request to a backend; the response head is re-framed
        but the body bytes pass through untouched."""
        reader, writer = await self._acquire(index)
        reusable = False
        try:
            host, port = self.backends[index]
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {host}:{port}",
                f"Content-Length: {len(body)}",
                "Connection: keep-alive",
            ]
            for name in ("content-type", "x-request-id", "accept"):
                if name in headers:
                    head.append(f"{name}: {headers[name]}")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
            status, resp_headers, resp_body = await self._read_response(reader)
            reusable = resp_headers.get("connection", "").lower() != "close"
            extras = "".join(
                f"{name}: {value}\r\n"
                for name, value in resp_headers.items()
                if name in ("x-request-id",)
            )
            out_head = (
                f"HTTP/1.1 {status} "
                f"{resp_headers.get('__reason', 'OK')}\r\n"
                f"Content-Type: "
                f"{resp_headers.get('content-type', 'application/json')}\r\n"
                f"Content-Length: {len(resp_body)}\r\n"
                "Connection: keep-alive\r\n"
                f"{extras}\r\n"
            )
            return out_head.encode("latin-1") + resp_body
        finally:
            self._release(index, reader, writer, reusable)

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict, bytes]:
        status_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ValueError(f"bad backend status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {"__reason": parts[2] if len(parts) > 2 else "OK"}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, headers, body


# --------------------------------------------------------------------- #
class FrontendThread(LoopThread):
    """A `LakeFrontend` on a daemon thread (the test/benchmark host)."""

    def __init__(
        self,
        backends: "list[tuple[str, int]]",
        host: str = "127.0.0.1",
        port: int = 0,
        health_interval: float = 0.0,
    ):
        self.frontend = LakeFrontend(
            backends, host=host, port=port, health_interval=health_interval
        )
        super().__init__(self.frontend, "lake-frontend")

    def probe(self, timeout: float = 30.0) -> None:
        """Run one probe round synchronously (tests use this instead of
        waiting out the health interval)."""
        assert self._loop is not None, "frontend not started"
        future = asyncio.run_coroutine_threadsafe(
            self.frontend.probe_all(), self._loop
        )
        future.result(timeout=timeout)


def parse_backends(raw: str) -> "list[tuple[str, int]]":
    """``HOST:PORT,HOST:PORT`` -> backend list (the CLI's --backends)."""
    backends = [
        parse_host_port(piece, "backend") for piece in raw.split(",") if piece.strip()
    ]
    if not backends:
        raise ValueError("no backends given")
    return backends


__all__ = ["LakeFrontend", "FrontendThread", "parse_backends"]

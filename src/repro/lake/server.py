"""`repro.lake.server` — the asyncio HTTP/1.1 front-end for a `LakeService`.

The ROADMAP's "async network front-end", stdlib-only: an :class:`asyncio`
listener serves each keep-alive connection through
:func:`repro.lake.wire.serve_connection` (the framing every hop shares)
and dispatches every blocking catalog call into a thread pool, so
concurrent queries overlap each other *and* overlap ingest — exactly the
concurrency the thread-safe :class:`~repro.lake.service.LakeService`
already guarantees correct.

Endpoints (all JSON, all versioned under ``/v1``):

====================== ====================================================
``POST /v1/query``        one :class:`~repro.lake.api.DiscoveryRequest`
                          body -> one :class:`~repro.lake.api.DiscoveryResult`
``POST /v1/query_batch``  ``{"requests": [...]}`` -> ``{"results": [...]}``
                          (uncached externals embed in one batched pass)
``POST /v1/tables``       ``{"tables": [<table payload>...]}`` ingest
``PUT /v1/tables``        ``{"table": <table payload>}`` replace one table
                          (staged, process-kill-safe); answers the new
                          version
``POST /v1/tables/N/rows``  ``{"rows": [[...], ...]}`` append rows; sketches
                          merge in O(delta), embedding marked stale
``POST /v1/refresh``      eagerly re-embed stale tables (optional
                          ``{"tables": [...]}`` restricts the sweep);
                          answers the refreshed names
``DELETE /v1/tables/N``   drop one table (404 when absent)
``GET /v1/stats``         service statistics + schema version
``GET /v1/healthz``       liveness probe
``GET /v1/metrics``       :mod:`repro.obs` registry — JSON by default,
                          Prometheus text exposition with
                          ``?format=prometheus`` or ``Accept: text/plain``
``GET /v1/slow_queries``  the service's top-N slowest requests with their
                          span breakdowns
====================== ====================================================

Every response carries an ``X-Request-Id`` header: the client's, echoed,
when the request stamped one, else a fresh id. The id is bound to the
handling thread's trace context (:func:`repro.obs.bind_request_id`), so it
lands in diagnostics, access-log lines, and slow-query entries.

Failures cross the wire as the typed error envelope
``{"error": {"code", "message"}, "version"}`` with the
:data:`~repro.lake.api.ERROR_STATUS` status mapping (400 bad-request /
404 not-found / 409 fingerprint-mismatch / 500 internal), so a
:class:`~repro.lake.client.LakeClient` re-raises exactly the
:class:`~repro.lake.api.DiscoveryError` an in-process caller would see.

:class:`ServerThread` hosts the event loop on a daemon thread for tests,
benchmarks, and embedding a server into an existing process;
``python -m repro.lake serve`` is the CLI entry point.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qs, unquote

from repro import obs
from repro.lake.api import (
    API_VERSION,
    DiscoveryError,
    DiscoveryRequest,
    answer,
    bad_request,
    table_from_dict,
)
from repro.lake.serialization import FingerprintMismatchError
from repro.lake.service import LakeService
from repro.lake.target import ServiceTarget
from repro.lake.wire import (
    encode_json,
    encode_response,
    error_payload,
    serve_connection,
)

DEFAULT_WORKERS = 4

#: One JSON line per answered request at INFO; the line is built only when
#: the logger would emit it, so raising its level silences access logs.
#: ``python -m repro.lake serve`` attaches a stderr handler; embedded
#: servers inherit whatever logging config the host process set up.
access_log = logging.getLogger("repro.lake.access")

_HTTP_REQUESTS = obs.counter(
    "lake_http_requests_total",
    "HTTP requests answered, by route and status",
    ("route", "status"),
)
_HTTP_MS = obs.histogram(
    "lake_http_request_duration_ms",
    "Server-side HTTP request latency in milliseconds (decode to encode)",
)


class LakeServer:
    """One `LakeService` behind an asyncio HTTP/1.1 JSON listener."""

    def __init__(
        self,
        service: LakeService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = DEFAULT_WORKERS,
    ):
        self.service = service
        #: Mutation routes answer what the target answers — the body shape
        #: is defined there, once, for every transport.
        self._target = ServiceTarget(service)
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port on start
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="lake-http"
        )
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    async def start(self) -> "LakeServer":
        self._server = await asyncio.start_server(
            lambda reader, writer: serve_connection(reader, writer, self._dispatch),
            self.host,
            self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    async def _dispatch(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> bytes:
        """Answer one request off the event loop.

        The *whole* blocking pipeline — JSON decode, routing, the service
        call, and response encoding — runs in the thread pool: a 64 MiB
        ingest payload must never stall the accept loop (or ``/v1/healthz``)
        while it parses.
        """
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, self._respond, method, path, headers, body
        )

    def _respond(self, method: str, path: str, headers: dict, body: bytes) -> bytes:
        """Route one request; every failure becomes the typed envelope."""
        rid = headers.get("x-request-id") or obs.new_request_id()
        route_path, _, query = path.partition("?")
        started = time.perf_counter()
        with obs.bind_request_id(rid):
            try:
                status, payload = self._route(
                    method, route_path, query, body, headers
                )
            except DiscoveryError as exc:
                status, payload = exc.status, error_payload(exc)
            except FingerprintMismatchError as exc:
                wrapped = DiscoveryError("fingerprint-mismatch", str(exc))
                status, payload = wrapped.status, error_payload(wrapped)
            except (KeyError, ValueError) as exc:
                # Catalog-level rejections (duplicate table, bad spec, ...).
                message = exc.args[0] if exc.args else str(exc)
                wrapped = bad_request(str(message))
                status, payload = wrapped.status, error_payload(wrapped)
            except Exception as exc:  # noqa: BLE001 — the wire must answer
                wrapped = DiscoveryError("internal", f"{type(exc).__name__}: {exc}")
                status, payload = wrapped.status, error_payload(wrapped)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        route = self._route_label(method, route_path)
        _HTTP_REQUESTS.labels(route=route, status=str(status)).inc()
        _HTTP_MS.observe(elapsed_ms)
        if access_log.isEnabledFor(logging.INFO):
            access_log.info(
                "%s",
                json.dumps(
                    {
                        "method": method,
                        "path": route_path,
                        "status": status,
                        "duration_ms": round(elapsed_ms, 3),
                        "request_id": rid,
                    },
                    sort_keys=True,
                ),
            )
        echo = {"X-Request-Id": rid}
        if isinstance(payload, str):  # the Prometheus text exposition
            text = payload.encode("utf-8")
            return encode_response(
                status, text, obs.PROMETHEUS_CONTENT_TYPE, extra_headers=echo
            )
        return encode_json(status, payload, extra_headers=echo)

    @staticmethod
    def _route_label(method: str, path: str) -> str:
        """Collapse per-resource paths so label cardinality stays bounded."""
        if path.startswith("/v1/tables/"):
            path = (
                "/v1/tables/{name}/rows"
                if path.endswith("/rows")
                else "/v1/tables/{name}"
            )
        return f"{method} {path}"

    def _decode_body(self, body: bytes) -> dict:
        if not body:
            raise bad_request("request body must be a JSON object")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise bad_request(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise bad_request("request body must be a JSON object")
        return payload

    def _route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        headers: dict | None = None,
    ):
        if path == "/v1/healthz" and method == "GET":
            return 200, {"status": "ok", "version": API_VERSION}
        if path == "/v1/stats" and method == "GET":
            stats = self.service.stats()
            stats["version"] = API_VERSION
            return 200, stats
        if path == "/v1/metrics" and method == "GET":
            return 200, self._metrics_payload(query, (headers or {}).get("accept", ""))
        if path == "/v1/slow_queries" and method == "GET":
            return 200, answer(slow_queries=self._target.slow_queries())
        if path == "/v1/query" and method == "POST":
            request = DiscoveryRequest.from_dict(self._decode_body(body))
            return 200, self.service.discover(request).to_dict()
        if path == "/v1/query_batch" and method == "POST":
            payload = self._decode_body(body)
            raw_requests = payload.get("requests")
            if not isinstance(raw_requests, list):
                raise bad_request("query_batch body needs a 'requests' list")
            requests = [DiscoveryRequest.from_dict(raw) for raw in raw_requests]
            results = self.service.discover_batch(requests)
            return 200, answer(results=[result.to_dict() for result in results])
        if path == "/v1/tables" and method == "POST":
            payload = self._decode_body(body)
            raw_tables = payload.get("tables")
            if not isinstance(raw_tables, list) or not raw_tables:
                raise bad_request("ingest body needs a non-empty 'tables' list")
            tables = [table_from_dict(raw) for raw in raw_tables]
            names = [table.name for table in tables]
            if len(set(names)) != len(names):
                raise bad_request("ingest payload repeats a table name")
            return 200, self._target.add_tables({t.name: t for t in tables})
        if path == "/v1/tables" and method == "PUT":
            payload = self._decode_body(body)
            raw_table = payload.get("table")
            if not isinstance(raw_table, dict):
                raise bad_request("update body needs a 'table' object")
            return 200, self._target.update_table(table_from_dict(raw_table))
        if (
            path.startswith("/v1/tables/")
            and path.endswith("/rows")
            and method == "POST"
        ):
            name = unquote(path[len("/v1/tables/") : -len("/rows")])
            payload = self._decode_body(body)
            raw_rows = payload.get("rows")
            if not isinstance(raw_rows, list) or not raw_rows:
                raise bad_request("append body needs a non-empty 'rows' list")
            for row in raw_rows:
                if not isinstance(row, list) or not all(
                    isinstance(cell, str) for cell in row
                ):
                    raise bad_request(
                        "append rows must be lists of string cells"
                    )
            return 200, self._target.append_rows(name, raw_rows)
        if path == "/v1/refresh" and method == "POST":
            # Body optional: `{}` / absent refreshes everything stale,
            # `{"tables": [...]}` restricts the sweep.
            payload = self._decode_body(body) if body else {}
            names = payload.get("tables")
            if names is not None and (
                not isinstance(names, list)
                or not all(isinstance(name, str) for name in names)
            ):
                raise bad_request(
                    "refresh 'tables' must be a list of table names"
                )
            return 200, self._target.refresh(names)
        if path.startswith("/v1/tables/") and method == "DELETE":
            name = unquote(path[len("/v1/tables/") :])
            if not self.service.remove_table(name):
                raise DiscoveryError(
                    "not-found", f"table {name!r} not in catalog"
                )
            return 200, answer(removed=name, n_tables=len(self.service.catalog))
        raise DiscoveryError("not-found", f"no route for {method} {path}")

    def _metrics_payload(self, query: str, accept: str):
        """``/v1/metrics`` content negotiation: JSON unless the caller asks
        for Prometheus via ``?format=prometheus`` or ``Accept: text/plain``
        (``?format=json`` overrides the Accept header). The Prometheus text
        comes back as a ``str``, JSON as a ``dict``."""
        requested = parse_qs(query).get("format", [""])[0].lower()
        if requested not in ("", "json", "prometheus"):
            raise bad_request(
                f"unknown metrics format {requested!r}; "
                "expected 'json' or 'prometheus'"
            )
        prometheus = requested == "prometheus" or (
            not requested and "text/plain" in accept.lower()
        )
        if prometheus:
            return obs.get_registry().render_prometheus()
        return self._target.metrics()


# --------------------------------------------------------------------- #
class LoopThread:
    """Anything with async ``start()`` / ``close()`` and ``host`` / ``port``
    running on a daemon thread with its own event loop.

    The in-process hosting shape tests, benchmarks, and notebook users
    want: ``start()`` blocks until the socket is bound (so ``.port`` is
    real even for ephemeral ``port=0``), ``stop()`` tears the loop down
    and joins the thread.
    """

    def __init__(self, hosted, thread_name: str):
        self._hosted = hosted
        self._thread_name = thread_name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._hosted.port

    @property
    def host(self) -> str:
        return self._hosted.host

    def start(self):
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._hosted.start())
            except BaseException as exc:  # noqa: BLE001 — surface to starter
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._hosted.close())
                # Open keep-alive connections leave handler tasks parked in
                # readuntil(); cancel and drain them before closing the loop.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if failure:
            raise failure[0]
        return self

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ServerThread(LoopThread):
    """A `LakeServer` running on a daemon thread with its own event loop."""

    def __init__(
        self,
        service: LakeService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = DEFAULT_WORKERS,
    ):
        self.server = LakeServer(
            service, host=host, port=port, max_workers=max_workers
        )
        super().__init__(self.server, "lake-server")

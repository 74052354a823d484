"""The wire layer: HTTP round-trip parity with the in-process service,
typed error-envelope mapping, remote ingest/remove, and concurrent
clients overlapping an ingest.

The load-bearing property is **interchangeability**: for identical
`DiscoveryRequest`s, `LakeService.discover` in-process and `LakeClient`
over HTTP must return identical ranked hits — same tables, same scores,
same evidence — across all three modes, member and external queries."""

from __future__ import annotations

import errno
import http.client
import json
import logging
import threading

import pytest

from repro.lake.api import API_VERSION, DiscoveryError, DiscoveryRequest, table_to_dict
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.frontend import FrontendThread
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import table_from_rows

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

MODES = ("join", "union", "subset")


@pytest.fixture()
def service(lake_embedder, lake_tables) -> LakeService:
    catalog = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        catalog.add_table(table)
    return LakeService(catalog)


@pytest.fixture()
def served(service):
    with ServerThread(service) as server:
        client = LakeClient(port=server.port)
        yield service, client
        client.close()


def _requests(lake_tables) -> list[DiscoveryRequest]:
    member = "g1t1"
    source = lake_tables["g0t2"]
    probe = source.with_columns(source.columns, name="external-probe")
    out = []
    for mode in MODES:
        out.append(DiscoveryRequest(mode=mode, k=5, table=member))
        out.append(DiscoveryRequest(mode=mode, k=5, payload=probe))
    out.append(
        DiscoveryRequest(mode="join", k=5, table=member, column="entity")
    )
    return out


# --------------------------------------------------------------------- #
# Parity
# --------------------------------------------------------------------- #
def test_http_parity_with_in_process(served, lake_tables):
    """The acceptance criterion: identical requests, identical ranked
    ``(table, score)`` hits — and identical evidence — across all modes,
    member + external queries, on both backends."""
    service, client = served
    for request in _requests(lake_tables):
        local = service.discover(request)
        remote = client.query(request)
        assert remote.scored() == local.scored(), request.mode
        # Full hit payloads (evidence included) are byte-identical JSON.
        local_hits = json.dumps([hit.to_dict() for hit in local.hits])
        remote_hits = json.dumps([hit.to_dict() for hit in remote.hits])
        assert remote_hits == local_hits
        assert (remote.version, remote.mode, remote.k, remote.query) == (
            local.version, local.mode, local.k, local.query,
        )


def test_query_batch_parity_over_http(served, lake_tables):
    service, client = served
    requests = _requests(lake_tables)
    local = service.discover_batch(requests)
    remote = client.query_batch(requests)
    assert [r.scored() for r in remote] == [r.scored() for r in local]


# --------------------------------------------------------------------- #
# Error envelopes
# --------------------------------------------------------------------- #
def test_error_envelope_mapping(served):
    service, client = served
    cases = [
        (DiscoveryRequest(mode="union", k=3, table="missing"), "not-found", 404),
        (DiscoveryRequest(mode="union", k=0, table="g0t0"), "bad-request", 400),
        (
            DiscoveryRequest(mode="join", k=3, table="g0t0", column="ghost"),
            "not-found",
            404,
        ),
        (
            DiscoveryRequest(mode="union", k=3, table="g0t0", fingerprint="bogus"),
            "fingerprint-mismatch",
            409,
        ),
    ]
    for request, code, status in cases:
        # In-process raises the same typed error the wire reports.
        with pytest.raises(DiscoveryError) as local_exc:
            service.discover(request)
        assert local_exc.value.code == code
        with pytest.raises(DiscoveryError) as remote_exc:
            client.query(request)
        assert remote_exc.value.code == code
        assert remote_exc.value.status == status
        assert remote_exc.value.message == local_exc.value.message


def test_raw_http_statuses_and_envelopes(served):
    _, client = served
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        cases = [
            ("POST", "/v1/query", b"this is not json", 400, "bad-request"),
            ("POST", "/v1/query", json.dumps({"k": 3}).encode(), 400, "bad-request"),
            (
                "POST",
                "/v1/query",
                json.dumps({"table": "missing", "k": 1}).encode(),
                404,
                "not-found",
            ),
            ("GET", "/v1/no-such-route", None, 404, "not-found"),
            ("PUT", "/v1/query", b"{}", 404, "not-found"),
        ]
        for method, path, body, status, code in cases:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == status, (method, path)
            assert payload["error"]["code"] == code
            assert payload["version"] == API_VERSION
    finally:
        conn.close()


@pytest.fixture(params=["server", "frontend"])
def listener(request, served):
    """A client on the listener under test: the server itself, or a
    frontend proxying to it — both frame requests with the same code and
    must answer an unframeable one the same way."""
    _, client = served
    if request.param == "server":
        yield client
        return
    with FrontendThread([(client.host, client.port)]) as proxy:
        with LakeClient(port=proxy.port) as proxied:
            yield proxied


#: Content-Length values no hop can frame, and what the 400 says about each.
MISFRAMED = [
    (b"999999999999", b"exceeds the"),
    (b"-5", b"negative Content-Length"),
    (b"twelve", b"unparseable Content-Length"),
]


@pytest.mark.parametrize("content_length, reason", MISFRAMED)
def test_unframeable_requests_get_envelopes_and_listener_survives(
    listener, caplog, content_length, reason
):
    import socket

    # A body length that cannot be honoured still gets the typed envelope
    # (then the connection closes — the unread body makes keep-alive
    # impossible).
    with socket.create_connection((listener.host, listener.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/query HTTP/1.1\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n"
        )
        response = raw.recv(65536)
        assert raw.recv(65536) == b"", "the listener closes after answering"
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"bad-request" in response and reason in response
    assert b"Connection: close" in response

    # A client that vanishes mid-body must not poison the listener.
    with socket.create_connection((listener.host, listener.port), timeout=30) as raw:
        raw.sendall(
            b"POST /v1/query HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"
        )
    # The accept loop still serves the next connection, and no handler died
    # with an unhandled exception.
    assert listener.healthz() == {"status": "ok", "version": API_VERSION}
    assert "Unhandled exception" not in caplog.text


@pytest.mark.parametrize(
    "content_length, body",
    [(length, b"") for length, _ in MISFRAMED] + [(b"100", b"short")],
    ids=["oversized", "negative", "unparseable", "truncated"],
)
def test_misframed_backend_answers_fail_over_then_503(
    raw_server, caplog, content_length, body
):
    """The same misframings (and a body cut short) coming back from a
    backend: the frontend drops that connection, fails over to the next
    backend, answers the typed 503 once none is left, and keeps serving."""
    backend = raw_server(
        [b"HTTP/1.1 200 OK\r\nContent-Length: " + content_length + b"\r\n\r\n" + body]
    )
    address = (backend.host, backend.port)
    with FrontendThread([address, address]) as proxy:
        with LakeClient(port=proxy.port) as client:
            with pytest.raises(DiscoveryError) as excinfo:
                client.stats()
            assert (excinfo.value.code, excinfo.value.status) == ("unavailable", 503)
            # Both attempts reached the backend: the first failed over.
            assert backend.requests == ["GET /v1/stats HTTP/1.1"] * 2
            replicas = client._request("GET", "/v1/replicas")
    assert [b["failures"] for b in replicas["backends"]] == [1, 1]
    assert "Unhandled exception" not in caplog.text


def test_pipelined_requests_are_answered_in_order(listener):
    """Two requests in one ``sendall`` come back as two responses, in
    request order, from the server and through the frontend alike."""
    import socket

    from repro.lake.wire import parse_head

    requests = b"".join(
        b"GET " + path + b" HTTP/1.1\r\nX-Request-Id: " + rid + b"\r\n" + extra + b"\r\n"
        for path, rid, extra in [
            (b"/v1/stats", b"first", b""),
            (b"/v1/healthz", b"second", b"Connection: close\r\n"),
        ]
    )
    with socket.create_connection((listener.host, listener.port), timeout=30) as raw:
        raw.sendall(requests)
        data = b""
        while chunk := raw.recv(65536):
            data += chunk
    answers = []
    while data:
        end = data.index(b"\r\n\r\n") + 4
        (_, status, _), headers, length = parse_head(data[:end])
        answers.append((status, headers["x-request-id"], json.loads(data[end : end + length])))
        data = data[end + length :]
    assert [(status, rid) for status, rid, _ in answers] == [("200", "first"), ("200", "second")]
    assert "n_tables" in answers[0][2]
    assert answers[1][2] == {"status": "ok", "version": API_VERSION}


@pytest.mark.parametrize("hop", ["server", "frontend"])
def test_stopping_with_a_live_keep_alive_client_is_quiet(service, caplog, hop):
    """Shutdown cancels the connection task parked on an idle keep-alive
    client; that must end it quietly, not log an asyncio error."""
    with ServerThread(service) as server:
        stopped = server
        if hop == "frontend":
            stopped = FrontendThread([(server.host, server.port)]).start()
        with LakeClient(port=stopped.port) as client:
            assert client.healthz()["status"] == "ok"
            stopped.stop()
    assert not [record for record in caplog.records if record.name == "asyncio"]


def test_remove_missing_table_is_404(served):
    _, client = served
    with pytest.raises(DiscoveryError) as excinfo:
        client.remove_table("never-ingested")
    assert excinfo.value.code == "not-found"


# --------------------------------------------------------------------- #
# Observability over the wire
# --------------------------------------------------------------------- #
def test_request_id_round_trip_matches_in_process(served, lake_tables):
    """One request id correlates the HTTP exchange with the diagnostics an
    in-process caller binding the same id would see."""
    from repro import obs

    service, client = served
    request = DiscoveryRequest(mode="union", k=4, table="g1t1")
    rid = "parity-rid-0001"

    remote = client.query(request, request_id=rid)
    assert client.last_request_id == rid
    assert remote.diagnostics["request_id"] == rid

    with obs.bind_request_id(rid):
        local = service.discover(request)
    assert local.diagnostics["request_id"] == rid
    assert remote.diagnostics["request_id"] == local.diagnostics["request_id"]

    # Without a caller-supplied id the client mints one and the server
    # echoes it back on the response header.
    client.query(request)
    assert client.last_request_id is not None
    assert client.last_request_id != rid


def test_request_id_echo_on_raw_http(served):
    _, client = served
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("GET", "/v1/healthz", headers={"X-Request-Id": "raw-7"})
        response = conn.getresponse()
        response.read()
        assert response.getheader("X-Request-Id") == "raw-7"
        # No stamp -> the server generates one.
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        response.read()
        generated = response.getheader("X-Request-Id")
        assert generated and generated != "raw-7"
    finally:
        conn.close()


def _access_lines(served, caplog, level: int) -> tuple[list, list]:
    """Three raw requests with the ``repro.lake.access`` logger at
    ``level``: what each answered (method, path, status, echoed id) and the
    access-log lines written meanwhile, parsed."""
    _, client = served
    sent = [
        ("GET", "/v1/healthz", {"X-Request-Id": "log-1"}),
        ("GET", "/v1/no-such-route", {"X-Request-Id": "log-2"}),
        ("GET", "/v1/stats", {}),
    ]
    answered = []
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        with caplog.at_level(level, logger="repro.lake.access"):
            for method, path, headers in sent:
                conn.request(method, path, headers=headers)
                response = conn.getresponse()
                response.read()
                rid = response.getheader("X-Request-Id")
                answered.append((method, path, response.status, rid))
    finally:
        conn.close()
    lines = [
        json.loads(record.getMessage())
        for record in caplog.records
        if record.name == "repro.lake.access"
    ]
    return answered, lines


def test_access_log_writes_one_line_per_request_at_info(served, caplog):
    answered, lines = _access_lines(served, caplog, logging.INFO)
    assert [status for _, _, status, _ in answered] == [200, 404, 200]
    assert answered[0][3] == "log-1" and answered[2][3]
    assert [
        (line["method"], line["path"], line["status"], line["request_id"])
        for line in lines
    ] == answered
    assert all(line["duration_ms"] >= 0.0 for line in lines)


def test_access_log_writes_nothing_above_info(served, caplog):
    answered, lines = _access_lines(served, caplog, logging.WARNING)
    assert len(answered) == 3
    assert lines == []


def test_metrics_endpoint_negotiation_and_counters(served, lake_tables):
    from repro import obs

    service, client = served
    registry = obs.get_registry()
    registry.reset()

    request = DiscoveryRequest(mode="union", k=4, table="g1t1")
    client.query(request)
    payload = client.metrics()
    assert payload["version"] == API_VERSION
    counter = payload["metrics"]["lake_queries_total"]
    assert counter["type"] == "counter"
    first = sum(value["value"] for value in counter["values"])
    assert first >= 1

    # A second query moves the counter — across the wire.
    client.query(request)
    counter = client.metrics()["metrics"]["lake_queries_total"]
    assert sum(value["value"] for value in counter["values"]) == first + 1

    # Prometheus negotiation: explicit format param and Accept header.
    text = client.metrics_text()
    assert "# TYPE lake_queries_total counter" in text
    assert "lake_query_duration_ms_bucket" in text
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("GET", "/v1/metrics", headers={"Accept": "text/plain"})
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        assert response.getheader("Content-Type") == obs.PROMETHEUS_CONTENT_TYPE
        assert body == client.metrics_text() or "lake_queries_total" in body
        conn.request("GET", "/v1/metrics?format=bogus")
        response = conn.getresponse()
        assert response.status == 400
        response.read()
    finally:
        conn.close()


def test_metrics_buckets_arrive_in_edge_order(served):
    """JSON bodies keep the registry's key order: a histogram's cumulative
    ``buckets`` reach a scraper by ascending edge, ``+Inf`` last, so it can
    de-accumulate them in document order (sorted as strings they would put
    ``+Inf`` first and ``10`` before ``2.5``)."""
    from repro import obs

    _, client = served
    obs.get_registry().reset()
    client.query(DiscoveryRequest(mode="union", k=4, table="g1t1"))
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("GET", "/v1/metrics")
        response = conn.getresponse()
        assert response.status == 200
        body = json.loads(response.read())
    finally:
        conn.close()
    values = body["metrics"]["lake_query_duration_ms"]["values"]
    assert values
    for value in values:
        edges = list(value["buckets"])
        assert edges[-1] == "+Inf" and "+Inf" not in edges[:-1]
        finite = [float(edge) for edge in edges[:-1]]
        assert finite == sorted(finite) and len(set(finite)) == len(finite) > 1
        assert edges != sorted(edges)
        cumulative = list(value["buckets"].values())
        assert cumulative == sorted(cumulative) and cumulative[-1] == value["count"]


def _prometheus_total(text: str, name: str) -> float:
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith(name) and not line.startswith("#")
    )


def test_engine_counters_move_over_the_wire(served, lake_tables):
    """An external-payload query forces a fresh trunk forward on the server
    thread; the engine's forward and token counters must move in both
    ``GET /v1/metrics`` renderings, and no ``nn_*`` family is exposed."""
    from repro import obs

    _, client = served
    obs.get_registry().reset()
    source = lake_tables["g0t2"]
    probe = source.with_columns(source.columns, name="engine-probe")
    client.query(DiscoveryRequest(mode="union", k=3, payload=probe))

    metrics = client.metrics()["metrics"]
    text = client.metrics_text()
    for name in ("engine_forwards_total", "engine_tokens_total"):
        assert metrics[name]["type"] == "counter"
        total = sum(v["value"] for v in metrics[name]["values"])
        assert total >= 1, name
        assert f"# TYPE {name} counter" in text
        assert _prometheus_total(text, name) == total
    assert not [name for name in metrics if name.startswith("nn_")]
    assert "nn_fus" not in text


def test_slow_queries_endpoint(served):
    service, client = served
    service.slow_log.clear()
    for name in ("g0t0", "g1t0"):
        client.query(DiscoveryRequest(mode="union", k=4, table=name))
    entries = client.slow_queries()
    assert len(entries) == 2
    totals = [entry["total_ms"] for entry in entries]
    assert totals == sorted(totals, reverse=True)
    for entry in entries:
        assert entry["spans"]["name"] == "lake.discover"
        assert entry["request_id"]  # the wire always binds one


# --------------------------------------------------------------------- #
# Remote ingest / stats
# --------------------------------------------------------------------- #
def test_remote_ingest_remove_and_stats(served, lake_tables):
    service, client = served
    base = len(service.catalog)
    source = lake_tables["g2t1"]
    fresh = [
        source.with_columns(source.columns, name=f"wire{i}") for i in range(3)
    ]
    response = client.add_tables(fresh)
    assert response["added"] == 3
    assert response["n_tables"] == base + 3

    # The ingested tables are immediately discoverable, identically to an
    # in-process query of the same member.
    request = DiscoveryRequest(mode="union", k=4, table="wire0")
    assert client.query(request).scored() == service.discover(request).scored()

    # Duplicate ingest rejects as bad-request without partial effects.
    with pytest.raises(DiscoveryError) as excinfo:
        client.add_tables([fresh[0]])
    assert excinfo.value.code == "bad-request"
    assert len(service.catalog) == base + 3

    stats = client.stats()
    assert stats["version"] == API_VERSION
    assert stats["api_version"] == API_VERSION
    assert stats["n_tables"] == base + 3
    assert stats["index_backend"] == "exact"
    assert sum(stats["shard_tables"]) == base + 3
    assert len(stats["shard_tables"]) == stats["n_shards"]

    for table in fresh:
        assert client.remove_table(table.name)["removed"] == table.name
    assert client.stats()["n_tables"] == base
    assert client.healthz() == {"status": "ok", "version": API_VERSION}


# --------------------------------------------------------------------- #
# Client deadlines
# --------------------------------------------------------------------- #
def test_client_read_timeout_raises_typed_discovery_error():
    """A server that accepts but never answers must surface as the typed
    ``timeout`` error (HTTP-status analogue 504) within the read deadline —
    not as a raw socket error escaping the SDK, and never a hang."""
    import socket
    import time

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)  # backlog absorbs the dial + the one re-dial
    client = LakeClient(
        port=listener.getsockname()[1], connect_timeout=10, read_timeout=0.2
    )
    try:
        started = time.monotonic()
        with pytest.raises(DiscoveryError) as excinfo:
            client.healthz()
        elapsed = time.monotonic() - started
        assert excinfo.value.code == "timeout"
        assert excinfo.value.status == 504
        assert "timed out" in excinfo.value.message
        assert "read 0.2s" in excinfo.value.message
        # Two attempts (GET is retried once), each bounded by the deadline.
        assert elapsed < 5.0
        # The taxonomy keeps is_alive() a clean False, not an exception.
        assert client.is_alive() is False
    finally:
        client.close()
        listener.close()


def test_client_refused_connection_stays_oserror():
    """Connection refused is "server absent", not "server slow" — it must
    stay an OSError so callers (and the CLI) keep distinguishing the two."""
    sacrificial = LakeClient(port=1, connect_timeout=2, read_timeout=2)
    with pytest.raises(OSError):
        sacrificial.healthz()
    assert sacrificial.is_alive() is False


def test_client_timeouts_default_to_single_timeout():
    client = LakeClient(port=1234, timeout=7.5)
    assert client.connect_timeout == 7.5
    assert client.read_timeout == 7.5
    split = LakeClient(port=1234, timeout=9.0, connect_timeout=1.0, read_timeout=3.0)
    assert (split.connect_timeout, split.read_timeout) == (1.0, 3.0)


# --------------------------------------------------------------------- #
# Concurrency: queries overlap ingest through the wire
# --------------------------------------------------------------------- #
N_CLIENTS = 4
QUERIES_PER_CLIENT = 8


def test_concurrent_clients_overlap_ingest(lake_embedder, lake_tables):
    """N client threads hammer queries while another ingests over HTTP;
    nothing errors, every response is well-formed, and the final state
    equals the ledger of applied operations (then re-checked in-process)."""
    catalog = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        catalog.add_table(table)
    service = LakeService(catalog)
    base_names = set(lake_tables)
    source = lake_tables["g0t0"]
    ingest_names = [f"stress{i}" for i in range(6)]

    with ServerThread(service, max_workers=N_CLIENTS + 1) as server:
        errors: list[BaseException] = []
        barrier = threading.Barrier(N_CLIENTS + 1)

        def querier(seed: int) -> None:
            client = LakeClient(port=server.port)
            try:
                barrier.wait()
                members = sorted(base_names)
                for i in range(QUERIES_PER_CLIENT):
                    name = members[(seed + i) % len(members)]
                    mode = MODES[i % len(MODES)]
                    result = client.query(
                        DiscoveryRequest(mode=mode, k=5, table=name)
                    )
                    assert result.version == API_VERSION
                    assert name not in result.tables(), "leave-one-out"
                    scores = [hit.score for hit in result.hits]
                    assert scores == sorted(scores, reverse=True)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
            finally:
                client.close()

        def ingester() -> None:
            client = LakeClient(port=server.port)
            try:
                barrier.wait()
                for name in ingest_names:
                    table = source.with_columns(source.columns, name=name)
                    client.add_tables([table])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                client.close()

        threads = [
            threading.Thread(target=querier, args=(i,)) for i in range(N_CLIENTS)
        ]
        threads.append(threading.Thread(target=ingester))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"workers raised: {errors!r}"

        # Ledger: every ingested table landed exactly once.
        with LakeClient(port=server.port) as client:
            stats = client.stats()
        assert stats["n_tables"] == len(base_names) + len(ingest_names)

    assert set(service.catalog.table_names()) == base_names | set(ingest_names)
    # The server thread is gone; the in-process view still answers and
    # matches what a final wire query would have said.
    request = DiscoveryRequest(mode="union", k=5, table=ingest_names[0])
    assert service.discover(request).tables()


# --------------------------------------------------------------------- #
# A write the disk refuses
# --------------------------------------------------------------------- #
def _write_routes(tables) -> dict:
    """Each HTTP write route: the store method it commits through, its
    raw request and the same call through :class:`LakeClient`."""
    donor = tables["g1t0"]
    update = table_from_rows("g0t0", donor.header, list(donor.rows(12)))
    rows = [tables["g0t1"].row(1)]
    return {
        "POST /v1/tables": (
            "save_tables",
            ("POST", "/v1/tables", {"tables": [table_to_dict(tables["g2t2"])]}),
            lambda client: client.add_tables([tables["g2t2"]]),
        ),
        "PUT /v1/tables": (
            "save_table",
            ("PUT", "/v1/tables", {"table": table_to_dict(update)}),
            lambda client: client.update_table(update),
        ),
        "POST /v1/tables/{name}/rows": (
            "save_table",
            ("POST", "/v1/tables/g0t1/rows", {"rows": rows}),
            lambda client: client.append_rows("g0t1", rows),
        ),
        "DELETE /v1/tables/{name}": (
            "remove_table",
            ("DELETE", "/v1/tables/g1t1", None),
            lambda client: client.remove_table("g1t1"),
        ),
    }


def _answers(target, names) -> list:
    """Every member's hits in every mode as JSON, stale vectors allowed (a
    strict query would refresh, which is a write)."""
    answer = target.query if isinstance(target, LakeClient) else target.discover
    return [
        json.dumps([
            hit.to_dict()
            for hit in answer(
                DiscoveryRequest(mode=mode, k=4, table=name, allow_stale=True)
            ).hits
        ])
        for name in names
        for mode in MODES
    ]


@pytest.mark.parametrize(
    "route",
    ["POST /v1/tables", "PUT /v1/tables", "POST /v1/tables/{name}/rows",
     "DELETE /v1/tables/{name}"],
)
def test_a_write_the_disk_refuses_answers_internal_and_leaves_the_lake(
    tmp_path, lake_embedder, lake_tables, monkeypatch, route
):
    """The store's write raising ``ENOSPC``: the route answers the typed
    ``internal`` 500 envelope, ``LakeClient`` raises
    ``DiscoveryError("internal")``, and the served lake stays what the disk
    holds. Once the fault is lifted the same call succeeds, and the lake
    answers as a fresh reopen of its store does."""
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path, "fp"))
    catalog.add_tables({n: t for n, t in lake_tables.items() if n != "g2t2"})
    service = LakeService(catalog, cache_size=0)
    method, (verb, path, body), call = _write_routes(lake_tables)[route]

    def reopened() -> LakeService:
        store = LakeStore.open(tmp_path)
        return LakeService(LakeCatalog.from_store(lake_embedder, store), cache_size=0)

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    with ServerThread(service) as server, LakeClient(port=server.port) as client:
        with monkeypatch.context() as patch:
            patch.setattr(catalog.store, method, no_space)
            conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
            try:
                conn.request(
                    verb, path, body=None if body is None else json.dumps(body)
                )
                response = conn.getresponse()
                envelope = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 500
            assert envelope["error"]["code"] == "internal"
            assert "No space left on device" in envelope["error"]["message"]
            with pytest.raises(DiscoveryError) as excinfo:
                call(client)
            assert excinfo.value.code == "internal"
        names = catalog.table_names()
        assert names == reopened().catalog.table_names()
        assert _answers(client, names) == _answers(reopened(), names)

        call(client)
        names = catalog.table_names()
        assert names == reopened().catalog.table_names()
        assert _answers(client, names) == _answers(reopened(), names)

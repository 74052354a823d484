"""The wire layer: HTTP round-trip parity with the in-process service,
typed error-envelope mapping, remote ingest/remove, and concurrent
clients overlapping an ingest.

The load-bearing property is **interchangeability**: for identical
`DiscoveryRequest`s, `LakeService.discover` in-process and `LakeClient`
over HTTP must return identical ranked hits — same tables, same scores,
same evidence — across all three modes, member and external queries."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.lake.api import API_VERSION, DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.frontend import FrontendThread
from repro.lake.server import ServerThread
from repro.lake.service import LakeService

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


@pytest.mark.parametrize(
    "content_length, reason",
    [
        (b"999999999999", b"exceeds the"),
        (b"-5", b"negative Content-Length"),
        (b"twelve", b"unparseable Content-Length"),
    ],
)
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
        stats = LakeClient(port=server.port).stats()
        assert stats["n_tables"] == len(base_names) + len(ingest_names)

    assert set(service.catalog.table_names()) == base_names | set(ingest_names)
    # The server thread is gone; the in-process view still answers and
    # matches what a final wire query would have said.
    request = DiscoveryRequest(mode="union", k=5, table=ingest_names[0])
    assert service.discover(request).tables()

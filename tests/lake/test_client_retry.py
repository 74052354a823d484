"""`LakeClient`'s retry rule, pinned against servers that drop a
keep-alive connection after answering one request on it: a request is
re-dialled only when it never went out or its route is read-only (GETs,
``/v1/query``, ``/v1/query_batch``). A mutation that may already have run
surfaces as an ``OSError`` instead of running twice."""

from __future__ import annotations

import pytest

from repro.lake.client import LakeClient

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

_OK = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
)
#: The server's replies per connection: drop it as soon as it is idle, or
#: read the next request and drop it unanswered.
DROPS = {"idle": [_OK], "after-reading": [_OK, None]}

READS = [("GET", "/v1/stats"), ("POST", "/v1/query"), ("POST", "/v1/query_batch")]
WRITES = [
    ("POST", "/v1/tables"),
    ("POST", "/v1/tables/t/rows"),
    ("POST", "/v1/refresh"),
    ("PUT", "/v1/tables"),
    ("DELETE", "/v1/tables/t"),
]
HEALTHZ = "GET /v1/healthz HTTP/1.1"


def _payload(method: str):
    return {} if method in ("POST", "PUT") else None


def _dropped(raw_server, drop: str):
    """A server, and a client whose keep-alive connection to it the server
    has answered once and is dropping."""
    server = raw_server(DROPS[drop])
    client = LakeClient(host=server.host, port=server.port, timeout=10)
    assert client._request("GET", "/v1/healthz") == {}
    return server, client


@pytest.mark.parametrize("drop", sorted(DROPS))
@pytest.mark.parametrize("method, path", READS)
def test_read_only_route_is_redialled_and_answered(raw_server, drop, method, path):
    server, client = _dropped(raw_server, drop)
    with client:
        assert client._request(method, path, _payload(method)) == {}
    line = f"{method} {path} HTTP/1.1"
    assert server.requests[0] == HEALTHZ and server.requests[-1] == line


@pytest.mark.parametrize("method, path", WRITES)
def test_mutation_dropped_after_delivery_raises_and_is_not_resent(
    raw_server, method, path
):
    server, client = _dropped(raw_server, "after-reading")
    with client:
        with pytest.raises(OSError):
            client._request(method, path, _payload(method))
        assert server.requests == [HEALTHZ, f"{method} {path} HTTP/1.1"]
        # The next call dials afresh.
        assert client._request("GET", "/v1/healthz") == {}
    assert server.requests[-1] == HEALTHZ


@pytest.mark.parametrize("method, path", WRITES)
def test_mutation_on_an_idle_dropped_connection_reaches_the_server_at_most_once(
    raw_server, method, path
):
    """Whether the drop shows at send time (never sent: re-dialled) or
    after (raised) depends on how the request is written to the socket;
    either way the mutation runs at most once."""
    server, client = _dropped(raw_server, "idle")
    with client:
        try:
            client._request(method, path, _payload(method))
        except OSError:
            pass
    assert server.requests.count(f"{method} {path} HTTP/1.1") <= 1

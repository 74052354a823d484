"""The one HTTP/1.1 framing (`repro.lake.wire`): the head parser frames any
bytes or refuses them as `BadFrame`, both encoders round-trip through it,
and one rule says which requests may be sent twice."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake.wire import (
    MAX_BODY_BYTES,
    BadFrame,
    encode_request,
    encode_response,
    is_read_only,
    parse_head,
)

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

#: The lake conftest's autouse shard-count fixture is function-scoped; it
#: does nothing here, so Hypothesis may reuse it across examples.
_PROPERTY = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

#: Heads shaped like HTTP, with a Content-Length drawn from every kind of
#: value a peer could send: in range, negative, huge, not a number.
_LENGTHS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.just(str(MAX_BODY_BYTES)),
    st.just(str(MAX_BODY_BYTES + 1)),
    st.text(max_size=12),
)
_HEADS = st.builds(
    lambda start, length, extra: (
        start + "\r\nContent-Length: " + length + "\r\n" + extra + "\r\n\r\n"
    ).encode("utf-8"),
    st.sampled_from(["GET /v1/stats HTTP/1.1", "HTTP/1.1 200 OK", "GET /", ""]),
    _LENGTHS,
    st.text(max_size=40),
)


@_PROPERTY
@given(st.one_of(st.binary(max_size=512), _HEADS))
def test_parse_head_frames_or_refuses_any_bytes(head):
    try:
        parts, headers, length = parse_head(head)
    except BadFrame:
        return
    assert 0 <= length <= MAX_BODY_BYTES
    assert len(parts) == 3
    assert all(name == name.lower() for name in headers)


@_PROPERTY
@given(
    st.sampled_from(["GET", "POST", "PUT", "DELETE"]),
    st.binary(max_size=256),
    st.text(alphabet="abcdefghij-0123456789", min_size=1, max_size=20),
)
def test_encoded_request_parses_back(method, body, rid):
    message = encode_request(method, "/v1/query", {"X-Request-Id": rid}, body)
    head, _, rest = message.partition(b"\r\n\r\n")
    (got_method, target, version), headers, length = parse_head(head)
    assert (got_method, target, version) == (method, "/v1/query", "HTTP/1.1")
    assert headers["x-request-id"] == rid
    assert rest == body and length == len(body)


@pytest.mark.parametrize("keep_alive", [True, False])
def test_encoded_response_keeps_the_body_bytes(keep_alive):
    body = b'{"score": 0.1000000000000000055511151231257827}'
    message = encode_response(
        503, body, "text/plain", keep_alive=keep_alive, extra_headers={"X-Request-Id": "r"}
    )
    head, _, rest = message.partition(b"\r\n\r\n")
    (_, status, reason), headers, length = parse_head(head)
    assert (status, reason, rest, length) == ("503", "Service Unavailable", body, len(body))
    assert headers["content-type"] == "text/plain"
    assert headers["connection"] == ("keep-alive" if keep_alive else "close")
    assert headers["x-request-id"] == "r"


@pytest.mark.parametrize(
    "method, path, read_only",
    [
        ("GET", "/v1/stats", True),
        ("GET", "/v1/metrics?format=prometheus", True),
        ("POST", "/v1/query", True),
        ("POST", "/v1/query_batch", True),
        ("POST", "/v1/tables", False),
        ("POST", "/v1/tables/t/rows", False),
        ("POST", "/v1/refresh", False),
        ("PUT", "/v1/tables", False),
        ("DELETE", "/v1/tables/t", False),
    ],
)
def test_only_gets_and_query_posts_are_read_only(method, path, read_only):
    assert is_read_only(method, path) is read_only

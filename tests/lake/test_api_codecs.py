"""The strict JSON codecs of the Discovery API, as properties.

Whatever JSON a peer sends, ``DiscoveryRequest.from_dict``,
``DiscoveryResult.from_dict`` and ``table_from_dict`` either decode it to a
valid object or raise ``DiscoveryError("bad-request")`` — never another
exception, which would surface as a 500 instead of a typed 400. Decoded
objects re-encode to a dict view that one more decode/encode cycle leaves
unchanged, and valid objects survive ``from_dict(to_dict(x)) == x``.

Besides arbitrary JSON, the decoders are fed *mutants*: the wire form of a
valid object with one entry anywhere in it replaced by arbitrary JSON,
dropped, or joined by a stray field — inputs that get past the outer
checks and exercise each field's type rule.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake.api import (
    API_VERSION,
    QUERY_MODES,
    ColumnMatch,
    DiscoveryError,
    DiscoveryRequest,
    DiscoveryResult,
    Hit,
    Timings,
    table_from_dict,
    table_to_dict,
)
from repro.table.schema import Column, Table

#: The lake conftest's autouse shard-count fixture is function-scoped; it
#: does nothing here, so Hypothesis may reuse it across examples.
_PROPERTY = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

_NAMES = st.text(max_size=6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | _FLOATS
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _wire(obj) -> dict:
    return json.loads(json.dumps(obj))


# --------------------------------------------------------------------- #
# Valid objects
# --------------------------------------------------------------------- #
@st.composite
def _tables(draw) -> Table:
    n_rows = draw(st.integers(min_value=0, max_value=3))
    column = st.builds(
        Column, _NAMES, st.lists(_NAMES, min_size=n_rows, max_size=n_rows)
    )
    return Table(
        name=draw(_NAMES),
        columns=draw(st.lists(column, min_size=1, max_size=3)),
        description=draw(_NAMES),
    )


@st.composite
def _requests(draw) -> DiscoveryRequest:
    mode = draw(st.sampled_from(QUERY_MODES))
    member = draw(st.booleans())
    return DiscoveryRequest(
        mode=mode,
        k=draw(st.integers(min_value=1, max_value=2**40)),
        table=draw(_NAMES) if member else None,
        payload=None if member else draw(_tables()),
        column=draw(st.none() | _NAMES) if mode == "join" else None,
        min_score=draw(st.none() | _FLOATS),
        shards=draw(
            st.none()
            | st.lists(st.integers(0, 64), min_size=1, max_size=4).map(tuple)
        ),
        fingerprint=draw(st.none() | _NAMES),
        allow_stale=draw(st.booleans()),
        pin_version=draw(st.none() | st.integers(1, 2**40)) if member else None,
    )


_MATCHES = st.builds(ColumnMatch, _NAMES, _NAMES, _FLOATS)
_HITS = st.builds(
    Hit,
    table=_NAMES,
    score=_FLOATS,
    n_matched_columns=st.integers(0, 64),
    distance_sum=_FLOATS,
    matches=st.lists(_MATCHES, max_size=3).map(tuple),
    version=st.none() | st.integers(1, 2**40),
    stale=st.none() | st.booleans(),
)
_RESULTS = st.builds(
    DiscoveryResult,
    version=st.just(API_VERSION),
    mode=st.sampled_from(QUERY_MODES),
    k=st.integers(1, 2**40),
    query=_NAMES,
    hits=st.lists(_HITS, max_size=3).map(tuple),
    timings=st.builds(Timings, _FLOATS, _FLOATS, _FLOATS, _FLOATS),
    diagnostics=st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
)


@_PROPERTY
@given(_tables())
def test_valid_table_round_trips(table):
    assert table_from_dict(_wire(table_to_dict(table))) == table


@_PROPERTY
@given(_requests())
def test_valid_request_round_trips(request):
    assert DiscoveryRequest.from_dict(_wire(request.to_dict())) == request


@_PROPERTY
@given(_RESULTS)
def test_valid_result_round_trips(result):
    assert DiscoveryResult.from_dict(_wire(result.to_dict())) == result


# --------------------------------------------------------------------- #
# Any JSON
# --------------------------------------------------------------------- #
def _slots(node):
    """``(container, key)`` for every entry of every object and array."""
    if isinstance(node, dict):
        entries = list(node.items())
    elif isinstance(node, list):
        entries = list(enumerate(node))
    else:
        return
    for key, child in entries:
        yield node, key
        yield from _slots(child)


@st.composite
def _mutants(draw, wire_forms) -> dict:
    """A valid wire form with one entry anywhere in it replaced by any
    JSON, dropped, or joined by a stray field."""
    raw = _wire(draw(wire_forms))
    slots = list(_slots(raw))
    if slots:
        container, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("replace", "drop", "stray")))
        if action == "replace":
            container[key] = draw(_JSON)
        elif action == "drop":
            del container[key]
        elif isinstance(container, dict):
            container["stray"] = draw(_JSON)
    return raw


def _decode(codec, raw):
    """``codec(raw)``, or ``None`` where it refused ``raw`` as a bad request."""
    try:
        return codec(raw)
    except DiscoveryError as error:
        assert error.code == "bad-request", error.code
        return None


@_PROPERTY
@given(_JSON | _mutants(_tables().map(table_to_dict)))
def test_table_payload_decodes_or_refuses_any_json(raw):
    table = _decode(table_from_dict, raw)
    if table is not None:
        assert table_from_dict(_wire(table_to_dict(table))) == table


@_PROPERTY
@given(_JSON | _mutants(_requests().map(DiscoveryRequest.to_dict)))
def test_request_decodes_or_refuses_any_json(raw):
    request = _decode(DiscoveryRequest.from_dict, raw)
    if request is not None:
        assert request.validated() is request
        encoded = request.to_dict()
        assert DiscoveryRequest.from_dict(_wire(encoded)).to_dict() == encoded


@_PROPERTY
@given(_JSON | _mutants(_RESULTS.map(DiscoveryResult.to_dict)))
def test_result_decodes_or_refuses_any_json(raw):
    result = _decode(DiscoveryResult.from_dict, raw)
    if result is not None:
        encoded = result.to_dict()
        assert DiscoveryResult.from_dict(_wire(encoded)).to_dict() == encoded

"""The versioned Discovery API — one typed request/response schema for
every way of asking the lake a question.

The paper frames data discovery as three *ranked-retrieval* workloads
(join/union/subset, §IV-C); this module is the typed surface those rankings
travel through, whether the caller is in-process (:class:`LakeService`),
the CLI, or a remote :class:`~repro.lake.client.LakeClient` talking to the
asyncio HTTP front-end (:mod:`repro.lake.server`):

- :class:`DiscoveryRequest` — mode, ``k``, the query table (a catalog
  member *name* or an inline external *payload*), the join column, and
  optional score / shard filters plus a fingerprint pin;
- :class:`DiscoveryResult` — ranked :class:`Hit` s carrying the table name
  **and** its score (plus per-column match evidence), a
  sketch/embed/index :class:`Timings` breakdown, and cache/shard
  diagnostics;
- :class:`DiscoveryError` — the typed error taxonomy (``bad-request`` /
  ``not-found`` / ``fingerprint-mismatch``), with a stable JSON envelope
  and an HTTP status mapping shared by server and client.

Every type has strict ``to_dict`` / ``from_dict`` codecs: unknown fields,
wrong types, and unsupported schema versions are rejected with a
``bad-request`` :class:`DiscoveryError` instead of half-parsing. Floats
ride JSON via ``repr`` (Python's ``json``), so scores round-trip *exactly*
— the wire is provably the same ranking the in-process call returned.

Scores are **monotone with the ranking** (higher is better); each mode's
is stated once, on its score function:

- join mode:   :func:`join_score`, the containment of the query column in
  the hit's best column;
- subset mode: :func:`subset_score`, the mean containment of the hit's
  columns in the query table;
- union mode:  :func:`table_score`, the paper's two-stage RANK1/RANK2
  order as one number.

Join and subset scores come from the columns' MinHash signatures and
distinct-value counts, and a table sharing no value is not a hit, so both
may return fewer than ``k`` hits.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.table.schema import Column, Table

#: Version tag of this request/response schema. Bump only on a breaking
#: change of the wire shape; additive fields ride the same version.
API_VERSION = "v1"

#: The paper's three ranked-retrieval workloads (§IV-C).
QUERY_MODES = ("join", "union", "subset")

#: error code -> HTTP status, shared by the server (encoding) and the
#: client (decoding); ``internal`` is the catch-all for unexpected faults.
#: ``unavailable`` is the replica/frontend "nothing can serve this yet"
#: answer (a replica before its first adopted snapshot generation, a
#: frontend with every backend down); ``timeout`` is raised client-side
#: when a socket deadline expires (it never crosses the wire, but shares
#: the taxonomy so callers catch one exception type).
ERROR_STATUS = {
    "bad-request": 400,
    "not-found": 404,
    "fingerprint-mismatch": 409,
    "version-conflict": 409,
    "internal": 500,
    "unavailable": 503,
    "timeout": 504,
}


class DiscoveryError(RuntimeError):
    """A typed, wire-serializable discovery failure.

    ``code`` is one of :data:`ERROR_STATUS`'s keys; ``message`` is the
    human-readable detail. The same object shape crosses the HTTP
    boundary: the server encodes :meth:`to_dict` under an ``"error"``
    envelope with :attr:`status`, and the client re-raises the decoded
    error — remote and in-process callers see identical failures.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_STATUS:
            raise ValueError(
                f"unknown DiscoveryError code {code!r}; "
                f"want one of {sorted(ERROR_STATUS)}"
            )
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "DiscoveryError":
        code = raw.get("code", "internal")
        if code not in ERROR_STATUS:
            code = "internal"
        return cls(code, str(raw.get("message", "")))


def bad_request(message: str) -> DiscoveryError:
    return DiscoveryError("bad-request", message)


def answer(**fields) -> dict:
    """A non-query response body: the schema version, then ``fields``."""
    return {"version": API_VERSION, **fields}


# --------------------------------------------------------------------- #
# Scores
# --------------------------------------------------------------------- #
def join_score(containment: float) -> float:
    """Join-mode score: the estimated containment ``|Q ∩ C| / |Q|`` of the
    query column in the hit's best column, in ``(0, 1]``; the match's
    distance is ``1 - containment``."""
    return float(containment)


def subset_score(containment: float) -> float:
    """Subset-mode score, in ``(0, 1]``: the mean over the hit's columns,
    in column order, of each column's estimated containment ``|C ∩ Q| /
    |C|`` in its best query column ``Q`` — the candidate contained in the
    query, Table VIII's direction. Each column with containment above 0 is
    a match, with distance ``1 - containment``; a column sharing no value
    with the query counts 0 toward the mean. Within v1 this replaced a
    union-style score (above 1 for any hit), so a ``min_score`` picked on
    that scale needs a new threshold."""
    return float(containment)


def table_score(n_matched: int, distance_sum: float) -> float:
    """Union-mode score, monotone with the Fig. 6 two-stage ranking.

    The integer part is RANK1 (matched-column count); the fractional part
    ``1/(1+distance_sum)`` lies in ``(0, 1]`` and decreases with RANK2's
    summed distance, so sorting by descending score reproduces the
    lexicographic ``(-n_matched, distance_sum)`` order exactly.
    """
    return float(n_matched) + 1.0 / (1.0 + float(distance_sum))


# --------------------------------------------------------------------- #
# Codec plumbing
# --------------------------------------------------------------------- #
def _require_mapping(raw, what: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise bad_request(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: Mapping, allowed: tuple, what: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise bad_request(f"{what} has unknown field(s) {unknown}")


def _typed(raw: Mapping, name: str, types, what: str, default=None, required=False):
    if name not in raw or raw[name] is None:
        if required:
            raise bad_request(f"{what} is missing required field {name!r}")
        return default
    value = raw[name]
    if not isinstance(value, types) or (
        # bool is an int subclass; never accept it where a number is typed.
        isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,))
    ):
        wanted = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise bad_request(f"{what} field {name!r} must be {wanted}")
    return value


# --------------------------------------------------------------------- #
# Table payload codec
# --------------------------------------------------------------------- #
def table_to_dict(table: Table) -> dict:
    """JSON shape of an inline query-table payload."""
    return {
        "name": table.name,
        "description": table.description,
        "columns": [
            {"name": column.name, "values": list(column.values)}
            for column in table.columns
        ],
    }


def table_from_dict(raw) -> Table:
    """Strictly decode an inline table payload (``bad-request`` on junk)."""
    raw = _require_mapping(raw, "table payload")
    _reject_unknown(raw, ("name", "description", "columns"), "table payload")
    name = _typed(raw, "name", str, "table payload", required=True)
    description = _typed(raw, "description", str, "table payload", default="")
    columns_raw = _typed(raw, "columns", list, "table payload", required=True)
    columns = []
    for i, column_raw in enumerate(columns_raw):
        column_raw = _require_mapping(column_raw, f"column[{i}]")
        _reject_unknown(column_raw, ("name", "values"), f"column[{i}]")
        column_name = _typed(column_raw, "name", str, f"column[{i}]", required=True)
        values = _typed(column_raw, "values", list, f"column[{i}]", required=True)
        if not all(isinstance(v, str) for v in values):
            raise bad_request(f"column[{i}] values must all be strings")
        columns.append(Column(column_name, list(values)))
    try:
        return Table(name=name, columns=columns, description=description)
    except ValueError as exc:  # ragged columns
        raise bad_request(str(exc)) from None


# --------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DiscoveryRequest:
    """One discovery question, identical in-process and over the wire.

    Exactly one of ``table`` (a catalog member queried leave-one-out from
    its stored vectors) or ``payload`` (an inline external table, sketched
    and embedded on arrival for union, only signed for join and subset)
    names the query. ``column`` restricts join
    mode to a single query column; ``min_score`` drops hits scoring below
    the bar; ``shards`` keeps only hits whose table routes to one of the
    named store shards; ``fingerprint``, when set, pins the request to a
    lake built under that exact configuration (``fingerprint-mismatch``
    otherwise — the remote analogue of the store's open-time guard).

    Live-table controls: ``allow_stale=True`` skips the lazy re-embed of
    stale tables — answers may rank appended tables by pre-append vectors,
    and hits carry their ``stale`` flag so the caller can tell. Only a
    union query reads vectors: join and subset rank by the signatures an
    append merged, so a strict one re-embeds nothing and serves stale
    tables as they are, stamped ``stale`` all the same; the next strict
    union query (or pinned one) pays the re-embed.
    ``pin_version`` (member queries only) demands the named query table be
    at exactly that data version *and* freshly embedded, in every mode (a
    strict pinned query re-embeds first); any drift raises a typed
    ``version-conflict`` instead of silently answering from other data
    than the caller pinned.
    """

    mode: str = "union"
    k: int = 10
    table: str | None = None
    payload: Table | None = None
    column: str | None = None
    min_score: float | None = None
    shards: tuple[int, ...] | None = None
    fingerprint: str | None = None
    allow_stale: bool = False
    pin_version: int | None = None
    version: str = API_VERSION

    def validated(self) -> "DiscoveryRequest":
        """Structural validation — every boundary calls this first."""
        if self.version != API_VERSION:
            raise bad_request(
                f"unsupported schema version {self.version!r}; "
                f"this service speaks {API_VERSION!r}"
            )
        if self.mode not in QUERY_MODES:
            raise bad_request(
                f"unknown query mode {self.mode!r}; want one of {QUERY_MODES}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k <= 0:
            raise bad_request(f"k must be a positive integer, got {self.k!r}")
        if (self.table is None) == (self.payload is None):
            raise bad_request(
                "exactly one of 'table' (member name) or 'payload' "
                "(inline table) must be set"
            )
        if self.payload is not None and self.payload.n_cols == 0:
            raise bad_request(
                f"query table {self.payload.name!r} has no columns"
            )
        if self.column is not None and self.mode != "join":
            raise bad_request(
                f"'column' only applies to join mode, not {self.mode!r}"
            )
        if self.shards is not None:
            if not all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in self.shards
            ):
                raise bad_request(f"shards must be non-negative ints, got {self.shards!r}")
            if not self.shards:
                raise bad_request("shards filter must name at least one shard")
        if not isinstance(self.allow_stale, bool):
            raise bad_request(
                f"allow_stale must be a boolean, got {self.allow_stale!r}"
            )
        if self.pin_version is not None:
            if (
                not isinstance(self.pin_version, int)
                or isinstance(self.pin_version, bool)
                or self.pin_version < 1
            ):
                raise bad_request(
                    f"pin_version must be a positive integer, got "
                    f"{self.pin_version!r}"
                )
            if self.table is None:
                raise bad_request(
                    "pin_version only applies to catalog-member queries "
                    "('table'); inline payloads have no stored version"
                )
        return self

    @property
    def query_name(self) -> str:
        return self.table if self.table is not None else self.payload.name

    def to_dict(self) -> dict:
        """JSON-stable form; unset optionals are omitted, not nulled."""
        out: dict = {"version": self.version, "mode": self.mode, "k": self.k}
        if self.table is not None:
            out["table"] = self.table
        if self.payload is not None:
            out["payload"] = table_to_dict(self.payload)
        if self.column is not None:
            out["column"] = self.column
        if self.min_score is not None:
            out["min_score"] = float(self.min_score)
        if self.shards is not None:
            out["shards"] = list(self.shards)
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        if self.allow_stale:
            out["allow_stale"] = True
        if self.pin_version is not None:
            out["pin_version"] = int(self.pin_version)
        return out

    @classmethod
    def from_dict(cls, raw) -> "DiscoveryRequest":
        raw = _require_mapping(raw, "discovery request")
        _reject_unknown(
            raw,
            ("version", "mode", "k", "table", "payload", "column",
             "min_score", "shards", "fingerprint", "allow_stale",
             "pin_version"),
            "discovery request",
        )
        what = "discovery request"
        payload_raw = raw.get("payload")
        shards_raw = _typed(raw, "shards", list, what)
        return cls(
            version=_typed(raw, "version", str, what, default=API_VERSION),
            mode=_typed(raw, "mode", str, what, default="union"),
            k=_typed(raw, "k", int, what, default=10),
            table=_typed(raw, "table", str, what),
            payload=table_from_dict(payload_raw) if payload_raw is not None else None,
            column=_typed(raw, "column", str, what),
            min_score=_typed(raw, "min_score", (int, float), what),
            shards=tuple(shards_raw) if shards_raw is not None else None,
            fingerprint=_typed(raw, "fingerprint", str, what),
            allow_stale=_typed(raw, "allow_stale", bool, what, default=False),
            pin_version=_typed(raw, "pin_version", int, what),
        ).validated()


# --------------------------------------------------------------------- #
# Result
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ColumnMatch:
    """One matched column pair: query column -> lake table column."""

    query_column: str
    table_column: str
    distance: float

    def to_dict(self) -> dict:
        return {
            "query_column": self.query_column,
            "table_column": self.table_column,
            "distance": float(self.distance),
        }

    @classmethod
    def from_dict(cls, raw) -> "ColumnMatch":
        raw = _require_mapping(raw, "column match")
        _reject_unknown(
            raw, ("query_column", "table_column", "distance"), "column match"
        )
        return cls(
            query_column=_typed(raw, "query_column", str, "column match", required=True),
            table_column=_typed(raw, "table_column", str, "column match", required=True),
            distance=float(
                _typed(raw, "distance", (int, float), "column match", required=True)
            ),
        )


@dataclass(frozen=True)
class Hit:
    """One ranked answer: the lake table, its score, and the evidence.

    ``matches`` lists, per matching query column, the closest column of
    this table (join mode: the single best pair; union/subset: one entry
    per matched query column — RANK1's count is ``n_matched_columns`` and
    RANK2's tie-break is ``distance_sum``).

    ``version`` / ``stale`` stamp the hit table's data version and whether
    its served vectors lag an append (live-table diagnostics; ``None`` on
    results produced before the serving side tracked them).
    """

    table: str
    score: float
    n_matched_columns: int
    distance_sum: float
    matches: tuple[ColumnMatch, ...] = ()
    version: int | None = None
    stale: bool | None = None

    def to_dict(self) -> dict:
        out = {
            "table": self.table,
            "score": float(self.score),
            "n_matched_columns": self.n_matched_columns,
            "distance_sum": float(self.distance_sum),
            "matches": [match.to_dict() for match in self.matches],
        }
        if self.version is not None:
            out["version"] = int(self.version)
        if self.stale is not None:
            out["stale"] = bool(self.stale)
        return out

    @classmethod
    def from_dict(cls, raw) -> "Hit":
        raw = _require_mapping(raw, "hit")
        _reject_unknown(
            raw,
            ("table", "score", "n_matched_columns", "distance_sum", "matches",
             "version", "stale"),
            "hit",
        )
        matches_raw = _typed(raw, "matches", list, "hit", default=[])
        return cls(
            table=_typed(raw, "table", str, "hit", required=True),
            score=float(_typed(raw, "score", (int, float), "hit", required=True)),
            n_matched_columns=_typed(
                raw, "n_matched_columns", int, "hit", default=0
            ),
            distance_sum=float(
                _typed(raw, "distance_sum", (int, float), "hit", default=0.0)
            ),
            matches=tuple(ColumnMatch.from_dict(m) for m in matches_raw),
            version=_typed(raw, "version", int, "hit"),
            stale=_typed(raw, "stale", bool, "hit"),
        )


@dataclass(frozen=True)
class Timings:
    """Where one query's milliseconds went.

    A projection of the service's ``lake.discover`` span tree
    (:mod:`repro.obs`): ``sketch_ms`` / ``embed_ms`` sum the
    ``lake.sketch`` / ``lake.embed`` children, ``index_ms`` the
    ``lake.index`` child (the index search only — hit building and
    filtering land in ``total_ms``), and ``total_ms`` is the root span.
    Every query is answered in a batch (a lone ``discover`` is a batch of
    one): its sketch and embed times are its share of the batch's one
    embedding pass, and ``total_ms`` includes that share, so
    ``sketch_ms + embed_ms + index_ms <= total_ms`` always holds.

    On a query-cache hit (and for catalog-member queries, which reuse
    stored vectors), only ``sketch_ms`` and ``embed_ms`` are zero — the
    index search and the end-to-end total are still real work and stay
    nonzero. Whether a hit occurred travels separately, as the
    ``cache_hit`` key of :attr:`DiscoveryResult.diagnostics` (``True`` /
    ``False`` for external payloads, ``None`` for member queries that
    never consult the cache).
    """

    sketch_ms: float = 0.0
    embed_ms: float = 0.0
    index_ms: float = 0.0
    total_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "sketch_ms": float(self.sketch_ms),
            "embed_ms": float(self.embed_ms),
            "index_ms": float(self.index_ms),
            "total_ms": float(self.total_ms),
        }

    @classmethod
    def from_dict(cls, raw) -> "Timings":
        raw = _require_mapping(raw, "timings")
        _reject_unknown(
            raw, ("sketch_ms", "embed_ms", "index_ms", "total_ms"), "timings"
        )
        what = "timings"
        return cls(
            sketch_ms=float(_typed(raw, "sketch_ms", (int, float), what, default=0.0)),
            embed_ms=float(_typed(raw, "embed_ms", (int, float), what, default=0.0)),
            index_ms=float(_typed(raw, "index_ms", (int, float), what, default=0.0)),
            total_ms=float(_typed(raw, "total_ms", (int, float), what, default=0.0)),
        )


@dataclass(frozen=True)
class DiscoveryResult:
    """The ranked answer to one :class:`DiscoveryRequest`.

    ``hits`` is ordered best-first and already filtered/truncated to the
    request's ``k``; ``diagnostics`` carries serving metadata (cache hit,
    member vs external query, excluded table, index backend, shard count)
    — informative, never part of ranking semantics.
    """

    version: str
    mode: str
    k: int
    query: str
    hits: tuple[Hit, ...]
    timings: Timings = field(default_factory=Timings)
    diagnostics: dict = field(default_factory=dict)

    def tables(self) -> list[str]:
        """The ranking as bare table names, best first."""
        return [hit.table for hit in self.hits]

    def scored(self) -> list[tuple[str, float]]:
        """The parity-test view: ranked ``(table, score)`` pairs."""
        return [(hit.table, hit.score) for hit in self.hits]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "mode": self.mode,
            "k": self.k,
            "query": self.query,
            "hits": [hit.to_dict() for hit in self.hits],
            "timings": self.timings.to_dict(),
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_dict(cls, raw) -> "DiscoveryResult":
        raw = _require_mapping(raw, "discovery result")
        _reject_unknown(
            raw,
            ("version", "mode", "k", "query", "hits", "timings", "diagnostics"),
            "discovery result",
        )
        what = "discovery result"
        version = _typed(raw, "version", str, what, required=True)
        if version != API_VERSION:
            raise bad_request(
                f"unsupported schema version {version!r}; "
                f"this client speaks {API_VERSION!r}"
            )
        hits_raw = _typed(raw, "hits", list, what, required=True)
        timings_raw = raw.get("timings")
        diagnostics = raw.get("diagnostics", {})
        if not isinstance(diagnostics, Mapping):
            raise bad_request("discovery result diagnostics must be an object")
        return cls(
            version=version,
            mode=_typed(raw, "mode", str, what, required=True),
            k=_typed(raw, "k", int, what, required=True),
            query=_typed(raw, "query", str, what, required=True),
            hits=tuple(Hit.from_dict(h) for h in hits_raw),
            timings=Timings.from_dict(timings_raw) if timings_raw is not None else Timings(),
            diagnostics=dict(diagnostics),
        )

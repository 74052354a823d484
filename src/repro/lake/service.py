"""`LakeService` — the thread-safe query facade over a `LakeCatalog`.

Implements the paper's three discovery workloads against a standing lake:

- ``join``  — the tables whose best column contains the most of the query
  column (§IV-C1), by estimated containment from the stored MinHash
  signatures (:mod:`repro.search.containment`);
- ``subset`` — the tables whose columns the query table contains (§IV-C3,
  Table VIII's candidate ⊆ query), by the mean estimated containment of
  each candidate column in the query's, from the same signatures;
- ``union`` — the Fig. 6 NEARTABLES/RANK1/RANK2 procedure over all of the
  query table's column embeddings (§IV-C2).

Join and subset never touch the trunk.

Every question and answer travels through the versioned Discovery API
(:mod:`repro.lake.api`): :meth:`LakeService.discover` takes a
:class:`DiscoveryRequest` and returns a :class:`DiscoveryResult` — ranked
:class:`~repro.lake.api.Hit` s carrying scores and per-column evidence, a
sketch/embed/index timing breakdown, and cache/shard diagnostics.
In-process and HTTP callers (:mod:`repro.lake.server` /
:mod:`repro.lake.client`) are interchangeable because both speak exactly
this schema; :meth:`LakeService.open` is the one way to warm-load an
ingested lake directory.

Query tables may be catalog members (their stored sketches and vectors are
reused — zero trunk work) or external :class:`~repro.table.schema.Table`
payloads. A join payload is only signed
(:func:`~repro.sketch.pipeline.value_signatures`: its values signatures
and sizes, no full sketch), on its join column, and a subset payload only
signed, whole; a union payload's sketch+embeddings are computed once and
kept in a content-addressed LRU cache. There is one query path:
``discover`` is ``discover_batch`` of one request, and ``discover_batch``
embeds *all* uncached union payloads of a batch in one
batched :class:`~repro.core.engine.EmbeddingEngine` pass — ``ceil(distinct
/ batch_size)`` trunk forwards, identical digests deduped — instead of one
serial forward per query. A single re-entrant lock serializes catalog
mutations against reads; queries hold it only around shared-state access,
which is enough for correctness with the pure-numpy index.

Every query is answered under a ``lake.discover`` span (:mod:`repro.obs`):
its ``lake.index`` child times the index search, and synthetic
``lake.sketch`` / ``lake.embed`` (and ``lake.refresh``) children carry its
share of the work its batch did once, which the span's duration includes.
The response's :class:`~repro.lake.api.Timings` is a pure projection of
that span tree. Query counters/latency histograms, cache hit/miss/
eviction counters, and a top-N :class:`~repro.obs.SlowQueryLog` (with
full span breakdowns) feed ``GET /v1/metrics`` / ``/v1/slow_queries``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Sequence

from repro.lake.api import (
    API_VERSION,
    QUERY_MODES,
    ColumnMatch,
    DiscoveryError,
    DiscoveryRequest,
    DiscoveryResult,
    Hit,
    Timings,
    bad_request,
    join_score,
    subset_score,
    table_score,
)
from repro import obs
from repro.core.embed import TableEmbedder
from repro.lake.bundle import has_bundle, load_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.store import LakeStore
from repro.search.backend import stable_shard
from repro.search.containment import ContainmentMatch, SubsetMatch
from repro.search.tables import TableMatch
from repro.sketch.pipeline import JoinRows, sketch_batch, value_signatures
from repro.table.schema import Table

_QUERIES_TOTAL = obs.counter(
    "lake_queries_total", "Discovery queries answered, by mode", ("mode",)
)
_QUERY_MS = obs.histogram(
    "lake_query_duration_ms",
    "End-to-end discover() latency in milliseconds, by mode",
    ("mode",),
)
_CACHE_HITS = obs.counter(
    "lake_cache_hits_total", "Query-embedding LRU cache hits"
)
_CACHE_MISSES = obs.counter(
    "lake_cache_misses_total", "Query-embedding LRU cache misses"
)
_CACHE_EVICTIONS = obs.counter(
    "lake_cache_evictions_total", "Query-embedding LRU cache evictions"
)
#: Label children resolved once — the hot path must not pay a labels()
#: lookup per query for the three fixed modes.
_QUERIES_BY_MODE = {
    mode: _QUERIES_TOTAL.labels(mode=mode) for mode in QUERY_MODES
}
_QUERY_MS_BY_MODE = {mode: _QUERY_MS.labels(mode=mode) for mode in QUERY_MODES}
#: The modes ranked by containment over the stored MinHash signatures:
#: their queries are :class:`JoinRows`, never column vectors.
_SIGNED_MODES = ("join", "subset")


def table_digest(table: Table) -> str:
    """Content-addressed cache key: name, description, schema, all cells."""
    digest = hashlib.sha256()
    digest.update(table.name.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(table.description.encode("utf-8"))
    for column in table.columns:
        digest.update(b"\x01")
        digest.update(column.name.encode("utf-8"))
        for value in column.values:
            digest.update(b"\x02")
            digest.update(value.encode("utf-8"))
    return digest.hexdigest()


class _LruCache:
    """Tiny LRU for (digest -> ordered column-vector pairs)."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict[str, list] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            _CACHE_HITS.inc()
            return self._data[key]
        self.misses += 1
        _CACHE_MISSES.inc()
        return None

    def put(self, key: str, value) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1
            _CACHE_EVICTIONS.inc()

    def __len__(self) -> int:
        return len(self._data)


def _load_lake(lake_dir):
    """What serving an ingested lake directory takes: ``(embedder, sbert,
    fingerprint_at)``, where ``fingerprint_at(n_shards)`` is the store
    fingerprint this configuration has at that shard count (under the index
    spec the lake recorded, so every lake keeps the fingerprint it was
    written under)."""
    if not has_bundle(lake_dir):
        raise FileNotFoundError(
            f"{str(lake_dir)!r} is not an ingested lake (run `ingest` first)"
        )
    model, encoder, sbert = load_bundle(lake_dir)
    spec = LakeStore.peek_index_spec(lake_dir)

    def fingerprint_at(n_shards: int) -> str:
        return config_fingerprint(
            model.config, sbert=sbert, model=model, index_spec=spec,
            n_shards=n_shards,
        )

    return TableEmbedder(model, encoder), sbert, fingerprint_at


class LakeService:
    """Batched join/union/subset queries over a standing lake."""

    def __init__(self, catalog: LakeCatalog, cache_size: int = 128):
        self.catalog = catalog
        self._lock = threading.RLock()
        self._cache = _LruCache(cache_size)
        self.query_count = 0
        #: Tables ingested through this service (adds + updates).
        self.ingest_count = 0
        self.slow_log = obs.SlowQueryLog()
        self._started_at = time.time()

    @classmethod
    def open(cls, lake_dir) -> "LakeService":
        """Warm-load an ingested lake directory into a ready service (no
        re-embedding, no index re-insertion — the index is assembled from
        the stored vectors). The shard count comes from the on-disk layout; a
        store in an older layout is refused
        (:class:`~repro.lake.serialization.StoreLayoutError`, naming
        ``migrate``) before anything is loaded.
        """
        embedder, sbert, fingerprint_at = _load_lake(lake_dir)
        store = LakeStore.open(
            lake_dir,
            expected_fingerprint=fingerprint_at(LakeStore.peek_n_shards(lake_dir) or 1),
        )
        return cls(LakeCatalog.from_store(embedder, store, sbert=sbert))

    @staticmethod
    def reshard(lake_dir, n_shards: int) -> tuple[int, int]:
        """Migrate an ingested lake directory in place to ``n_shards``
        shards (:meth:`LakeStore.reshard`); returns ``(previous shard count,
        tables re-routed)`` — nothing is touched when the two counts agree.
        Stored vectors are re-routed, and the next open assembles the
        index from them: resharding never re-embeds.
        """
        _, _, fingerprint_at = _load_lake(lake_dir)
        old_n = LakeStore.peek_n_shards(lake_dir)
        if old_n is None:
            raise FileNotFoundError(
                f"{str(lake_dir)!r} has no lake store (run `ingest` first)"
            )
        if old_n == n_shards:
            return old_n, 0
        store = LakeStore.open(lake_dir, expected_fingerprint=fingerprint_at(old_n))
        return old_n, store.reshard(n_shards, fingerprint_at(n_shards))

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str | None:
        """The attached store's configuration fingerprint (None storeless).

        Requests carrying ``fingerprint=`` are checked against this — the
        remote caller's analogue of the store's open-time guard.
        """
        store = self.catalog.store
        return store.fingerprint if store is not None else None

    def _check_request(self, request: DiscoveryRequest) -> None:
        """The fingerprint pin, the member name, the join column and the
        shard filter's range (under the lock)."""
        if request.fingerprint is not None:
            actual = self.fingerprint()
            if request.fingerprint != actual:
                raise DiscoveryError(
                    "fingerprint-mismatch",
                    f"request pinned lake fingerprint {request.fingerprint!r} "
                    f"but this service serves {actual!r} — the lake was built "
                    "under a different configuration",
                )
        if request.table is not None and request.table not in self.catalog:
            raise DiscoveryError(
                "not-found", f"query table {request.table!r} not in catalog"
            )
        if request.column is not None:
            columns = (
                self.catalog.records[request.table].column_names
                if request.table is not None
                else request.payload.header
            )
            if request.column not in columns:
                raise DiscoveryError(
                    "not-found", f"query table has no column {request.column!r}"
                )
        if request.shards is not None:
            n_shards = self.catalog.n_shards
            out_of_range = [s for s in request.shards if s >= n_shards]
            if out_of_range:
                raise bad_request(
                    f"shard filter {out_of_range} out of range for a "
                    f"{n_shards}-shard lake"
                )

    def _check_pin(self, request: DiscoveryRequest) -> None:
        """The version pin, checked after any lazy refresh (under the lock)."""
        if request.pin_version is None:
            return
        pinned = self.catalog.records.get(request.table)
        if pinned is None:
            return
        if pinned.version != request.pin_version:
            raise DiscoveryError(
                "version-conflict",
                f"table {request.table!r} is at version "
                f"{pinned.version}, not pinned version "
                f"{request.pin_version}",
            )
        if pinned.embedding_stale:
            raise DiscoveryError(
                "version-conflict",
                f"table {request.table!r} matches pinned "
                f"version {request.pin_version} but its "
                "embedding is stale; retry without "
                "allow_stale to refresh it first",
            )

    # ------------------------------------------------------------------ #
    def _search(
        self,
        request: DiscoveryRequest,
        query: "list | JoinRows",
        exclude: str | None,
    ) -> "Sequence[TableMatch] | list[ContainmentMatch] | list[SubsetMatch]":
        """Run the mode's ranking under the lock; full (untruncated)
        candidate ranking so post-filters never starve the top-k. A join
        or subset ``query`` is the query columns' values signatures and
        sizes (a member's stored rows, or the payload's signed ones), ranked by
        containment; a union one is the columns' vectors."""
        if request.mode == "join":
            return self.catalog.joins.rank(
                query, request.k, column=request.column, exclude_table=exclude
            )
        if request.mode == "subset":
            return self.catalog.joins.rank_subsets(query, exclude_table=exclude)
        return self.catalog.searcher.rank(query, request.k, exclude_table=exclude)

    def _build_hits(
        self,
        request: DiscoveryRequest,
        matches: "Sequence[TableMatch] | list[ContainmentMatch] | list[SubsetMatch]",
    ) -> tuple[tuple[Hit, ...], int]:
        """Score, filter (min_score / shards), and truncate to ``k``."""
        n_shards = self.catalog.n_shards
        hits: list[Hit] = []
        dropped = 0
        for match in matches:
            if request.mode == "join":
                score = join_score(match.containment)
            elif request.mode == "subset":
                score = subset_score(match.containment)
            else:
                score = table_score(match.n_matched, match.distance_sum)
            if request.min_score is not None and score < request.min_score:
                dropped += 1
                continue
            if request.shards is not None and (
                stable_shard(match.table, n_shards) not in request.shards
            ):
                dropped += 1
                continue
            record = self.catalog.records.get(match.table)
            hits.append(
                Hit(
                    table=match.table,
                    score=score,
                    n_matched_columns=match.n_matched,
                    distance_sum=match.distance_sum,
                    matches=tuple(
                        ColumnMatch(query_column=q, table_column=c, distance=d)
                        for q, c, d in match.matches
                    ),
                    version=record.version if record is not None else None,
                    stale=record.embedding_stale if record is not None else None,
                )
            )
            if len(hits) >= request.k:
                break
        return tuple(hits), dropped

    def discover(self, request: DiscoveryRequest) -> DiscoveryResult:
        """Answer one :class:`DiscoveryRequest` with a typed, scored result:
        a batch of one (:meth:`discover_batch`).

        The single entry point every surface shares: the CLI and the HTTP
        server both route here, so a request answered in-process and the
        same request answered over the wire return the same ranked
        ``(table, score)`` hits.
        """
        return self.discover_batch([request])[0]

    def _observe_query(
        self,
        request: DiscoveryRequest,
        root: obs.Span,
        timings: Timings,
        diagnostics: dict,
    ) -> None:
        """Record one answered query into metrics + the slow-query log.

        The histogram observes the *exact* ``timings.total_ms`` the
        response carries, so the exposition's ``lake_query_duration_ms``
        sum reconciles with summed per-response totals by construction.
        """
        mode = request.mode
        counter = _QUERIES_BY_MODE.get(mode) or _QUERIES_TOTAL.labels(mode=mode)
        histogram = _QUERY_MS_BY_MODE.get(mode) or _QUERY_MS.labels(mode=mode)
        counter.inc()
        histogram.observe(timings.total_ms)
        # The span-tree dict is the expensive part of an entry; only build
        # it for queries slow enough to displace the current top-N.
        if not self.slow_log.would_record(timings.total_ms):
            return
        self.slow_log.record(
            {
                "query": request.query_name,
                "mode": request.mode,
                "k": request.k,
                "member": diagnostics.get("member", False),
                "cache_hit": diagnostics.get("cache_hit"),
                "request_id": diagnostics.get("request_id"),
                "total_ms": timings.total_ms,
                "timings": timings.to_dict(),
                "spans": root.to_dict(),
            }
        )

    def discover_batch(
        self, requests: Sequence[DiscoveryRequest]
    ) -> list[DiscoveryResult]:
        """Answer many requests; uncached union payloads embed together.

        Planning runs once, under the lock, before any trunk work: every
        request is validated and its fingerprint pin, member name and join
        column checked; if any union request is strict (no
        ``allow_stale``), or any strict request pins a version, stale
        tables are re-embedded once (a join or subset reads no vector:
        its signatures were merged at append, so it serves stale tables
        as they are, stamped ``stale``); version pins are checked; and
        each request takes its query. A join or subset query is the query
        columns' values signatures and sizes: a member's stored ones, or a
        place in the batch's signing pass for a payload (a join one
        projected to its ``column``, a subset one whole; no digest, no
        cache, no trunk). That pass is one ``value_signatures`` call over
        every join and subset payload: no type inference, words,
        numerical profile or snapshot. A union query is the column
        vectors: a member's stored ones, a cached payload's, or a place in
        the batch's embedding pass. That pass sketches every distinct
        uncached union payload in one ``sketch_batch`` call (arrays, no
        sketch object; a batch with none makes no call) and embeds
        them in one
        :meth:`~repro.lake.catalog.LakeCatalog.column_vector_pairs_many`
        call — ``ceil(distinct / batch_size)`` trunk forwards, duplicate
        payloads embedded once — outside the lock, so concurrent queries
        embed in parallel. Member-name, join and subset queries never touch
        the trunk.

        The batch is all-or-nothing: the first failing request raises and
        no results are returned (the embedding cache stays warm). The
        cheap failures — malformed requests, fingerprint pins, unknown
        member names, unknown join columns, out-of-range shard filters,
        version conflicts — all raise before any sketching or embedding;
        all but the version conflicts also raise before any lazy refresh.

        Each request is answered under its own ``lake.discover`` span,
        whose ``lake.index`` child times the index search. The work the
        batch shared is charged to the requests it served as synthetic
        children: ``lake.sketch`` splits the sketch and signing passes
        (one ``lake.sketch_batch`` span) evenly over the requests sketched
        or signed in them and ``lake.embed`` the embedding pass over
        the requests embedded in it, and ``lake.refresh`` goes to the
        first request that asked for it. Each span's duration — the result's
        ``Timings.total_ms`` and the histogram's observation — includes
        those charges, so the parts never exceed the total.
        """
        requests = [request.validated() for request in requests]
        by_signature = [request.mode in _SIGNED_MODES for request in requests]
        digests = [
            table_digest(request.payload)
            if request.payload is not None and not signature
            else None
            for request, signature in zip(requests, by_signature)
        ]
        fresh = [
            not request.allow_stale
            and (request.mode == "union" or request.pin_version is not None)
            for request in requests
        ]
        todo: dict[str, Table] = {}
        #: Request index -> its join or subset payload, a join one
        #: projected to its column.
        projected: dict[int, Table] = {}
        #: Per request: (its query, or None to take from the pass,
        #: exclude_table, cache_hit).
        plans: list[tuple["list | JoinRows | None", str | None, bool | None]] = []
        charges: list[dict[str, float]] = [{} for _ in requests]
        extras: list[dict] = [{} for _ in requests]
        with self._lock:
            for request in requests:
                self._check_request(request)
            if any(fresh) and self.catalog.stale_tables():
                # Lazy re-embed: appended tables serve stale vectors until
                # the first query that won't tolerate them, which pays one
                # batched embedding pass for *only* the stale tables.
                with obs.span("lake.refresh_batch") as refreshing:
                    refreshed = self.catalog.refresh_stale()
                first = fresh.index(True)
                charges[first]["lake.refresh"] = refreshing.duration_ms
                extras[first]["refreshed"] = len(refreshed)
            for request in requests:
                self._check_pin(request)
            for i, (request, digest, signature) in enumerate(
                zip(requests, digests, by_signature)
            ):
                if request.table is not None:
                    record = self.catalog.records[request.table]
                    query = (
                        record.join_rows() if signature else record.vector_pairs()
                    )
                    plans.append((query, request.table, None))
                    continue
                payload = request.payload
                exclude = payload.name if payload.name in self.catalog else None
                if signature:
                    projected[i] = payload.with_columns([
                        column for column in payload.columns
                        if request.column in (None, column.name)
                    ])
                    plans.append((None, exclude, None))
                    continue
                pairs = None if digest in todo else self._cache.get(digest)
                if pairs is None:
                    todo.setdefault(digest, payload)
                plans.append((pairs, exclude, pairs is not None))
        embedded: dict[str, list] = {}
        signed: dict[int, JoinRows] = {}
        if todo or projected:
            n_tables = len(todo) + len(projected)
            config, hasher = self.catalog.sketch_config, self.catalog._hasher
            with obs.span("lake.sketch_batch", tables=n_tables) as sketching:
                if todo:  # a signed-only batch sketches nothing
                    sketched = sketch_batch(todo.values(), config, hasher)
                signed = dict(zip(projected, value_signatures(
                    projected.values(), config, hasher
                )))
            if todo:
                with obs.span("lake.embed_batch", tables=len(todo)) as embedding:
                    embedded = dict(zip(todo, self.catalog.column_vector_pairs_many(
                        list(todo.values()), sketched
                    )))
                with self._lock:
                    for digest, pairs in embedded.items():
                        self._cache.put(digest, pairs)
            served = [i for i, (query, _, _) in enumerate(plans) if query is None]
            n_embedded = len(served) - len(signed)
            for i in served:
                charges[i]["lake.sketch"] = sketching.duration_ms / len(served)
                if i not in signed:
                    charges[i]["lake.embed"] = embedding.duration_ms / n_embedded
                if n_tables > 1:
                    extras[i]["batched"] = n_tables
        return [
            self._answer(
                request,
                query if query is not None
                else signed[i] if i in signed else embedded[digest],
                exclude,
                cache_hit,
                extra,
                charged,
            )
            for i, (request, digest, (query, exclude, cache_hit), extra, charged)
            in enumerate(zip(requests, digests, plans, extras, charges))
        ]

    def _answer(
        self,
        request: DiscoveryRequest,
        query: "list | JoinRows",
        exclude: str | None,
        cache_hit: bool | None,
        extra: dict,
        charges: dict[str, float],
    ) -> DiscoveryResult:
        """Rank one planned request under its ``lake.discover`` span.

        ``charges`` are the request's shares of the batch's shared work,
        attached as synthetic children; the span's duration covers them,
        so the response's :class:`Timings` — a projection of the span
        tree, with ``lake.index`` wrapping the index search only, not hit
        building — never has parts exceeding its total.
        """
        with obs.span("lake.discover", mode=request.mode) as root:
            for stage, duration_ms in charges.items():
                root.add_child_duration(stage, duration_ms, amortized=True)
            with self._lock:
                self.query_count += 1
                with obs.span("lake.index"):
                    matches = self._search(request, query, exclude)
                hits, dropped = self._build_hits(request, matches)
                diagnostics = {
                    "member": request.table is not None,
                    "cache_hit": cache_hit,
                    "excluded": exclude,
                    "backend": self.catalog.index_spec.canonical(),
                    "n_shards": self.catalog.n_shards,
                    "candidates": len(matches),
                    "filtered": dropped,
                    **extra,
                }
            request_id = obs.request_id()
            if request_id is not None:
                diagnostics["request_id"] = request_id
        timings = Timings(
            sketch_ms=root.child_sum("lake.sketch"),
            embed_ms=root.child_sum("lake.embed"),
            index_ms=root.child_sum("lake.index"),
            total_ms=root.duration_ms,
        )
        result = DiscoveryResult(
            version=API_VERSION,
            mode=request.mode,
            k=request.k,
            query=request.query_name,
            hits=hits,
            timings=timings,
            diagnostics=diagnostics,
        )
        self._observe_query(request, root, timings, diagnostics)
        return result

    # ------------------------------------------------------------------ #
    def add_table(self, table: Table):
        with self._lock:
            record = self.catalog.add_table(table)
            self.ingest_count += 1
            return record

    def add_tables(self, tables: dict[str, Table]):
        """Bulk ingest: one batched sketching pass, ``ceil(N / batch_size)``
        trunk forwards for N new tables, then the per-shard store writes."""
        with self._lock:
            records = self.catalog.add_tables(tables)
            self.ingest_count += len(records)
            return records

    def remove_table(self, name: str) -> bool:
        with self._lock:
            return self.catalog.remove_table(name)

    def update_table(self, table: Table):
        with self._lock:
            record = self.catalog.update_table(table)
            self.ingest_count += 1
            return record

    def append_rows(self, name: str, rows):
        """Append rows to a catalog member; sketches merge in O(delta).

        The table's embedding goes stale until the next strict union or
        pinned query (or an explicit refresh) re-embeds it. Unknown names surface as the
        API's typed ``not-found`` so every transport maps them to 404.
        """
        with self._lock:
            try:
                return self.catalog.append_rows(name, rows)
            except KeyError:
                raise DiscoveryError(
                    "not-found", f"table {name!r} not in catalog"
                ) from None

    def refresh_stale(self, names: "list[str] | None" = None) -> list[str]:
        """Eagerly re-embed stale tables (all of them, or just ``names``).

        The operator/driver-facing twin of the lazy refresh a strict union
        or pinned query pays implicitly: one batched engine pass for every stale table,
        persisted. Returns the refreshed names (names that are unknown or
        not stale are skipped, mirroring the catalog's semantics).
        """
        with self._lock:
            return self.catalog.refresh_stale(names)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            stats = self.catalog.stats()
            store_stats = (
                self.catalog.store.stats()
                if self.catalog.store is not None
                else None
            )
            if store_stats is not None:
                # The store's manifests already know their routing — no
                # per-record hashing under the service lock.
                shard_tables = list(store_stats["shard_tables"])
            else:
                n_shards = self.catalog.n_shards
                shard_tables = [0] * n_shards
                for name in self.catalog.records:
                    shard_tables[stable_shard(name, n_shards)] += 1
            hits, misses = self._cache.hits, self._cache.misses
            lookups = hits + misses
            stats.update(
                {
                    "api_version": API_VERSION,
                    "fingerprint": self.fingerprint(),
                    "uptime_s": time.time() - self._started_at,
                    "queries_served": self.query_count,
                    "queries_total": self.query_count,
                    "ingests_total": self.ingest_count,
                    "cache_entries": len(self._cache),
                    "cache_hits": hits,
                    "cache_misses": misses,
                    "cache_evictions": self._cache.evictions,
                    "cache_hit_rate": (hits / lookups) if lookups else None,
                    "shard_tables": shard_tables,
                }
            )
            if store_stats is not None:
                stats["store"] = store_stats
            return stats

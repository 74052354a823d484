"""`LakeService` — the thread-safe query facade over a `LakeCatalog`.

Implements the paper's three discovery workloads against a standing lake:

- ``join``  — closest-single-column ranking (§IV-C1), queried per column;
- ``union`` / ``subset`` — the Fig. 6 NEARTABLES/RANK1/RANK2 procedure over
  all of the query table's columns (§IV-C2/C3).

Every question and answer travels through the versioned Discovery API
(:mod:`repro.lake.api`): :meth:`LakeService.discover` takes a
:class:`DiscoveryRequest` and returns a :class:`DiscoveryResult` — ranked
:class:`~repro.lake.api.Hit` s carrying scores and per-column evidence, a
sketch/embed/index timing breakdown, and cache/shard diagnostics.
In-process and HTTP callers (:mod:`repro.lake.server` /
:mod:`repro.lake.client`) are interchangeable because both speak exactly
this schema; :meth:`LakeService.open` is the one way to warm-load an
ingested lake directory.

Query tables may be catalog members (their stored vectors are reused — zero
trunk work) or external :class:`~repro.table.schema.Table` payloads, whose
sketch+embeddings are computed once and kept in a content-addressed LRU
cache. ``discover_batch`` embeds *all* uncached external query tables of a
batch in one batched :class:`~repro.core.engine.EmbeddingEngine` pass —
``ceil(distinct / batch_size)`` trunk forwards, identical digests deduped —
instead of one serial forward per query. A single re-entrant lock
serializes catalog mutations against reads; queries hold it only around
shared-state access, which is enough for correctness with the pure-numpy
index.

Every query runs under a ``lake.discover`` span (:mod:`repro.obs`):
``lake.sketch`` / ``lake.embed`` / ``lake.index`` children carry the
stage timings (batched queries attach synthetic amortized children), and
the response's :class:`~repro.lake.api.Timings` is a pure projection of
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
    table_score,
)
from repro import obs
from repro.core.embed import TableEmbedder
from repro.lake.bundle import has_bundle, load_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.store import LakeStore
from repro.search.backend import stable_shard
from repro.search.tables import TableMatch
from repro.sketch.pipeline import sketch_corpus, sketch_table
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

    def __contains__(self, key: str) -> bool:
        """Non-counting membership probe (batch planning must not skew the
        hit/miss statistics the observable ``stats()`` reports)."""
        return key in self._data

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
        re-embedding, no index re-insertion — the persisted index is
        deserialized). The shard count comes from the on-disk layout; a
        lake recorded under a non-exact index is refused
        (:class:`~repro.lake.serialization.UnsupportedIndexBackendError`)
        before anything is loaded.
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
        Stored vectors are re-routed and the per-shard indexes rebuilt from
        them: zero trunk forwards, resharding never re-embeds.
        """
        embedder, sbert, fingerprint_at = _load_lake(lake_dir)
        old_n = LakeStore.peek_n_shards(lake_dir)
        if old_n is None:
            raise FileNotFoundError(
                f"{str(lake_dir)!r} has no lake store (run `ingest` first)"
            )
        if old_n == n_shards:
            return old_n, 0

        def build_indexes(staged: LakeStore) -> None:
            catalog = LakeCatalog.from_store(embedder, staged, sbert=sbert)
            assert catalog.embed_calls == 0, "reshard must not re-embed"

        store = LakeStore.open(lake_dir, expected_fingerprint=fingerprint_at(old_n))
        return old_n, store.reshard(n_shards, fingerprint_at(n_shards), build_indexes)

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str | None:
        """The attached store's configuration fingerprint (None storeless).

        Requests carrying ``fingerprint=`` are checked against this — the
        remote caller's analogue of the store's open-time guard.
        """
        store = self.catalog.store
        return store.fingerprint if store is not None else None

    def _check_fingerprint(self, request: DiscoveryRequest) -> None:
        if request.fingerprint is None:
            return
        actual = self.fingerprint()
        if request.fingerprint != actual:
            raise DiscoveryError(
                "fingerprint-mismatch",
                f"request pinned lake fingerprint {request.fingerprint!r} "
                f"but this service serves {actual!r} — the lake was built "
                "under a different configuration",
            )

    # ------------------------------------------------------------------ #
    def _resolve(
        self, request: DiscoveryRequest
    ) -> tuple[list, str | None, dict]:
        """``(ordered (column, vector) pairs, exclude_table, diagnostics)``.

        Catalog members resolve to their stored vectors; external payloads
        go through the LRU-cached embedding path. An external table whose
        name shadows a catalog member is still excluded from its own
        results (leave-one-out, as in the paper's benchmarks).

        The trunk runs *outside* the lock: only cache/catalog lookups are
        guarded, so concurrent external-table queries embed in parallel.
        (Two threads missing on the same digest may both embed it — the
        standard benign cache stampede; results are deterministic.)
        """
        if request.table is not None:
            with self._lock:
                if request.table not in self.catalog:
                    raise DiscoveryError(
                        "not-found",
                        f"query table {request.table!r} not in catalog",
                    )
                record = self.catalog.records[request.table]
                return (
                    record.vector_pairs(),
                    request.table,
                    {"member": True, "cache_hit": None},
                )
        query = request.payload
        key = table_digest(query)
        with self._lock:
            pairs = self._cache.get(key)
        diag: dict = {"member": False, "cache_hit": pairs is not None}
        if pairs is None:
            # The stage spans attach to the caller's ``lake.discover`` root
            # through the contextvar — the Timings projection reads them
            # back as ``child_sum("lake.sketch")`` / ``("lake.embed")``.
            with obs.span("lake.sketch"):
                table_sketch = sketch_table(
                    query, self.catalog.sketch_config, self.catalog._hasher
                )
            with obs.span("lake.embed"):
                pairs = self.catalog.column_vector_pairs(query, table_sketch)
            with self._lock:
                self._cache.put(key, pairs)
        with self._lock:
            exclude = query.name if query.name in self.catalog else None
        return pairs, exclude, diag

    # ------------------------------------------------------------------ #
    def _search(
        self, request: DiscoveryRequest, pairs: list, exclude: str | None
    ) -> list[TableMatch]:
        """Run the mode's ranking under the lock; full (untruncated)
        candidate ranking so post-filters never starve the top-k."""
        searcher = self.catalog.searcher
        if not pairs:
            return []
        if request.mode == "join":
            if request.column is not None:
                by_name = dict(pairs)
                if request.column not in by_name:
                    raise DiscoveryError(
                        "not-found",
                        f"query table has no column {request.column!r}",
                    )
                named = [(request.column, by_name[request.column])]
            else:
                named = pairs
            return searcher.join_tables_scored(
                named, request.k, exclude_table=exclude
            )
        return searcher.near_tables_scored(
            pairs, request.k, exclude_table=exclude
        )

    def _build_hits(
        self, request: DiscoveryRequest, matches: list[TableMatch]
    ) -> tuple[tuple[Hit, ...], int]:
        """Score, filter (min_score / shards), and truncate to ``k``."""
        n_shards = self.catalog.n_shards
        if request.shards is not None:
            out_of_range = [s for s in request.shards if s >= n_shards]
            if out_of_range:
                raise bad_request(
                    f"shard filter {out_of_range} out of range for a "
                    f"{n_shards}-shard lake"
                )
        hits: list[Hit] = []
        dropped = 0
        for match in matches:
            if request.mode == "join":
                score = join_score(match.distance_sum)
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

    def discover(
        self,
        request: DiscoveryRequest,
        _resolved: tuple[list, str | None, dict] | None = None,
    ) -> DiscoveryResult:
        """Answer one :class:`DiscoveryRequest` with a typed, scored result.

        The single entry point every surface shares: the CLI and the HTTP
        server both route here, so a request answered in-process and the
        same request answered over the wire return the same ranked
        ``(table, score)`` hits.

        The whole call runs under a ``lake.discover`` span whose children
        (``lake.sketch`` / ``lake.embed`` / ``lake.index``) carry the
        stage timings; the response's :class:`Timings` is a projection of
        that span tree (same fields as the old ``perf_counter`` pairs —
        ``lake.index`` wraps the index search only, not hit building).
        """
        request = request.validated()
        with obs.span("lake.discover", mode=request.mode) as root:
            self._check_fingerprint(request)
            refreshed: list[str] = []
            if not request.allow_stale:
                # Lazy re-embed: appended tables serve stale vectors until
                # the first query that won't tolerate them, which pays one
                # batched embedding pass for *only* the stale tables.
                with self._lock:
                    if self.catalog.stale_tables():
                        refreshed = self.catalog.refresh_stale()
            if request.pin_version is not None:
                with self._lock:
                    pinned = self.catalog.records.get(request.table)
                    if pinned is not None:
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
            pairs, exclude, diag = (
                _resolved if _resolved is not None else self._resolve(request)
            )
            # Batched resolution happened outside this trace: attach each
            # query's amortized share of the one batched pass as synthetic
            # children, so the projection below stays uniform.
            if "sketch_ms" in diag:
                root.add_child_duration(
                    "lake.sketch", diag["sketch_ms"], amortized=True
                )
            if "embed_ms" in diag:
                root.add_child_duration(
                    "lake.embed", diag["embed_ms"], amortized=True
                )
            with self._lock:
                self.query_count += 1
                with obs.span("lake.index"):
                    matches = self._search(request, pairs, exclude)
                hits, dropped = self._build_hits(request, matches)
                diagnostics = {
                    "member": diag.get("member", False),
                    "cache_hit": diag.get("cache_hit"),
                    "excluded": exclude,
                    "backend": self.catalog.index_spec.canonical(),
                    "n_shards": self.catalog.n_shards,
                    "candidates": len(matches),
                    "filtered": dropped,
                }
                if diag.get("batched"):
                    diagnostics["batched"] = diag["batched"]
                if refreshed:
                    diagnostics["refreshed"] = len(refreshed)
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
        if not obs.enabled():
            return
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
        """Answer many requests; uncached external payloads embed together.

        All distinct-by-digest, not-yet-cached external query tables are
        sketched and pushed through **one**
        :meth:`~repro.lake.catalog.LakeCatalog.column_vector_pairs_many`
        call — ``ceil(distinct / batch_size)`` trunk forwards for the whole
        batch (duplicate payloads embed once), then every request is
        answered from the precomputed vectors. Member-name queries never
        touch the trunk at all.

        The batch is all-or-nothing: the first failing request raises and
        no results are returned (the embedding cache stays warm). To keep
        the expensive batched pass from being paid and discarded, the
        cheap failures — malformed requests, fingerprint pins, unknown
        member names — are all checked *before* any sketching or
        embedding.
        """
        requests = [request.validated() for request in requests]
        with self._lock:
            for request in requests:
                self._check_fingerprint(request)
                if request.table is not None and request.table not in self.catalog:
                    raise DiscoveryError(
                        "not-found",
                        f"query table {request.table!r} not in catalog",
                    )
        digests = [
            table_digest(request.payload) if request.payload is not None else None
            for request in requests
        ]
        todo: dict[str, Table] = {}
        with self._lock:
            for request, digest in zip(requests, digests):
                if digest is None or digest in todo:
                    continue
                if digest in self._cache:
                    continue
                todo[digest] = request.payload
        precomputed: dict[str, list] = {}
        shared_diag: dict[str, dict] = {}
        if todo:
            tables = list(todo.values())
            with obs.span("lake.sketch_batch", tables=len(tables)) as sketching:
                sketches = sketch_corpus(
                    tables, self.catalog.sketch_config, self.catalog._hasher
                )
            with obs.span("lake.embed_batch", tables=len(tables)) as embedding:
                pairs_list = self.catalog.column_vector_pairs_many(
                    tables, sketches
                )
            # Amortized per-query share of the one batched pass; each
            # request's ``lake.discover`` root re-attaches its share as a
            # synthetic child (see :meth:`discover`).
            sketch_ms = sketching.duration_ms / len(tables)
            embed_ms = embedding.duration_ms / len(tables)
            with self._lock:
                for digest, pairs in zip(todo, pairs_list):
                    self._cache.put(digest, pairs)
                    self._cache.misses += 1  # it *was* a miss, batched or not
                    _CACHE_MISSES.inc()
                    precomputed[digest] = pairs
                    shared_diag[digest] = {
                        "member": False,
                        "cache_hit": False,
                        "batched": len(tables),
                        "sketch_ms": sketch_ms,
                        "embed_ms": embed_ms,
                    }
        results: list[DiscoveryResult] = []
        for request, digest in zip(requests, digests):
            if digest is not None and digest in precomputed:
                with self._lock:
                    exclude = (
                        request.payload.name
                        if request.payload.name in self.catalog
                        else None
                    )
                resolved = (precomputed[digest], exclude, shared_diag[digest])
                results.append(self.discover(request, _resolved=resolved))
            else:
                results.append(self.discover(request))
        return results

    # ------------------------------------------------------------------ #
    def add_table(self, table: Table):
        with self._lock:
            record = self.catalog.add_table(table)
            self.ingest_count += 1
            return record

    def add_tables(
        self,
        tables: dict[str, Table],
        batch_size: int | None = None,
    ):
        """Bulk ingest: one batched sketching pass, ``ceil(N / batch_size)``
        trunk forwards for N new tables, then the per-shard store writes."""
        with self._lock:
            records = self.catalog.add_tables(tables, batch_size=batch_size)
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

        The table's embedding goes stale until the next strict query (or
        an explicit refresh) re-embeds it. Unknown names surface as the
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

        The operator/driver-facing twin of the lazy refresh a strict query
        pays implicitly: one batched engine pass for every stale table,
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

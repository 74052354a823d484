"""`LakeCatalog` — the mutable registry of an indexed lake.

Holds every table's :class:`LakeTableRecord` plus the live column index
(:class:`repro.search.tables.TableSearcher`), and keeps both in sync under
``add_table`` / ``remove_table`` / ``update_table``:

- an **add** sketches and embeds *only the new table* and bulk-appends its
  column rows to the index (amortized O(cols) — no re-stack of the lake);
- a **bulk add** routes the whole delta through one batch-first pipeline
  in the calling thread: ``sketch_corpus`` (every distinct string hashed
  once), then ``ceil(N / batch_size)`` length-bucketed
  :class:`~repro.core.engine.EmbeddingEngine` forwards, then per-shard
  store writes, one manifest flush per touched shard;
- a **remove** compacts the index in one pass and never touches the trunk;
- attached to a :class:`~repro.lake.store.LakeStore`, every mutation is
  persisted immediately — table artifacts *and* the built vector index, in
  one manifest flush per touched shard (a shard whose index changed
  re-archives it, an append only re-stamps it) — so the on-disk lake is
  always warm-loadable.

The column index is a :class:`~repro.search.backend.ShardedIndex` with the
store's shard count: queries fan ``query_many`` across the per-shard indexes
and merge — rankings are bitwise-identical at every shard count, which
``tests/lake/test_sharding.py`` asserts.

Each shard's sub-index is the exact :class:`~repro.search.index.KnnIndex`;
``index_spec`` is what the store records for it (the spec a lake was
written under, so its manifests and fingerprint never change).

``embed_calls`` counts trunk *forwards* — the observable guarantee that a
1-table delta costs one forward, a batched ingest costs ``ceil(N/B)``, and
a warm load costs none. ``searcher.insertions`` is the analogous index-side
counter: a warm load restores the persisted index and performs zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro import obs
from repro.core.embed import TableEmbedder, finalize_column_vectors
from repro.core.engine import TableEmbeddings
from repro.lake.store import LakeStore, LakeTableRecord
from repro.search.backend import IndexSpec
from repro.search.tables import TableSearcher
from repro.sketch.pipeline import TableSketch, sketch_corpus, sketch_table
from repro.table.schema import Table, table_from_rows
from repro.text.sbert import HashedSentenceEncoder

_TABLES_ADDED = obs.counter(
    "lake_tables_added_total", "Tables added to a lake catalog"
)
_TABLES_REMOVED = obs.counter(
    "lake_tables_removed_total", "Tables removed from a lake catalog"
)
_TABLES_UPDATED = obs.counter(
    "lake_tables_updated_total",
    "In-place table replacements (update_table) — counted once per update, "
    "not as a remove plus an add",
)
_ROWS_APPENDED = obs.counter(
    "lake_rows_appended_total", "Rows merged into live tables via append_rows"
)
_INGEST_MS = obs.histogram(
    "lake_ingest_duration_ms",
    "Catalog ingest latency in milliseconds, per add_table/add_tables call",
)

def _index_matches_records(index, records: "list[LakeTableRecord]") -> bool:
    """Does a restored index cover exactly the manifest's columns?

    The index archive and the table manifest are separate files, and a
    store written by ``save_table`` then ``save_index`` (or by an older
    build) flushes them separately, so a crash between the two can leave
    them out of step; serving such an index would return ghost tables (or
    hide live ones). Comparing the (table, column) multiset is O(total
    columns) — cheap next to deserialization.
    """
    expected = Counter(
        (record.name, column)
        for record in records
        for column in record.column_names
    )
    actual = Counter((entry.table, entry.column) for entry in index.keys())
    return expected == actual


class LakeCatalog:
    """Incrementally maintained table catalog + column index."""

    def __init__(
        self,
        embedder: TableEmbedder,
        sbert: HashedSentenceEncoder | None = None,
        store: LakeStore | None = None,
        batch_size: int = 16,
        n_shards: int | None = None,
    ):
        self.embedder = embedder
        self.engine = embedder.engine
        self.sbert = sbert
        self.store = store
        self.batch_size = batch_size
        self.sketch_config = embedder.model.config.sketch
        self._hasher = self.sketch_config.build_hasher()
        self.dim = embedder.dim + (sbert.dim if sbert else 0)
        self.index_spec = IndexSpec()
        if store is not None:
            if n_shards is not None and n_shards != store.n_shards:
                raise ValueError(
                    f"catalog n_shards={n_shards} disagrees with the "
                    f"attached store's {store.n_shards}"
                )
            n_shards = store.n_shards
            stored_spec = store.index_spec()
            if stored_spec is None:
                # Record the spec *before* any slow embedding work, as a
                # store opened mid-ingest expects to find it.
                store.record_index_spec(self.index_spec)
            else:
                self.index_spec = stored_spec
        #: Shard count of the column index (and of the attached store).
        #: Rankings are shard-count-invariant; sharding is a throughput /
        #: persistence-granularity lever, not a semantics knob.
        self.n_shards = (
            n_shards if n_shards is not None else LakeStore.DEFAULT_SHARDS
        )
        self.searcher = TableSearcher(
            self.dim,
            metric=self.index_spec.params.get("metric", "cosine"),
            n_shards=self.n_shards,
        )
        self.records: dict[str, LakeTableRecord] = {}
        #: Trunk forwards performed *by this catalog*; warm loads and
        #: removals must not increment it.
        self.embed_calls = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        embedder: TableEmbedder,
        store: LakeStore,
        sbert: HashedSentenceEncoder | None = None,
    ) -> "LakeCatalog":
        """Warm-load: register every stored record without running the
        trunk.

        Shard-wise: every shard whose persisted index is *consistent with
        that shard's records* is deserialized and served as-is — zero
        per-column insertions. The rest (pre-upgrade stores, a dropped
        artifact, or an index renamed in by a write whose manifest flush
        never landed) are rebuilt from the records and persisted so the
        *next* open is warm — one torn shard artifact never forces a
        full-lake rebuild, and ``searcher.insertions`` counts exactly the
        rebuilt columns.
        """
        catalog = cls(embedder, sbert=sbert, store=store)
        records = list(store.load_all())
        index = store.load_index(catalog.dim)
        by_shard: dict[int, list[LakeTableRecord]] = defaultdict(list)
        for record in records:
            by_shard[store.shard_id(record.name)].append(record)
        rebuild = {
            shard_id
            for shard_id in range(store.n_shards)
            if shard_id not in index.restored_shards
            or not _index_matches_records(index.subs[shard_id], by_shard[shard_id])
        }
        for shard_id in rebuild:
            index.reset_shard(shard_id)
        catalog.searcher.adopt_index(index)
        for record in records:
            catalog.records[record.name] = record
        for shard_id in rebuild:
            for record in by_shard[shard_id]:
                catalog.searcher.add_table(
                    record.name, record.column_names, record.column_vectors
                )
        if rebuild:
            catalog._persist_index()
        return catalog

    # ------------------------------------------------------------------ #
    def _embed_sketches(
        self,
        sketches: list[TableSketch],
        batch_size: int | None = None,
    ) -> list[TableEmbeddings]:
        """Run the engine, charging its forwards to this catalog's counter.

        The charge is computed as ``ceil(N / batch_size)`` rather than by
        diffing the (possibly shared) engine counter: the service's query
        path deliberately embeds outside its lock, so concurrent callers
        must not see each other's forwards in ``embed_calls``. A forward
        that raises charges nothing.
        """
        if batch_size is None:
            batch_size = self.batch_size
        results = self.engine.embed_corpus(sketches, batch_size=batch_size)
        self.embed_calls += -(-len(sketches) // batch_size)
        return results

    def _build_record(
        self, table: Table, sketch: TableSketch, embeddings: TableEmbeddings
    ) -> LakeTableRecord:
        vectors = finalize_column_vectors(
            embeddings.columns, sketch, sbert=self.sbert, table=table
        )
        stacked = (
            np.stack([vector for _, vector in vectors])
            if vectors
            else np.zeros((0, self.dim))
        )
        return LakeTableRecord(
            sketch=sketch,
            column_vectors=stacked,
            table_embedding=embeddings.table,
            n_rows=table.n_rows,
        )

    def _compute_record(self, table: Table) -> LakeTableRecord:
        sketch = sketch_table(table, self.sketch_config, self._hasher)
        embeddings = self._embed_sketches([sketch])[0]
        return self._build_record(table, sketch, embeddings)

    def column_vector_pairs(
        self, table: Table, sketch: TableSketch
    ) -> list[tuple[str, np.ndarray]]:
        """Final index-ready column vectors (trunk ‖ optional SBERT half).

        Exactly the construction :class:`repro.core.searcher.TabSketchFMSearcher`
        applies, so lake answers match the one-shot pipeline bit-for-bit.
        One trunk forward (counted in ``embed_calls`` — the query path routes
        through here too, so cache effectiveness is observable).
        """
        return self.column_vector_pairs_many([table], [sketch])[0]

    def column_vector_pairs_many(
        self, tables: "list[Table]", sketches: "list[TableSketch]"
    ) -> list[list[tuple[str, np.ndarray]]]:
        """Index-ready column vectors for many query tables at once.

        One :meth:`EmbeddingEngine.embed_corpus` pass —
        ``ceil(len(tables) / batch_size)`` trunk forwards for the whole
        group instead of one forward per table. This is the primitive the
        service's ``query_batch`` rides so a batch of uncached external
        queries costs the same forwards a bulk ingest of them would.
        """
        if not tables:
            return []
        embeddings = self._embed_sketches(sketches)
        return [
            finalize_column_vectors(
                embedding.columns, sketch, sbert=self.sbert, table=table
            )
            for table, sketch, embedding in zip(tables, sketches, embeddings)
        ]

    def _register(self, record: LakeTableRecord, persist: bool = True) -> None:
        self.records[record.name] = record
        self.searcher.add_table(
            record.name, record.column_names, record.column_vectors
        )
        if persist and self.store is not None:
            self.store.save_table(record, self.searcher.index)

    def _persist_index(self) -> None:
        """Re-save the index apart from any table write — after a warm
        open rebuilt shards, or a refresh. (Table writes hand the store the
        live index instead, so its entry rides their one manifest flush.)

        The store rewrites only the dirty or out-of-step shards, which
        keeps this O(shard), not O(lake).
        """
        if self.store is not None:
            self.store.save_index(self.searcher.index, self.index_spec)

    # ------------------------------------------------------------------ #
    def add_table(self, table: Table) -> LakeTableRecord:
        """Sketch, embed, and index one new table (and persist it)."""
        if table.name in self.records:
            raise ValueError(
                f"table {table.name!r} already in catalog; use update_table"
            )
        with obs.span("lake.ingest", table=table.name) as ingest:
            record = self._compute_record(table)
            self._register(record)
        _TABLES_ADDED.inc()
        _INGEST_MS.observe(ingest.duration_ms)
        return record

    def add_tables(
        self,
        tables: dict[str, Table],
        batch_size: int | None = None,
    ) -> list[LakeTableRecord]:
        """Bulk add through the batch-first ingest pipeline.

        The whole delta is sketched in one batched pass (every distinct
        string hashed once; bit-identical to per-table sketching), embedded
        in ``ceil(N / batch_size)`` length-bucketed forwards, and written
        to the store with one manifest flush per touched shard, which also
        carries that shard's re-archived index — shards flush
        independently, so a crash loses at most one shard's unflushed
        tail. Every stage runs in the calling thread.

        Nothing is registered until every embedding has returned: a
        forward that raises leaves the catalog, the index and the store
        exactly as they were, and the same call can be retried.
        """
        for table in tables.values():
            if table.name in self.records:
                raise ValueError(
                    f"table {table.name!r} already in catalog; use update_table"
                )
        ordered = list(tables.values())
        with obs.span("lake.ingest", tables=len(ordered)) as ingest:
            sketches = sketch_corpus(ordered, self.sketch_config, self._hasher)
            embeddings = self._embed_sketches(sketches, batch_size=batch_size)
            records = []
            for table, sketch, embedding in zip(ordered, sketches, embeddings):
                record = self._build_record(table, sketch, embedding)
                self._register(record, persist=False)
                records.append(record)
            if self.store is not None:
                self.store.save_tables(records, self.searcher.index)
        if records:
            _TABLES_ADDED.inc(len(records))
            _INGEST_MS.observe(ingest.duration_ms)
        return records

    def remove_table(self, name: str) -> bool:
        """Drop one table from index, registry, and store."""
        record = self.records.pop(name, None)
        self.searcher.remove_table(name)
        if self.store is not None:
            self.store.remove_table(name, self.searcher.index)
        if record is not None:
            _TABLES_REMOVED.inc()
        return record is not None

    def update_table(self, table: Table) -> LakeTableRecord:
        """Replace one table's artifacts; only that table is re-embedded.

        The replacement is **staged**: the new record is fully computed
        (sketch + embed — the slow, failure-prone part) before anything is
        touched, then the in-memory swap happens, then the store writes it
        through :meth:`LakeStore.save_table`'s staged replace — the old
        archive is only unlinked after the manifest flush lands. A crash at
        any point leaves the table fully servable at either the old or the
        new version; there is no window where the lake has forgotten it.
        The data version bumps by one; metrics count one *update* (never a
        remove plus an add). Updating an unknown table is an add.
        """
        old = self.records.get(table.name)
        if old is None:
            return self.add_table(table)
        with obs.span("lake.update", table=table.name) as span:
            record = self._compute_record(table)
            record.version = old.version + 1
            self.searcher.remove_table(table.name)
            self.searcher.add_table(
                record.name, record.column_names, record.column_vectors
            )
            self.records[table.name] = record
            if self.store is not None:
                self.store.save_table(record, self.searcher.index)
        _TABLES_UPDATED.inc()
        _INGEST_MS.observe(span.duration_ms)
        return record

    def append_rows(self, name: str, rows) -> LakeTableRecord:
        """Merge ``rows`` into a stored table in O(delta) — no re-embed yet.

        Only the delta is sketched; its sketches merge into the stored ones
        (exact for the MinHash halves, accumulator-mergeable for the
        numeric stats — see :mod:`repro.sketch.numeric` for the caps and
        bounds). The served column vectors are *not* recomputed here: the
        record's ``version`` bumps, ``embedding_stale`` is set, and the
        next non-``allow_stale`` query (or an explicit
        :meth:`refresh_stale`) re-embeds just this table's columns.

        Each row must carry one string cell per column, in the stored
        column order; cell types are interpreted under the column types
        frozen at ingest. Raises ``KeyError`` for unknown tables and
        ``ValueError`` on SBERT-enabled catalogs (the value-encoder half
        needs the full raw column values, which the lake does not retain —
        use :meth:`update_table` with the complete table there).
        """
        record = self.records.get(name)
        if record is None:
            raise KeyError(f"table {name!r} not in catalog")
        rows = [list(row) for row in rows]
        if not rows:
            raise ValueError("append_rows needs at least one row")
        if self.sbert is not None:
            raise ValueError(
                "append_rows is unavailable on SBERT-enabled catalogs: the "
                "value-encoder half needs the full raw column values, which "
                "the lake does not retain; use update_table with the "
                "complete table instead"
            )
        sketch = record.sketch
        if any(c.numeric_acc is None for c in sketch.column_sketches):
            raise ValueError(
                f"table {name!r} was ingested before mergeable sketch state "
                "existed; update_table it once to enable appends"
            )
        with obs.span("lake.append", table=name, rows=len(rows)):
            delta = table_from_rows(
                name, sketch.column_names, rows, description=sketch.description
            )
            for column, stored in zip(delta.columns, sketch.column_sketches):
                column.ctype = stored.ctype  # column types frozen at ingest
            delta_sketch = sketch_table(delta, self.sketch_config, self._hasher)
            merged = LakeTableRecord(
                sketch=sketch.merge(delta_sketch),
                column_vectors=record.column_vectors,  # stale but servable
                table_embedding=record.table_embedding,
                n_rows=record.n_rows + len(rows),
                metadata=dict(record.metadata),
                version=record.version + 1,
                embedding_stale=True,
            )
            self.records[name] = merged
            if self.store is not None:
                # The index content didn't change, so the store only
                # re-stamps that shard's index entry in the same flush —
                # no index.npz is written.
                self.store.save_table(merged, self.searcher.index)
        _ROWS_APPENDED.inc(len(rows))
        return merged

    def stale_tables(self) -> list[str]:
        """Names whose served vectors predate their sketch (append lag)."""
        return [
            name
            for name, record in self.records.items()
            if record.embedding_stale
        ]

    def refresh_stale(
        self, names: "list[str] | None" = None, persist: bool = True
    ) -> list[str]:
        """Re-embed stale tables from their (already merged) sketches.

        One batched engine pass for all of them — ``ceil(N / batch_size)``
        forwards, so a single stale table costs exactly one forward. The
        data ``version`` does not change (re-embedding is not a data
        mutation); ``embedding_stale`` clears. ``persist=False`` refreshes
        in memory only — how replicas serve fresh vectors without writing
        into their read-only snapshot directory. Returns the refreshed
        names.
        """
        if names is None:
            names = self.stale_tables()
        else:
            names = [
                n
                for n in names
                if n in self.records and self.records[n].embedding_stale
            ]
        if not names:
            return []
        with obs.span("lake.refresh", tables=len(names)):
            embeddings = self._embed_sketches(
                [self.records[n].sketch for n in names]
            )
            refreshed = []
            for name, embedding in zip(names, embeddings):
                record = self.records[name]
                vectors = finalize_column_vectors(
                    embedding.columns, record.sketch, sbert=self.sbert, table=None
                )
                stacked = (
                    np.stack([vector for _, vector in vectors])
                    if vectors
                    else np.zeros((0, self.dim))
                )
                fresh = LakeTableRecord(
                    sketch=record.sketch,
                    column_vectors=stacked,
                    table_embedding=embedding.table,
                    n_rows=record.n_rows,
                    metadata=dict(record.metadata),
                    version=record.version,
                    embedding_stale=False,
                )
                self.records[name] = fresh
                self.searcher.remove_table(name)
                self.searcher.add_table(
                    name, fresh.column_names, fresh.column_vectors
                )
                refreshed.append(fresh)
            if persist and self.store is not None:
                self.store.save_tables(refreshed)
                self._persist_index()
        return names

    # ------------------------------------------------------------------ #
    def query_vectors(self, name: str) -> np.ndarray:
        """A catalog table's stored column vectors (for leave-one-out
        queries) — never re-embedded."""
        return self.records[name].column_vectors

    def table_names(self) -> list[str]:
        return list(self.records)

    def __contains__(self, name: str) -> bool:
        return name in self.records

    def __len__(self) -> int:
        return len(self.records)

    def stats(self) -> dict:
        return {
            "n_tables": len(self.records),
            "n_columns": sum(r.sketch.n_cols for r in self.records.values()),
            "n_rows": sum(r.n_rows for r in self.records.values()),
            "dim": self.dim,
            "embed_calls": self.embed_calls,
            "index_backend": self.index_spec.canonical(),
            "index_insertions": self.searcher.insertions,
            "batch_size": self.batch_size,
            "sbert": self.sbert is not None,
            "n_shards": self.n_shards,
            "stale_tables": len(self.stale_tables()),
            "max_version": max(
                (r.version for r in self.records.values()), default=0
            ),
        }

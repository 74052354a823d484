"""`LakeCatalog` — the mutable registry of an indexed lake.

Holds every table's :class:`LakeTableRecord` plus the live column index
(:class:`repro.search.tables.TableSearcher`), and keeps both in sync under
``add_table`` / ``remove_table`` / ``update_table``:

- an **add** sketches and embeds *only the new table* and appends its
  column rows to the index as one block (amortized O(cols) — no re-stack
  of the lake);
- a **bulk add** routes the whole delta through one batch-first pipeline
  in the calling thread, as batch arrays from end to end: ``sketch_batch``
  (every distinct string hashed once, each pass packed straight to member
  arrays), then one encode of those arrays and ``ceil(N / batch_size)``
  length-bucketed :class:`~repro.core.engine.EmbeddingEngine` forwards,
  then per-shard store writes (one manifest flush per touched shard), then
  one block write of the new tables' rows to the column table;
- an **update** or **refresh** replaces the table's block of index rows
  where it stands, so the index's rows stay in table insertion order;
- a **remove** drops the table's block, moving the rows behind it up in
  one block copy, and never touches the trunk;
- attached to a :class:`~repro.lake.store.LakeStore`, every mutation is
  persisted immediately — the table archives plus one manifest flush per
  touched shard — so the on-disk lake is always warm-loadable. The store
  write is the commit point: memory changes only once it has returned, so
  a write that raises (``ENOSPC``, ``EIO``) leaves the live catalog
  serving what the disk holds, and the same call can be retried. The
  index is never written: it is derived from the vectors those archives
  hold.

The column index is the catalog's one column table: each row holds a
column's vector and, beside it, its ``values_minhash`` signature and
``n_values``. Join and subset are served from those rows by ``joins``, a
:class:`~repro.search.containment.ContainmentIndex` built with the catalog
that keeps only slot postings over them. Every mutation is one block
write (:meth:`~repro.search.index.KnnIndex.write_block`), addressed by
table name: an add, update or refresh writes the table's rows, an append
rewrites them in place (its vectors stale, its signatures merged), and a
remove drops them. An append merges signatures exactly, so join and
subset see appended rows at once, with no re-embed.

A record holds its sketch packed (:class:`~repro.lake.store.LakeTableRecord`),
less what the column table holds: a served record reads each column's
vector, ``values_sig`` and ``n_values`` from its table's block, so they
live once. An ingest hands its :class:`~repro.sketch.pipeline.SketchBatch`
arrays and vectors to the store, which writes them as they are, and to
the column table, and its records keep row views of the other members; a
warm open copies each archive's three into the table as it reads it and
keeps views of the rest; an append merges its delta's arrays into the
block's signatures and sizes and rewrites the archive with the block's
stale vectors; and a refresh gathers its stale tables' members into one
batch for the encoder. A record the catalog stops serving, replaced or
removed, first copies out the rows it had. No write builds a sketch object
or packs or unpacks one. Serving, ``stats`` and the column table's writes
read the packed rows and the meta.

The column index is one exact :class:`~repro.search.index.KnnIndex` over
every column, whatever the store's shard count: shards partition the
archives and manifests on disk, not the index. Its rows are the tables'
columns in insertion order, so answers are bitwise-identical at every shard
count, which ``tests/lake/test_sharding.py`` asserts. ``index_spec`` is
what the store records for it (the spec a lake was written under, so its
manifests and fingerprint never change).

``embed_calls`` counts trunk *forwards* — the observable guarantee that a
1-table delta costs one forward, a batched ingest costs ``ceil(N/B)``, and
a warm load costs none. ``searcher.insertions`` is the analogous index-side
counter: a warm load assembles the index from the stored vectors in one
block copy and performs zero.

:class:`TabSketchFMSearcher` is the paper's search recipe over a storeless
catalog — the retrieval system behind Tables V–VIII — so the paper benches
build and rank exactly as the served lake does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.embed import TableEmbedder, served_vectors
from repro.core.engine import BatchEmbeddings
from repro.lake.serialization import merge_rows
from repro.lake.store import LakeStore, LakeTableRecord
from repro.search.backend import IndexSpec
from repro.search.containment import ContainmentIndex
from repro.search.retrieval import rank_names
from repro.search.tables import TableSearcher
from repro.sketch.pipeline import SketchBatch, TableSketch, sketch_batch
from repro.table.schema import Table
from repro.text.sbert import HashedSentenceEncoder

if TYPE_CHECKING:
    from repro.lakebench.base import SearchQuery

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
        #: Shard count of the attached store (what the ``shards`` request
        #: filter routes by). The column index is one index at any count:
        #: sharding is an on-disk persistence lever, not a semantics knob.
        self.n_shards = (
            n_shards if n_shards is not None else LakeStore.DEFAULT_SHARDS
        )
        self.searcher = TableSearcher(
            self.dim,
            metric=self.index_spec.params.get("metric", "cosine"),
            num_perm=self.sketch_config.num_perm,
        )
        #: What join and subset rank by: postings over the searcher's rows.
        self.joins = ContainmentIndex(self.searcher)
        #: Written only through :meth:`_put`, which keeps ``_stale`` in step.
        self.records: dict[str, LakeTableRecord] = {}
        #: Names of the records whose ``embedding_stale`` is set, so the
        #: strict-query check costs O(1) when nothing is stale.
        self._stale: set[str] = set()
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

        The column table is sized from the manifests and each archive's
        ``column_vectors``, ``values_sig`` and ``n_values`` are copied into
        it as the archive is read (:meth:`LakeStore.load_served`), in the
        row order the live index kept; the records are served from it —
        zero forwards, zero insertions, and nothing written, so a read-only
        snapshot opens as it is.
        """
        catalog = cls(embedder, sbert=sbert, store=store)
        index, records = store.load_served(catalog.dim, catalog.sketch_config.num_perm)
        catalog.searcher.adopt_index(index)
        for record in records:
            catalog._put(record.name, record)
        return catalog

    # ------------------------------------------------------------------ #
    def _embed_batch(self, batch: SketchBatch) -> BatchEmbeddings:
        """Run the engine, charging its forwards to this catalog's counter.

        The charge is computed as ``ceil(N / batch_size)`` rather than by
        diffing the (possibly shared) engine counter: the service's query
        path deliberately embeds outside its lock, so concurrent callers
        must not see each other's forwards in ``embed_calls``. A forward
        that raises charges nothing.
        """
        embedded = self.engine.embed_sketches(batch, batch_size=self.batch_size)
        self.embed_calls += -(-len(batch.names) // self.batch_size)
        return embedded

    def _served(
        self,
        embedded: BatchEmbeddings,
        batch: SketchBatch,
        tables: "list[Table] | None",
    ) -> np.ndarray:
        """Every column's served vector, a row per column in batch order:
        the trunk's rows as they are, or with each table's SBERT half
        (:func:`~repro.core.embed.served_vectors`, which needs ``tables``)."""
        if self.sbert is None:
            return embedded.columns
        parts = [
            served_vectors(embedding.columns, name, columns, self.sbert, table)
            for embedding, name, columns, table in zip(
                embedded.per_table(), batch.names, batch.columns,
                tables or [None] * len(batch.names),
            )
        ]
        return np.concatenate(parts) if parts else np.zeros((0, self.dim))

    def _embed_records(
        self, sources: "list[Table] | list[LakeTableRecord]"
    ) -> list[LakeTableRecord]:
        """Freshly embedded records, one per source; nothing is installed.

        New contents (:class:`Table` s) are sketched in one
        :func:`~repro.sketch.pipeline.sketch_batch` pass — every distinct
        string hashed once, bit-identical to per-table sketching — straight
        to batch arrays, and start at version 1: each record's members are
        read-only views of those arrays, and its vectors rows of the
        engine's. A refresh passes the stale records: their stored, already
        merged members are gathered into one batch and re-embedded, and
        their row count, members, metadata and version carry over (the
        SBERT half needs raw values, which only new contents have). Either
        way the engine encodes the batch's arrays once and runs
        ``ceil(N / batch_size)`` forwards; no sketch object is built.
        """
        refresh = bool(sources) and isinstance(sources[0], LakeTableRecord)
        if refresh:
            members = [r.members for r in sources]
            batch = SketchBatch.of_tables(
                self.sketch_config,
                [
                    (r.name, r.sketch_meta["description"], r.column_names)
                    for r in sources
                ],
                members,
            )
            carried = [
                {
                    "members": table_members,
                    "sketch_meta": r.sketch_meta,
                    "metadata": dict(r.metadata),
                    "version": r.version,
                }
                for r, table_members in zip(sources, members)
            ]
        else:
            batch = sketch_batch(sources, self.sketch_config, self._hasher)
            carried = [
                {"members": members, "sketch_meta": meta}
                for members, meta in zip(batch.table_members(), batch.metas())
            ]
        embedded = self._embed_batch(batch)
        vectors = self._served(embedded, batch, None if refresh else sources)
        return [
            LakeTableRecord(
                column_vectors=vectors[start : start + width],
                table_embedding=table_embedding,
                n_rows=source.n_rows,
                **fields,
            )
            for source, fields, table_embedding, start, width in zip(
                sources, carried, embedded.tables,
                embedded.starts.tolist(), embedded.widths.tolist(),
            )
        ]

    def column_vector_pairs(
        self, table: Table, sketch: TableSketch
    ) -> list[tuple[str, np.ndarray]]:
        """Final index-ready column vectors (trunk ‖ optional SBERT half)
        for an external query table.

        The same :func:`~repro.core.embed.served_vectors` construction
        every ingested record's vectors come from, so an external copy of a
        member ranks like the member. One trunk forward, counted in
        ``embed_calls``: a batch of one of :meth:`column_vector_pairs_many`,
        the service's query path, over the sketch's arrays.
        """
        return self.column_vector_pairs_many(
            [table], SketchBatch.of_sketches([sketch], self.sketch_config)
        )[0]

    def column_vector_pairs_many(
        self, tables: "list[Table]", batch: SketchBatch
    ) -> list[list[tuple[str, np.ndarray]]]:
        """Index-ready column vectors for many query tables at once, from
        their sketch arrays (:func:`~repro.sketch.pipeline.sketch_batch`).

        One :meth:`EmbeddingEngine.embed_sketches` pass —
        ``ceil(len(tables) / batch_size)`` trunk forwards for the whole
        group instead of one forward per table. This is the primitive the
        service's ``discover_batch`` rides so a batch of uncached external
        queries costs the same forwards a bulk ingest of them would.
        """
        if not tables:
            return []
        embedded = self._embed_batch(batch)
        vectors = self._served(embedded, batch, tables)
        return [
            list(zip(columns, vectors[start : start + len(columns)]))
            for columns, start in zip(batch.columns, embedded.starts.tolist())
        ]

    def _put(
        self, name: str, record: LakeTableRecord | None
    ) -> LakeTableRecord | None:
        """Set (``None``: drop) the record under ``name`` and keep the
        stale-name set in step; returns the record it replaced."""
        if record is None:
            old = self.records.pop(name, None)
        else:
            old = self.records.get(name)
            self.records[name] = record
        if record is not None and record.embedding_stale:
            self._stale.add(name)
        else:
            self._stale.discard(name)
        return old

    def _install(self, records: list[LakeTableRecord]) -> None:
        """Serve ``records``: each replaces any same-named record and its
        rows of the column table, in place; the tables the column table
        lacks go in after its last row, in one block write (persisting is
        the caller's). Each record then reads its vectors, signatures and
        sizes from its block and drops its own; a replaced record first
        copies out the rows it had."""
        fresh = []
        for record in records:
            replaced = self._put(record.name, record)
            if replaced is not None:
                replaced.release()
            if self.searcher.rows(record.name):
                join = record.join_rows()
                self.searcher.add_table(
                    record.name, record.column_names, record.column_vectors,
                    join.signatures, join.sizes,
                )
            else:
                fresh.append(record)
        if fresh:
            self.searcher.add_tables(
                [(record.name, record.column_names) for record in fresh],
                np.concatenate([record.column_vectors for record in fresh]),
                np.concatenate([record.members["values_sig"] for record in fresh]),
                np.concatenate([record.members["n_values"] for record in fresh]),
            )
        for record in records:
            record.serve_from(self.searcher.index)

    # ------------------------------------------------------------------ #
    def add_table(self, table: Table) -> LakeTableRecord:
        """Sketch, embed, and index one new table (and persist it): a bulk
        add of one."""
        return self.add_tables({table.name: table})[0]

    def add_tables(self, tables: dict[str, Table]) -> list[LakeTableRecord]:
        """Bulk add through the batch-first ingest pipeline.

        The whole delta is sketched to batch arrays in one pass (every
        distinct string hashed once; bit-identical to per-table
        sketching), embedded
        in ``ceil(N / batch_size)`` length-bucketed forwards, and written
        to the store with one manifest flush per touched shard — shards
        flush independently, so a crash loses at most one shard's unflushed
        tail. Every stage runs in the calling thread.

        The sketch batch's arrays and the engine's vectors go to the store
        and, in one block write of the new tables' rows, to the column
        table; each record then keeps read-only row views of the members
        the table does not hold, and none of the batch's vectors,
        signatures or sizes.
        Nothing is registered until every embedding has returned and the
        store has written the records: a forward or a store write that
        raises leaves the catalog and the index exactly as they were, and
        the same call can be retried.
        """
        for table in tables.values():
            if table.name in self.records:
                raise ValueError(
                    f"table {table.name!r} already in catalog; use update_table"
                )
        with obs.span("lake.ingest", tables=len(tables)) as ingest:
            records = self._embed_records(list(tables.values()))
            if self.store is not None:
                self.store.save_tables(records)
            self._install(records)
        if records:
            _TABLES_ADDED.inc(len(records))
            _INGEST_MS.observe(ingest.duration_ms)
        return records

    def remove_table(self, name: str) -> bool:
        """Drop one table from store, registry, and index."""
        if self.store is not None:
            self.store.remove_table(name)
        record = self._put(name, None)
        if record is not None:
            record.release()
            _TABLES_REMOVED.inc()
        self.searcher.remove_table(name)
        return record is not None

    def update_table(self, table: Table) -> LakeTableRecord:
        """Replace one table's artifacts; only that table is re-embedded.

        The replacement is **staged**: the new record is fully computed
        (sketch + embed — the slow, failure-prone part) before anything is
        touched, then the store writes it through
        :meth:`LakeStore.save_table`'s staged replace — the old archive is
        only unlinked after the manifest flush lands — then the in-memory
        swap happens. A store write that raises leaves memory at the old
        version, as the disk is. A crash at
        any point leaves the table fully servable at either the old or the
        new version; there is no window where the lake has forgotten it.
        The data version bumps by one; metrics count one *update* (never a
        remove plus an add). Updating an unknown table is an add.
        """
        old = self.records.get(table.name)
        if old is None:
            return self.add_table(table)
        with obs.span("lake.update", table=table.name) as span:
            record = self._embed_records([table])[0]
            record.version = old.version + 1
            if self.store is not None:
                self.store.save_table(record)
            self._install([record])
        _TABLES_UPDATED.inc()
        _INGEST_MS.observe(span.duration_ms)
        return record

    def append_rows(self, name: str, rows) -> LakeTableRecord:
        """Merge ``rows`` into a stored table in O(delta) — no re-embed yet.

        Only the delta is sketched, as arrays, and merged into the stored
        record's packed members (:func:`~repro.lake.serialization.merge_rows`:
        exact for the MinHash signatures, accumulator-mergeable for the
        numeric stats — see :mod:`repro.sketch.numeric` for the caps and
        bounds); no sketch object is built. The table's rows are rewritten
        in place, so join ranks by the merged signatures at once. The
        served column vectors are *not* recomputed here: the
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
        if "acc_scalars" not in record.members:
            raise ValueError(
                f"table {name!r} was ingested before mergeable sketch state "
                "existed; update_table it once to enable appends"
            )
        with obs.span("lake.append", table=name, rows=len(rows)):
            merged = LakeTableRecord(
                members=merge_rows(
                    record.members, rows, self.sketch_config, self._hasher
                ),
                sketch_meta=record.sketch_meta,
                column_vectors=record.column_vectors,  # stale but servable
                table_embedding=record.table_embedding,
                n_rows=record.n_rows + len(rows),
                metadata=dict(record.metadata),
                version=record.version + 1,
                embedding_stale=True,
            )
            if self.store is not None:
                self.store.save_table(merged)
            self._install([merged])
        _ROWS_APPENDED.inc(len(rows))
        return merged

    def stale_tables(self) -> list[str]:
        """Names whose served vectors predate their sketch (append lag), in
        ``records`` order. O(1) when nothing is stale — the strict-query
        check every ``discover`` makes."""
        if not self._stale:
            return []
        return [name for name in self.records if name in self._stale]

    def refresh_stale(
        self, names: "list[str] | None" = None, persist: bool = True
    ) -> list[str]:
        """Re-embed stale tables from their (already merged) sketches.

        Their stored members are gathered into one sketch batch and
        encoded as arrays; nothing is unpacked. One batched engine pass
        for all of them — ``ceil(N / batch_size)``
        forwards, so a single stale table costs exactly one forward. The
        data ``version`` does not change (re-embedding is not a data
        mutation); ``embedding_stale`` clears. ``persist=False`` refreshes
        in memory only — how replicas serve fresh vectors without writing
        into their read-only snapshot directory. Returns the refreshed
        names, each once, in the order first given.
        """
        if names is None:
            names = self.stale_tables()
        else:
            names = [n for n in dict.fromkeys(names) if n in self._stale]
        if not names:
            return []
        with obs.span("lake.refresh", tables=len(names)):
            refreshed = self._embed_records([self.records[n] for n in names])
            if persist and self.store is not None:
                self.store.save_tables(refreshed)
            self._install(refreshed)
        return names

    # ------------------------------------------------------------------ #
    def table_names(self) -> list[str]:
        return list(self.records)

    def __contains__(self, name: str) -> bool:
        return name in self.records

    def __len__(self) -> int:
        return len(self.records)

    def stats(self) -> dict:
        return {
            "n_tables": len(self.records),
            "n_columns": sum(len(r.column_names) for r in self.records.values()),
            "n_rows": sum(r.n_rows for r in self.records.values()),
            "dim": self.dim,
            "embed_calls": self.embed_calls,
            "index_backend": self.index_spec.canonical(),
            "index_insertions": self.searcher.insertions,
            "batch_size": self.batch_size,
            "sbert": self.sbert is not None,
            "n_shards": self.n_shards,
            "stale_tables": len(self._stale),
            "max_version": max(
                (r.version for r in self.records.values()), default=0
            ),
        }


class TabSketchFMSearcher:
    """The paper's column-embedding search (§IV-C) as a retrieval system
    over a benchmark's tables.

    A thin adapter over a storeless :class:`LakeCatalog`: the tables are
    ingested exactly as a lake ingests them — sketched with the trunk's own
    ``config.sketch``, embedded in ``ceil(N / batch_size)`` batched
    forwards, finalized with the optional SBERT value half (the
    TabSketchFM-SBERT variant) — and every query ranks its stored vectors
    through :meth:`repro.search.tables.TableSearcher.rank`, the call the
    lake service makes for union: closest column for join queries, Fig. 6
    NEARTABLES/RANK1/RANK2 for union and subset.
    """

    def __init__(
        self,
        embedder: TableEmbedder,
        tables: dict[str, Table],
        sbert: HashedSentenceEncoder | None = None,
        name: str | None = None,
    ):
        self.name = name or ("TabSketchFM-SBERT" if sbert else "TabSketchFM")
        self.catalog = LakeCatalog(embedder, sbert=sbert)
        self.catalog.add_tables(tables)

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        """Top-``k`` table names for a member query, itself excluded."""
        return rank_names(
            self.catalog.searcher, self.catalog.records[query.table].vector_pairs(),
            query, k,
        )

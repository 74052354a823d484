"""Search adapters: TabSketchFM (±SBERT) and fine-tuned baselines as
retrieval systems over the benchmarks of §IV-C.

- :class:`TabSketchFMSearcher` indexes column embeddings from a (fine-tuned)
  trunk and follows the paper's retrieval recipes: closest-column ranking for
  join queries, the Fig. 6 NEARTABLES/RANK1/RANK2 procedure for union and
  subset queries. With ``sbert=...`` it concatenates normalized frozen value
  embeddings per column (the TabSketchFM-SBERT variant).
- :class:`DualEncoderSearcher` plays the TaBERT-FT / TUTA-FT roles: frozen
  embeddings from a fine-tuned dual-encoder trunk. TUTA exposes only
  table-level embeddings ("we could not include TUTA [for join] as it does
  not provide column embeddings") — mirrored by ``table_level=True``.
"""

from __future__ import annotations

import numpy as np

from repro.core.embed import TableEmbedder, finalize_column_vectors
from repro.lakebench.base import SearchQuery
from repro.search.index import KnnIndex
from repro.search.tables import TableSearcher
from repro.sketch.pipeline import TableSketch
from repro.table.schema import Table
from repro.text.sbert import HashedSentenceEncoder


class TabSketchFMSearcher:
    """Column-embedding search with the paper's ranking procedures."""

    def __init__(
        self,
        embedder: TableEmbedder,
        tables: dict[str, Table],
        sketches: dict[str, TableSketch],
        sbert: HashedSentenceEncoder | None = None,
        name: str | None = None,
        precomputed: dict[str, list[tuple[str, np.ndarray]]] | None = None,
    ):
        """Index ``sketches`` for retrieval (exact KNN behind the Fig. 6
        ranking).

        The corpus build is batched: every sketch without precomputed
        vectors goes through one
        :meth:`repro.core.engine.EmbeddingEngine.embed_corpus` call —
        ``ceil(N / batch_size)`` trunk forwards instead of one (or more)
        per table.

        With ``precomputed`` (table -> ordered ``(column, vector)`` list, as
        produced by a warm :class:`repro.lake.store.LakeStore`), the given
        vectors are indexed as-is and the trunk is never run — the offline
        index / online query split the paper recommends for deployment.
        """
        self.embedder = embedder
        # Defensive copies: incremental add/remove must never mutate the
        # caller's corpus dicts.
        self.tables = dict(tables)
        self.sketches = dict(sketches)
        self.sbert = sbert
        self.name = name or ("TabSketchFM-SBERT" if sbert else "TabSketchFM")
        dim = embedder.dim + (sbert.dim if sbert else 0)
        self.searcher = TableSearcher(dim)
        self._column_vectors: dict[tuple[str, str], np.ndarray] = {}
        fresh = [
            table_name
            for table_name in self.sketches
            if precomputed is None or table_name not in precomputed
        ]
        embedded = (
            embedder.engine.embed_corpus([self.sketches[n] for n in fresh])
            if fresh
            else []
        )
        columns_by_name = {
            name_: result.columns for name_, result in zip(fresh, embedded)
        }
        for table_name, sketch in self.sketches.items():
            if table_name in columns_by_name:
                vectors = self._finalize_vectors(
                    table_name, sketch, columns_by_name[table_name]
                )
            else:
                vectors = precomputed[table_name]
            self._index_vectors(table_name, vectors)

    # ------------------------------------------------------------------ #
    def _index_vectors(
        self, table_name: str, vectors: list[tuple[str, np.ndarray]]
    ) -> None:
        self.searcher.add_table(
            table_name,
            [column_name for column_name, _ in vectors],
            [vector for _, vector in vectors],
        )
        for column_name, vector in vectors:
            self._column_vectors[(table_name, column_name)] = np.asarray(
                vector, dtype=np.float64
            )

    def add_table(
        self,
        table_name: str,
        table: Table | None,
        sketch: TableSketch,
        vectors: list[tuple[str, np.ndarray]] | None = None,
    ) -> None:
        """Incrementally (re-)index one table, embedding it unless
        ``vectors`` are supplied; no other table is touched.

        Vectors are computed *before* any removal so a replace-in-place
        either succeeds or leaves the old entry intact.
        """
        if table is not None:
            self.tables[table_name] = table
        if vectors is None:
            vectors = self._table_column_vectors(table_name, sketch)
        if table_name in self.sketches or self.searcher.has_table(table_name):
            kept_table = self.tables.get(table_name)
            self.remove_table(table_name)
            if kept_table is not None:
                self.tables[table_name] = kept_table
        self.sketches[table_name] = sketch
        self._index_vectors(table_name, vectors)

    def remove_table(self, table_name: str) -> None:
        """Incrementally drop one table from the index."""
        sketch = self.sketches.pop(table_name, None)
        self.tables.pop(table_name, None)
        if sketch is not None:
            for column_sketch in sketch.column_sketches:
                self._column_vectors.pop((table_name, column_sketch.name), None)
        self.searcher.remove_table(table_name)

    # ------------------------------------------------------------------ #
    def _finalize_vectors(
        self, table_name: str, sketch: TableSketch, embeddings: np.ndarray
    ) -> list[tuple[str, np.ndarray]]:
        """Attach the optional SBERT value half to trunk column embeddings."""
        # Raw cell values are only needed for the SBERT half; sketch-only
        # indexing works without the Table object (e.g. warm-store paths).
        table = self.tables.get(table_name) if self.sbert is not None else None
        if self.sbert is not None and table is None:
            raise ValueError(
                f"table {table_name!r} has no Table object but sbert is "
                "enabled; the SBERT half needs raw cell values — pass "
                "`table=` (or precomputed `vectors=`) when indexing"
            )
        return finalize_column_vectors(
            embeddings, sketch, sbert=self.sbert, table=table
        )

    def _table_column_vectors(
        self, table_name: str, sketch: TableSketch
    ) -> list[tuple[str, np.ndarray]]:
        return self._finalize_vectors(
            table_name, sketch, self.embedder.column_embeddings(sketch)
        )

    def _query_vectors(self, query: SearchQuery) -> np.ndarray:
        sketch = self.sketches[query.table]
        if query.column is not None:
            return self._column_vectors[(query.table, query.column)][None, :]
        return np.stack(
            [
                self._column_vectors[(query.table, cs.name)]
                for cs in sketch.column_sketches
            ]
        )

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        vectors = self._query_vectors(query)
        if query.column is not None:
            return self.searcher.search_by_column(
                vectors[0], k, exclude_table=query.table
            )
        return self.searcher.search_tables(vectors, k, exclude_table=query.table)


class DualEncoderSearcher:
    """TaBERT-FT / TUTA-FT style search over fine-tuned trunk embeddings."""

    def __init__(self, trainer, tables: dict[str, Table], name: str,
                 table_level: bool = False):
        # ``trainer`` is a DualEncoderTrainer whose model has been fitted.
        self.trainer = trainer
        self.tables = tables
        self.name = name
        self.table_level = table_level
        dim = trainer.model.trunk.dim
        if table_level:
            self.table_index = KnnIndex(dim)
            #: Memoized per-table query embeddings — the corpus build already
            #: paid for every member table, and `retrieve` must not recompute
            #: the same frozen embedding on every call.
            self._table_vectors: dict[str, np.ndarray] = {}
            for table_name, table in tables.items():
                vector = trainer.table_embedding(table)
                self._table_vectors[table_name] = vector
                self.table_index.add(table_name, vector)
        else:
            self.searcher = TableSearcher(dim)
            self._column_vectors: dict[tuple[str, str], np.ndarray] = {}
            for table_name, table in tables.items():
                for column in table.columns:
                    vector = trainer.column_embedding(table, column.name)
                    self.searcher.add_column(table_name, column.name, vector)
                    self._column_vectors[(table_name, column.name)] = vector

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        if self.table_level:
            vector = self._table_vectors.get(query.table)
            if vector is None:
                vector = self.trainer.table_embedding(self.tables[query.table])
                self._table_vectors[query.table] = vector
            hits = self.table_index.query(vector, k + 1)
            return [key for key, _ in hits if key != query.table][:k]
        if query.column is not None:
            vector = self._column_vectors[(query.table, query.column)]
            return self.searcher.search_by_column(vector, k, exclude_table=query.table)
        table = self.tables[query.table]
        vectors = np.stack(
            [self._column_vectors[(query.table, c.name)] for c in table.columns]
        )
        return self.searcher.search_tables(vectors, k, exclude_table=query.table)

"""Search adapter for the fine-tuned dual-encoder baselines of §IV-C.

:class:`DualEncoderSearcher` plays the TaBERT-FT / TUTA-FT roles: frozen
embeddings from a fine-tuned dual-encoder trunk. TUTA exposes only
table-level embeddings ("we could not include TUTA [for join] as it does
not provide column embeddings") — mirrored by ``table_level=True``. At
column level it ranks through
:meth:`repro.search.tables.TableSearcher.rank`, the paper's recipe the lake
serves; TabSketchFM's own searcher is
:class:`repro.lake.catalog.TabSketchFMSearcher`.
"""

from __future__ import annotations

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.index import KnnIndex
from repro.search.tables import TableSearcher
from repro.table.schema import Table


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
            #: table -> ordered ``(column, vector)`` pairs, the query form.
            self.column_pairs: dict[str, list[tuple[str, np.ndarray]]] = {}
            for table_name, table in tables.items():
                pairs = [
                    (column.name, trainer.column_embedding(table, column.name))
                    for column in table.columns
                ]
                self.column_pairs[table_name] = pairs
                self.searcher.add_table(
                    table_name, [c for c, _ in pairs], [v for _, v in pairs]
                )

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        if self.table_level:
            vector = self._table_vectors.get(query.table)
            if vector is None:
                vector = self.trainer.table_embedding(self.tables[query.table])
                self._table_vectors[query.table] = vector
            hits = self.table_index.query(vector, k + 1)
            return [key for key, _ in hits if key != query.table][:k]
        matches = self.searcher.rank(
            self.column_pairs[query.table],
            k,
            join=query.column is not None,
            column=query.column,
            exclude_table=query.table,
        )
        return [match.table for match in matches[:k]]

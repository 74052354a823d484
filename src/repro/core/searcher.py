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
from repro.search.retrieval import index_columns, rank_names
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
            #: table -> its embedding, the query form: every query names a
            #: member table, so `retrieve` never runs the trunk.
            self._table_vectors: dict[str, np.ndarray] = {}
            for table_name, table in tables.items():
                vector = trainer.table_embedding(table)
                self._table_vectors[table_name] = vector
                self.table_index.add(table_name, vector)
        else:
            self.searcher, self.column_pairs = index_columns(
                tables, dim,
                lambda table, column: trainer.column_embedding(table, column.name),
            )

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        if self.table_level:
            hits = self.table_index.query(self._table_vectors[query.table], k + 1)
            return [key for key, _ in hits if key != query.table][:k]
        return rank_names(self.searcher, self.column_pairs[query.table], query, k)

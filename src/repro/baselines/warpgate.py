"""WarpGate baseline (Cong et al., CIDR 2023) for join search.

WarpGate embeds each column by aggregating pre-trained (FastText) word
embeddings of its values and indexes the embeddings with SimHash LSH. The
frozen hashed encoder provides the word vectors; the SimHash index from
:mod:`repro.sketch.simhash` provides the LSH.
"""

from __future__ import annotations

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.retrieval import first_tables, query_column
from repro.sketch.simhash import SimHashIndex
from repro.table.schema import Column, Table
from repro.text.sbert import HashedSentenceEncoder


class WarpGateSearcher:
    """Word-embedding column vectors + SimHash LSH."""

    name = "WarpGate"

    def __init__(self, tables: dict[str, Table], dim: int = 128,
                 max_values: int = 50, bits: int = 12, num_tables: int = 6):
        self.tables = tables
        self.encoder = HashedSentenceEncoder(dim=dim)
        self.index = SimHashIndex(dim=dim, bits=bits, num_tables=num_tables)
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        self.max_values = max_values
        for name, table in tables.items():
            for column in table.columns:
                vector = self._column_vector(column)
                self.index.insert((name, column.name), vector)
                self._vectors[(name, column.name)] = vector

    def _column_vector(self, column: Column) -> np.ndarray:
        """Mean of word embeddings over a value sample (FastText role)."""
        words: list[str] = []
        for value in column.non_null_values()[: self.max_values]:
            words.extend(value.split())
        if not words:
            return np.zeros(self.encoder.dim)
        vectors = np.stack([self.encoder.encode_word(w) for w in words])
        mean = vectors.mean(axis=0)
        norm = np.linalg.norm(mean)
        return mean / norm if norm > 0 else mean

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        vector = self._vectors[(query.table, query_column(self.tables, query))]
        return first_tables(self.index.query(vector, k * 4 + 8), query, k)

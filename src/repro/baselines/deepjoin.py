"""DeepJoin baseline (Dong et al., VLDB 2023) for join search.

DeepJoin serializes a column — "column names, table names and column
statistics (max, min and average character length)" plus values — into text,
embeds it with a (pre-trained) language model and searches an HNSW index. We
reproduce the serialization faithfully, use the frozen hashed encoder as the
embedding model (its best non-finetuned variant used FastText), and an exact
KNN index in the HNSW role (recall 1.0 at our scale).
"""

from __future__ import annotations

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.index import KnnIndex
from repro.table.schema import Column, Table
from repro.text.sbert import HashedSentenceEncoder


def deepjoin_column_text(table: Table, column: Column, max_values: int = 40) -> str:
    """DeepJoin's column-to-text serialization."""
    values = column.non_null_values()
    lengths = [len(v) for v in values] or [0]
    stats = (
        f"max {max(lengths)} min {min(lengths)} "
        f"avg {sum(lengths) / max(1, len(lengths)):.1f}"
    )
    head = " ".join(values[:max_values])
    return f"{table.name} {column.name} {stats} {head}"


class DeepJoinSearcher:
    """Column-text embeddings + nearest-neighbour join search."""

    name = "DeepJoin"

    def __init__(self, tables: dict[str, Table], dim: int = 128):
        self.tables = tables
        self.encoder = HashedSentenceEncoder(dim=dim)
        self.index = KnnIndex(dim)
        self._vectors: dict[tuple[str, str], np.ndarray] = {}
        for name, table in tables.items():
            for column in table.columns:
                vector = self.encoder.encode(deepjoin_column_text(table, column))
                self.index.add((name, column.name), vector)
                self._vectors[(name, column.name)] = vector

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        table = self.tables[query.table]
        column_name = query.column or table.columns[0].name
        vector = self._vectors[(query.table, column_name)]
        hits = self.index.query(vector, k * 4 + 8)
        ranked: list[str] = []
        seen: set[str] = set()
        for (table_name, _column), _distance in hits:
            if table_name == query.table or table_name in seen:
                continue
            seen.add(table_name)
            ranked.append(table_name)
            if len(ranked) >= k:
                break
        return ranked

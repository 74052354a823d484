"""SBERT search baseline (§IV-C1).

"We include a very simple approach of concatenating the top 100 unique values
in a column into a single sentence and encoding it to produce a column
embedding." Retrieval then follows the Fig. 6 procedure for table-level tasks
and closest-column ranking for join queries, through
:meth:`repro.search.tables.TableSearcher.rank`. The frozen encoder is the
deterministic SBERT substitute from :mod:`repro.text.sbert`.
"""

from __future__ import annotations

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.retrieval import index_columns, rank_names
from repro.table.schema import Table
from repro.text.sbert import HashedSentenceEncoder


class SbertSearcher:
    """Frozen sentence-embedding column search."""

    name = "SBERT"

    def __init__(self, tables: dict[str, Table], dim: int = 128,
                 top_values: int = 100):
        self.tables = tables
        self.encoder = HashedSentenceEncoder(dim=dim)
        self.top_values = top_values
        self.searcher, self.column_pairs = index_columns(
            tables, dim,
            lambda _table, column: self.encoder.encode_column(column, top_values),
        )

    # ------------------------------------------------------------------ #
    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        return rank_names(self.searcher, self.column_pairs[query.table], query, k)

    # ------------------------------------------------------------------ #
    def table_embedding(self, table: Table, order_sensitive: bool = True) -> np.ndarray:
        """Row-wise whole-table embedding for the §IV-C3 shuffle probe.

        SBERT reads the table as one long sentence, so row/column *order*
        affects the embedding; ``order_sensitive=True`` reproduces that via
        the encoder's positional mixing.
        """
        encoder = HashedSentenceEncoder(dim=self.encoder.dim,
                                        positional=order_sensitive)
        parts = [" ".join(table.header)]
        for row in table.rows(limit=30):
            parts.append(" ".join(row))
        return encoder.encode(" ".join(parts))

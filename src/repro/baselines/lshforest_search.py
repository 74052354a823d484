"""LSH Forest join-search baseline (Table V).

Column MinHash signatures are indexed in an :class:`~repro.sketch.lsh.LshForest`;
a join query retrieves the top columns by estimated Jaccard and ranks their
tables by best column.
"""

from __future__ import annotations

from repro.lakebench.base import SearchQuery
from repro.search.retrieval import first_tables, query_column
from repro.sketch.lsh import LshForest
from repro.sketch.minhash import MinHasher
from repro.table.schema import Table


class LshForestSearcher:
    """MinHash LSH-Forest top-k join search."""

    name = "LSH-Forest"

    def __init__(self, tables: dict[str, Table], num_perm: int = 16,
                 num_trees: int = 4, seed: int = 1):
        self.tables = tables
        self.hasher = MinHasher(num_perm=num_perm, seed=seed)
        self.forest = LshForest(num_perm=num_perm, num_trees=num_trees)
        self._sketches = {}
        for name, table in tables.items():
            for column in table.columns:
                sketch = self.hasher.sketch(column.distinct_values())
                key = (name, column.name)
                self._sketches[key] = sketch
                self.forest.insert(key, sketch)

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        sketch = self._sketches[(query.table, query_column(self.tables, query))]
        return first_tables(self.forest.query(sketch, k * 4), query, k)

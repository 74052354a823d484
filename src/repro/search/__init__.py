"""Search substrate: the exact nearest-neighbour index behind one
`VectorIndex` protocol (sharded or not), the Figure-6 table ranking
algorithm, and retrieval metrics (mean F1 / P@k / R@k, F1-vs-k curves)."""

from repro.search.backend import (
    IndexSpec,
    ShardedIndex,
    VectorIndex,
    make_index,
    make_sharded_index,
    restore_index,
    stable_shard,
)
from repro.search.index import KnnIndex
from repro.search.tables import ColumnEntry, TableSearcher
from repro.search.metrics import (
    SearchResult,
    evaluate_search,
    f1_at_k,
    precision_recall_at_k,
)

__all__ = [
    "IndexSpec",
    "ShardedIndex",
    "VectorIndex",
    "make_index",
    "make_sharded_index",
    "restore_index",
    "stable_shard",
    "KnnIndex",
    "ColumnEntry",
    "TableSearcher",
    "SearchResult",
    "evaluate_search",
    "f1_at_k",
    "precision_recall_at_k",
]

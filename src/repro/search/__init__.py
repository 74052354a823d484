"""Search substrate: the exact nearest-neighbour index behind one
`VectorIndex` protocol (sharded or not), the Figure-6 table ranking
algorithm, the exact containment scan that serves join and subset, the
ranking tail the paper's searchers share, and retrieval metrics (mean F1 /
P@k / R@k, F1-vs-k curves)."""

from repro.search.backend import (
    IndexSpec,
    ShardedIndex,
    VectorIndex,
    make_index,
    make_sharded_index,
    stable_shard,
)
from repro.search.containment import (
    ContainmentIndex,
    ContainmentMatch,
    JoinRows,
    SubsetMatch,
    join_rows,
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
    "stable_shard",
    "ContainmentIndex",
    "ContainmentMatch",
    "JoinRows",
    "SubsetMatch",
    "join_rows",
    "KnnIndex",
    "ColumnEntry",
    "TableSearcher",
    "SearchResult",
    "evaluate_search",
    "f1_at_k",
    "precision_recall_at_k",
]

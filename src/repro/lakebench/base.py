"""Dataset containers shared by all LakeBench builders."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.finetune import TaskType
from repro.table.schema import Table


@dataclass(frozen=True)
class TablePair:
    """A labelled pair of table names.

    ``label`` is an int for binary tasks, a float for regression, or a list
    of floats (multi-hot) for multi-label classification.
    """

    first: str
    second: str
    label: object


@dataclass
class TablePairDataset:
    """One LakeBench fine-tuning dataset with train/test/valid splits."""

    name: str
    task: TaskType
    tables: dict[str, Table]
    train: list[TablePair]
    test: list[TablePair]
    valid: list[TablePair]
    #: Output width of the fine-tuning head (2 for binary, 1 for regression).
    num_outputs: int = 2

    def stats(self) -> dict:
        """Table-I style statistics: cardinality, shape, dtype distribution."""
        tables = list(self.tables.values())
        n_tables = len(tables)
        avg_rows = sum(t.n_rows for t in tables) / max(1, n_tables)
        avg_cols = sum(t.n_cols for t in tables) / max(1, n_tables)
        type_counts: Counter[str] = Counter()
        total_cols = 0
        for table in tables:
            for column in table.columns:
                type_counts[column.inferred_type.name.lower()] += 1
                total_cols += 1
        distribution = {
            kind: 100.0 * type_counts.get(kind, 0) / max(1, total_cols)
            for kind in ("string", "integer", "float", "date")
        }
        return {
            "name": self.name,
            "task": self.task.value,
            "n_tables": n_tables,
            "avg_rows": round(avg_rows, 2),
            "avg_cols": round(avg_cols, 2),
            "n_train": len(self.train),
            "n_test": len(self.test),
            "n_valid": len(self.valid),
            "dtype_pct": {k: round(v, 2) for k, v in distribution.items()},
        }


@dataclass(frozen=True)
class SearchQuery:
    """A search query: a table, optionally a marked query column (joins)."""

    table: str
    column: str | None = None

    @property
    def key(self) -> str:
        return self.table if self.column is None else f"{self.table}::{self.column}"


@dataclass
class SearchBenchmark:
    """A retrieval benchmark: corpus + queries + relevance sets."""

    name: str
    kind: str  # "join" | "union" | "subset"
    tables: dict[str, Table]
    queries: list[SearchQuery]
    #: query.key -> set of relevant table names.
    ground_truth: dict[str, set[str]] = field(default_factory=dict)

    def relevant(self, query: SearchQuery) -> set[str]:
        return self.ground_truth.get(query.key, set())

    def stats(self) -> dict:
        tables = list(self.tables.values())
        type_counts: Counter[str] = Counter()
        total_cols = 0
        for table in tables:
            for column in table.columns:
                type_counts[column.inferred_type.name.lower()] += 1
                total_cols += 1
        return {
            "name": self.name,
            "kind": self.kind,
            "n_tables": len(tables),
            "n_queries": len(self.queries),
            "avg_rows": round(sum(t.n_rows for t in tables) / max(1, len(tables)), 2),
            "avg_cols": round(sum(t.n_cols for t in tables) / max(1, len(tables)), 2),
            "dtype_pct": {
                kind: round(100.0 * type_counts.get(kind, 0) / max(1, total_cols), 2)
                for kind in ("string", "integer", "float", "date")
            },
        }


def split_pairs(
    pairs: list[TablePair], train_frac: float = 0.7, test_frac: float = 0.15,
) -> tuple[list[TablePair], list[TablePair], list[TablePair]]:
    """Deterministic train/test/valid split preserving the input order.

    Callers shuffle with their own seeded RNG before splitting, so the split
    itself stays a pure function.
    """
    n = len(pairs)
    n_train = int(round(n * train_frac))
    n_test = int(round(n * test_frac))
    return (
        pairs[:n_train],
        pairs[n_train : n_train + n_test],
        pairs[n_train + n_test :],
    )

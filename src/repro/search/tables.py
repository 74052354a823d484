"""The paper's table-ranking algorithm over column embeddings (Fig. 6).

Definitions (verbatim from the figure, adapted to code):

- ``KNNSEARCH(c, k)`` — the ``k * 3`` nearest columns of column ``c``
  ("we try to get a lot more columns than k ... because multiple columns
  from a single table might match a given column").
- ``COLUMNNEARTABLES(c, k)`` — for each table appearing among those
  columns, the distance of its *closest* matching column.
- ``NEARTABLES(t, k)`` — the union of ``COLUMNNEARTABLES`` over all of
  ``t``'s columns, gathering per-table matched-column lists.
- ``RANK1`` — prefer tables matching the *largest number* of query columns;
- ``RANK2`` — tie-break by the *smallest sum* of column distances.

KNNSEARCH is exact (:class:`repro.search.index.KnnIndex`, sharded by table
name), and ``NEARTABLES`` runs on the batched ``query_many`` — one index
call for all of a query table's columns instead of one Python round-trip
per column.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.search.backend import (
    IndexSpec,
    VectorIndex,
    make_sharded_index,
    stable_shard,
)


@dataclass(frozen=True)
class ColumnEntry:
    """Identifies one indexed column."""

    table: str
    column: str


@dataclass(frozen=True)
class TableMatch:
    """One scored table hit with its per-column evidence.

    The scored twin of the bare table-name results: ``matches`` records,
    for every query column that matched this table, the closest indexed
    column and its distance — ``(query_column, table_column, distance)``
    triples in query-column order. ``n_matched`` is RANK1's matched-column
    count, ``distance_sum`` RANK2's tie-break sum; for single-column join
    results both collapse to the one best pair. Nothing here is lossy: the
    name-only methods (``near_tables`` / ``search_tables``) are thin
    projections of this shape, so scores propagate up to the Discovery API
    instead of being dropped.
    """

    table: str
    n_matched: int
    distance_sum: float
    matches: tuple[tuple[str, str, float], ...] = ()

    @property
    def best_distance(self) -> float:
        return min(
            (distance for _, _, distance in self.matches),
            default=self.distance_sum,
        )


class TableSearcher:
    """Column-embedding index + the Fig. 6 ranking procedure."""

    def __init__(
        self,
        dim: int,
        metric: str = "cosine",
        candidate_factor: int = 3,
        n_shards: int = 1,
    ):
        self.dim = dim
        self.backend_spec = IndexSpec(params={"metric": metric})
        self.n_shards = n_shards
        # Hash-partitioned column index: a table's columns co-locate
        # (routed by table name), queries fan + merge across shards with
        # shard-count-invariant rankings. One shard is the same face over
        # one sub-index, whose answer passes straight through.
        self.index: VectorIndex = make_sharded_index(
            self.backend_spec,
            dim,
            n_shards,
            router=lambda entry: stable_shard(entry.table, n_shards),
        )
        self.candidate_factor = candidate_factor
        self._columns_by_table: dict[str, list[ColumnEntry]] = defaultdict(list)
        #: Rows inserted through this searcher — a warm restore via
        #: :meth:`adopt_index` performs none, which the lake benches assert.
        self.insertions = 0

    # ------------------------------------------------------------------ #
    def adopt_index(self, index: VectorIndex) -> None:
        """Serve a prebuilt (e.g. persisted-and-restored) index as-is.

        Rebuilds the per-table bookkeeping from the index's own key list —
        zero insertions, so a warm lake open costs index *deserialization*
        only, never reconstruction.
        """
        if index.dim != self.dim:
            raise ValueError(
                f"index dim {index.dim} != searcher dim {self.dim}"
            )
        self.index = index
        self._columns_by_table = defaultdict(list)
        for entry in index.keys():
            self._columns_by_table[entry.table].append(entry)

    # ------------------------------------------------------------------ #
    def add_column(self, table: str, column: str, vector: np.ndarray) -> None:
        entry = ColumnEntry(table, column)
        self.index.add(entry, vector)
        self._columns_by_table[table].append(entry)
        self.insertions += 1

    def add_table(self, table: str, column_names: list[str], vectors: np.ndarray) -> None:
        """Index all of a table's columns in one bulk append."""
        entries = [ColumnEntry(table, name) for name in column_names]
        self.index.add_many(
            [
                (entry, np.asarray(vector, dtype=np.float64))
                for entry, vector in zip(entries, vectors)
            ]
        )
        self._columns_by_table[table].extend(entries)
        self.insertions += len(entries)

    def remove_table(self, table: str) -> int:
        """Drop every indexed column of ``table``; returns columns removed.

        One batch removal against the index — the incremental-delete
        primitive for :class:`repro.lake.catalog.LakeCatalog`.
        """
        entries = self._columns_by_table.pop(table, [])
        if not entries:
            return 0
        return self.index.remove_many(entries)

    def has_table(self, table: str) -> bool:
        return table in self._columns_by_table

    def table_names(self) -> list[str]:
        return list(self._columns_by_table)

    @property
    def n_tables(self) -> int:
        return len(self._columns_by_table)

    # ------------------------------------------------------------------ #
    def knn_columns(
        self, vector: np.ndarray, k: int, exclude_table: str | None = None
    ) -> list[tuple[ColumnEntry, float]]:
        """KNNSEARCH: the ``k * candidate_factor`` nearest columns."""
        want = k * self.candidate_factor
        raw = self.index.query(
            np.asarray(vector, dtype=np.float64),
            want + self._excluded_count(exclude_table),
        )
        out = [
            (entry, distance)
            for entry, distance in raw
            if exclude_table is None or entry.table != exclude_table
        ]
        return out[:want]

    def _excluded_count(self, exclude_table: str | None) -> int:
        """Over-fetch allowance to survive the exclude filter. (.get, not
        [], so the defaultdict is never polluted with an empty entry.)"""
        if exclude_table is None:
            return 0
        return len(self._columns_by_table.get(exclude_table, ()))

    def column_near_entries_many(
        self,
        vectors: np.ndarray,
        k: int,
        exclude_table: str | None = None,
    ) -> list[dict[str, tuple[ColumnEntry, float]]]:
        """Batched COLUMNNEARTABLES, evidence-preserving: one ``query_many``
        call answers every query column, then each row reduces to
        table -> (closest column entry, distance) — the *which column
        matched* information the scored API surfaces as join evidence."""
        matrix = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        want = k * self.candidate_factor
        batched = self.index.query_many(
            matrix, want + self._excluded_count(exclude_table)
        )
        results: list[dict[str, tuple[ColumnEntry, float]]] = []
        for hits in batched:
            nearest: dict[str, tuple[ColumnEntry, float]] = {}
            kept = 0
            for entry, distance in hits:
                if exclude_table is not None and entry.table == exclude_table:
                    continue
                if kept >= want:
                    break
                kept += 1
                known = nearest.get(entry.table)
                if known is None or distance < known[1]:
                    nearest[entry.table] = (entry, distance)
            results.append(nearest)
        return results

    def column_near_tables_many(
        self,
        vectors: np.ndarray,
        k: int,
        exclude_table: str | None = None,
    ) -> list[dict[str, float]]:
        """Batched COLUMNNEARTABLES: table -> closest-column distance per
        query row (the entry-stripped view of
        :meth:`column_near_entries_many`)."""
        return [
            {table: distance for table, (_, distance) in nearest.items()}
            for nearest in self.column_near_entries_many(vectors, k, exclude_table)
        ]

    def column_near_tables(
        self, vector: np.ndarray, k: int, exclude_table: str | None = None
    ) -> dict[str, float]:
        """COLUMNNEARTABLES: table -> distance of its closest column."""
        return self.column_near_tables_many(
            np.asarray(vector, dtype=np.float64)[None, :], k, exclude_table
        )[0]

    def near_tables_scored(
        self,
        named_vectors: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """NEARTABLES + RANK1/RANK2 with per-column match evidence.

        ``named_vectors`` pairs each query column's *name* with its vector
        so every hit records which query column matched which indexed
        column at what distance. Sorted by the paper's two-stage rank:
        most matched columns first, then smallest summed distance. All
        column lookups ride one batched :meth:`column_near_entries_many`
        call.
        """
        matrix = np.stack([vector for _, vector in named_vectors])
        per_column = self.column_near_entries_many(matrix, k, exclude_table)
        evidence: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
        for (query_column, _), nearest in zip(named_vectors, per_column):
            for table, (entry, distance) in nearest.items():
                evidence[table].append((query_column, entry.column, float(distance)))
        ranked = [
            TableMatch(
                table=table,
                n_matched=len(matches),
                distance_sum=float(sum(d for _, _, d in matches)),
                matches=tuple(matches),
            )
            for table, matches in evidence.items()
        ]
        ranked.sort(key=lambda match: (-match.n_matched, match.distance_sum))
        return ranked

    def near_tables(
        self,
        query_vectors: np.ndarray,
        k: int,
        exclude_table: str | None = None,
    ) -> list[tuple[str, int, float]]:
        """NEARTABLES + RANK1/RANK2 over a query table's column vectors.

        Returns ``(table, n_matched_columns, distance_sum)`` — the
        evidence-stripped projection of :meth:`near_tables_scored`, so the
        two can never rank differently.
        """
        matrix = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        named = [(str(i), row) for i, row in enumerate(matrix)]
        return [
            (match.table, match.n_matched, match.distance_sum)
            for match in self.near_tables_scored(named, k, exclude_table)
        ]

    def search_tables_scored(
        self,
        named_vectors: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """Top-``k`` scored hits (with evidence) under the Fig. 6 ranking."""
        return self.near_tables_scored(named_vectors, k, exclude_table)[:k]

    def search_tables(
        self, query_vectors: np.ndarray, k: int, exclude_table: str | None = None
    ) -> list[str]:
        """Top-``k`` table names under the Fig. 6 ranking."""
        return [t for t, _, _ in self.near_tables(query_vectors, k, exclude_table)][:k]

    def join_tables_scored(
        self,
        named_vectors: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """Scored join search over one or more query columns.

        Each table is scored by its single closest column across *all* the
        query columns (the paper's join ranking, generalized to every-column
        queries); the evidence is that one best
        ``(query_column, table_column, distance)`` pair. Ascending by best
        distance over the whole ``k * candidate_factor`` candidate pool —
        untruncated, so callers can post-filter without starving their
        top-k.
        """
        matrix = np.stack([vector for _, vector in named_vectors])
        per_column = self.column_near_entries_many(matrix, k, exclude_table)
        best: dict[str, tuple[str, str, float]] = {}
        for (query_column, _), nearest in zip(named_vectors, per_column):
            for table, (entry, distance) in nearest.items():
                known = best.get(table)
                if known is None or distance < known[2]:
                    best[table] = (query_column, entry.column, float(distance))
        ranked = [
            TableMatch(
                table=table,
                n_matched=1,
                distance_sum=match[2],
                matches=(match,),
            )
            for table, match in best.items()
        ]
        ranked.sort(key=lambda match: match.distance_sum)
        return ranked

    def search_by_column(
        self, query_vector: np.ndarray, k: int, exclude_table: str | None = None
    ) -> list[str]:
        """Join-style search: rank tables by their closest single column."""
        nearest = self.column_near_tables(query_vector, k, exclude_table)
        ranked = sorted(nearest.items(), key=lambda item: item[1])
        return [table for table, _ in ranked[:k]]

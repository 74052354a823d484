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

:meth:`TableSearcher.rank` is the one scored entry point: the lake service
and every paper-bench searcher (TabSketchFM ±SBERT, SBERT, the dual-encoder
column adapters) rank through it, so a change to the ranking is one change
measured everywhere.
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

#: KNNSEARCH over-fetches ``k * CANDIDATE_FACTOR`` columns per query column.
CANDIDATE_FACTOR = 3


@dataclass(frozen=True)
class ColumnEntry:
    """Identifies one indexed column."""

    table: str
    column: str


@dataclass(frozen=True)
class TableMatch:
    """One scored table hit with its per-column evidence.

    ``matches`` records, for every query column that matched this table,
    the closest indexed column and its distance — ``(query_column,
    table_column, distance)`` triples in query-column order. ``n_matched``
    is RANK1's matched-column count, ``distance_sum`` RANK2's tie-break
    sum; for join results both collapse to the one best pair. Callers that
    want table names project them (``match.table``); the lake service
    turns the rest into scored :class:`~repro.lake.api.Hit` s.
    """

    table: str
    n_matched: int
    distance_sum: float
    matches: tuple[tuple[str, str, float], ...] = ()


class TableSearcher:
    """Column-embedding index + the Fig. 6 ranking procedure."""

    #: Read-only mirror of :data:`CANDIDATE_FACTOR` (the e2e benchmark's
    #: replay sizes its standalone ``query_many`` from it).
    candidate_factor = CANDIDATE_FACTOR

    def __init__(self, dim: int, metric: str = "cosine", n_shards: int = 1):
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

    def table_names(self) -> list[str]:
        return list(self._columns_by_table)

    @property
    def n_tables(self) -> int:
        return len(self._columns_by_table)

    # ------------------------------------------------------------------ #
    def rank(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        *,
        join: bool = False,
        column: str | None = None,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """Rank tables for a query given as ordered ``(column, vector)``
        pairs.

        ``join`` ranks every table by its single closest column (the
        paper's join recipe); otherwise tables rank by NEARTABLES +
        RANK1/RANK2 over all the query's columns (union and subset).
        ``column`` narrows the query to that one column and raises
        ``KeyError`` when the query has no such column. ``exclude_table``
        (the query's own name, leave-one-out) never appears in the answer.

        Untruncated: every table in the ``k * CANDIDATE_FACTOR`` candidate
        pool comes back, so callers can post-filter without starving their
        top-``k``; take ``[:k]`` for the paper's answer.
        """
        if not pairs:
            return []
        if column is not None:
            by_name = dict(pairs)
            if column not in by_name:
                raise KeyError(f"query table has no column {column!r}")
            pairs = [(column, by_name[column])]
        if join:
            return self.join_tables_scored(pairs, k, exclude_table)
        return self.near_tables_scored(pairs, k, exclude_table)

    def _nearest_per_table(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None,
    ) -> list[dict[str, tuple[ColumnEntry, float]]]:
        """Batched KNNSEARCH + COLUMNNEARTABLES: one ``query_many`` call
        answers every query column, then each row reduces to table ->
        (closest column entry, distance) — the *which column matched*
        evidence both rankings keep."""
        matrix = np.stack([vector for _, vector in pairs]).astype(
            np.float64, copy=False
        )
        want = k * CANDIDATE_FACTOR
        # Over-fetch by the excluded table's own columns so the filter
        # below cannot starve the pool (.get: never add an empty entry).
        excluded = (
            len(self._columns_by_table.get(exclude_table, ()))
            if exclude_table is not None
            else 0
        )
        results: list[dict[str, tuple[ColumnEntry, float]]] = []
        for hits in self.index.query_many(matrix, want + excluded):
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

    def near_tables_scored(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """:meth:`rank`'s union/subset half: NEARTABLES + RANK1/RANK2.

        Every hit records which query column matched which indexed column
        at what distance. Sorted by the paper's two-stage rank: most
        matched columns first, then smallest summed distance.
        """
        evidence: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
        for (query_column, _), nearest in zip(
            pairs, self._nearest_per_table(pairs, k, exclude_table)
        ):
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

    def join_tables_scored(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> list[TableMatch]:
        """:meth:`rank`'s join half: closest column over one or more query
        columns.

        Each table is scored by its single closest column across *all* the
        query columns (the paper's join ranking, generalized to every-column
        queries); the evidence is that one best
        ``(query_column, table_column, distance)`` pair. Ascending by best
        distance.
        """
        best: dict[str, tuple[str, str, float]] = {}
        for (query_column, _), nearest in zip(
            pairs, self._nearest_per_table(pairs, k, exclude_table)
        ):
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

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

KNNSEARCH is exact: one :class:`repro.search.index.KnnIndex` over every
column, whatever the lake's shard count. The searcher writes each table as
one block of that index (:meth:`~repro.search.index.KnnIndex.write_block`),
so the index's block map is the one map from a table to its rows: adds,
removes, :meth:`TableSearcher.rows`, the table list and the excluded
table's over-fetch all read it. The ranking runs on the index's
top-k *arrays*: one :meth:`~repro.search.index.KnnIndex.top_k` call
answers all of a query table's columns, then one pass per query column
reads its candidates in ascending distance — a table's first hit is its
closest — keeping each table's evidence and a running distance sum, and one
sort orders the tables. No ``(key, distance)`` tuple is built per
candidate.

:meth:`TableSearcher.rank` is the one scored entry point: the lake
service's union (its join and subset rank by containment,
:mod:`repro.search.containment`) and every paper-bench searcher
(TabSketchFM ±SBERT, SBERT, the dual-encoder column adapters) rank through
it, so a change to the ranking is one change measured everywhere. It
returns a :class:`RankedTables`: every table of the candidate pool,
untruncated, with each :class:`TableMatch` built only when it is read.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.search.backend import IndexSpec, make_index
from repro.search.index import KnnIndex

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
    #: replay sizes a standalone ``query_many`` from it).
    candidate_factor = CANDIDATE_FACTOR

    def __init__(self, dim: int, metric: str = "cosine", num_perm: int = 0):
        self.dim = dim
        self.backend_spec = IndexSpec(params={"metric": metric})
        self.index: KnnIndex = make_index(self.backend_spec, dim, num_perm)
        #: Rows inserted through this searcher — a warm restore via
        #: :meth:`adopt_index` performs none, which the lake benches assert.
        self.insertions = 0

    # ------------------------------------------------------------------ #
    def adopt_index(self, index: KnnIndex) -> None:
        """Serve a prebuilt index (a warm lake's, assembled from its stored
        vectors) as-is.

        The index holds its own table -> rows map, so adopting it costs
        zero insertions and no per-row or per-table bookkeeping.
        """
        if (index.dim, index.num_perm) != (self.dim, self.index.num_perm):
            raise ValueError(
                f"index dim {index.dim} / num_perm {index.num_perm} != "
                f"searcher dim {self.dim} / num_perm {self.index.num_perm}"
            )
        self.index = index

    # ------------------------------------------------------------------ #
    def add_table(
        self, table: str, column_names: list[str], vectors: np.ndarray,
        signatures: np.ndarray | None = None, sizes: np.ndarray | None = None,
    ) -> None:
        """Index all of a table's columns as one block write
        (:meth:`~repro.search.index.KnnIndex.write_block`): their vectors,
        and on an index with signature slots their values signatures
        (``uint64[n_cols, num_perm]``) and sizes.

        A table already indexed has its rows replaced where they stand, so
        the rows stay in the order their tables were first added —
        the order :meth:`repro.lake.store.LakeStore.load_index` assembles a
        stored lake in, which is what makes a warm open equal the live
        index row for row (exact distance ties break by row order). A
        table's rows are therefore contiguous and in column order
        (:meth:`rows`).
        """
        self.index.write_block(
            table,
            [
                (ColumnEntry(table, name), np.asarray(vector, dtype=np.float64))
                for name, vector in zip(column_names, vectors)
            ],
            signatures,
            sizes,
        )
        self.insertions += len(column_names)

    def add_tables(
        self, tables: Sequence[tuple[str, list[str]]], vectors: np.ndarray,
        signatures: np.ndarray | None = None, sizes: np.ndarray | None = None,
    ) -> None:
        """Index new tables' columns in one block write
        (:meth:`~repro.search.index.KnnIndex.append_blocks`): ``tables``
        are ``(table, column_names)`` pairs, none indexed yet, and
        ``vectors`` / ``signatures`` / ``sizes`` hold their columns' rows
        in that order. The rows stand as :meth:`add_table` of each table in
        turn leaves them."""
        keys = [ColumnEntry(table, name) for table, names in tables for name in names]
        self.index.append_blocks(
            [(table, len(names)) for table, names in tables],
            keys, vectors, signatures, sizes,
        )
        self.insertions += len(keys)

    def remove_table(self, table: str) -> int:
        """Drop every indexed column of ``table``; returns columns removed.

        An empty block write — the incremental-delete primitive for
        :class:`repro.lake.catalog.LakeCatalog`.
        """
        return self.index.write_block(table, ())

    def rows(self, table: str | None) -> range:
        """``table``'s rows of the index, in column order (empty when it
        has none)."""
        return self.index.block_rows(table)

    def table_names(self) -> list[str]:
        return list(self.index.blocks)

    @property
    def n_tables(self) -> int:
        return len(self.index.blocks)

    # ------------------------------------------------------------------ #
    def rank(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        *,
        join: bool = False,
        column: str | None = None,
        exclude_table: str | None = None,
    ) -> "RankedTables":
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
        top-``k``; take ``[:k]`` for the paper's answer. The answer is a
        :class:`RankedTables`, which builds each :class:`TableMatch` when
        it is read, so the tail a caller never reads costs no objects.

        One :meth:`KnnIndex.top_k` call answers every query column.
        Each column's candidates arrive ascending, so the first hit of a
        table is its closest (the earlier on a tie); keys are read up to
        the column's cut and not for the over-fetched tail past it. A
        union table's distance sum runs in query-column order, so it is
        bitwise ``sum`` over its evidence.
        """
        if not pairs:
            return RankedTables([])
        if column is not None:
            by_name = dict(pairs)
            if column not in by_name:
                raise KeyError(f"query table has no column {column!r}")
            pairs = [(column, by_name[column])]
        matrix = np.stack([vector for _, vector in pairs]).astype(
            np.float64, copy=False
        )
        want = k * CANDIDATE_FACTOR
        # Over-fetch by the excluded table's own columns so skipping them
        # cannot starve the pool.
        excluded = len(self.rows(exclude_table))
        rows, distances = self.index.top_k(matrix, want + excluded)
        keys = self.index.row_keys
        # table -> union: [distance sum, evidence]; join: best evidence.
        found: dict = {}
        for (query_column, _), hit_rows, hit_distances in zip(
            pairs, rows.tolist(), distances.tolist()
        ):
            seen = set()
            kept = 0
            for row, distance in zip(hit_rows, hit_distances):
                entry = keys[row]
                table = entry.table
                if table == exclude_table:
                    continue
                if kept >= want:
                    break
                kept += 1
                if table in seen:
                    continue
                seen.add(table)
                if join:
                    best = found.get(table)
                    if best is None or distance < best[2]:
                        found[table] = (query_column, entry.column, distance)
                else:
                    scored = found.get(table)
                    if scored is None:
                        scored = found[table] = [0.0, []]
                    scored[0] += distance
                    scored[1].append((query_column, entry.column, distance))
        if join:
            ranked = [
                (table, 1, best[2], (best,)) for table, best in found.items()
            ]
            ranked.sort(key=lambda match: match[2])
        else:
            ranked = [
                (table, len(evidence), total, evidence)
                for table, (total, evidence) in found.items()
            ]
            ranked.sort(key=lambda match: (-match[1], match[2]))
        return RankedTables(ranked)

    # The e2e benchmark's replay (benchmarks/e2e/replay.py) calls these two
    # views by name.
    def near_tables_scored(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> "RankedTables":
        """:meth:`rank`'s union/subset ranking (NEARTABLES +
        RANK1/RANK2)."""
        return self.rank(pairs, k, exclude_table=exclude_table)

    def join_tables_scored(
        self,
        pairs: "Sequence[tuple[str, np.ndarray]]",
        k: int,
        exclude_table: str | None = None,
    ) -> "RankedTables":
        """:meth:`rank`'s join ranking (closest column over every query
        column)."""
        return self.rank(pairs, k, join=True, exclude_table=exclude_table)


class RankedTables(SequenceABC):
    """:meth:`TableSearcher.rank`'s answer: a read-only sequence of
    :class:`TableMatch` es, each built when it is read.

    It holds every ranked table's name, ``n_matched``, ``distance_sum``
    and evidence as plain values taken at rank time, so a write to the
    index after ``rank`` returns cannot change it. ``len``, iteration,
    indexing, slicing (a list) and ``==`` (against another answer or a
    list of matches) behave as on the list of matches it stands for.
    """

    __slots__ = ("_ranked",)

    def __init__(self, ranked: list) -> None:
        #: ``(table, n_matched, distance_sum, evidence)`` in rank order.
        self._ranked = ranked

    def __len__(self) -> int:
        return len(self._ranked)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_table_match(ranked) for ranked in self._ranked[index]]
        return _table_match(self._ranked[index])

    def __iter__(self):
        return map(_table_match, self._ranked)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RankedTables, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RankedTables({list(self)!r})"


def _table_match(ranked: tuple) -> TableMatch:
    table, n_matched, distance_sum, evidence = ranked
    return TableMatch(table, n_matched, distance_sum, tuple(evidence))

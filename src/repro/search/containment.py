"""Join and subset by containment: an exact scan over the columns' MinHash
signatures.

LakeBench labels a join pair by containment ``|Q ∩ C| / |Q|`` and a subset
pair by value containment the other way round, the candidate's values in
the query's; TabSketchFM's own ablation finds that the MinHash sketch is
what carries join. Every ingested column already holds its
``values_minhash`` signature and its distinct-value count ``n_values``;
from those two, :func:`repro.sketch.minhash.estimate_containment`
estimates the containment of one column in any other (the quantity JOSIE
computes exactly and LSH Ensemble, Zhu et al., VLDB 2016, approximates).

:class:`ContainmentIndex` holds the signatures slot-major, a
``uint64[num_perm, n]`` matrix beside the ``n`` columns' sizes.
:meth:`~ContainmentIndex.agreement` is its one scan: every query column's
agreeing-slot count with every row, one vectorized compare per slot over
all query columns at once. There is no LSH: the scan is exact over the
estimator, so each score is ``estimate_containment`` of that pair, bit for
bit. Join (:meth:`~ContainmentIndex.rank`) asks how much of a query column
a row contains; subset (:meth:`~ContainmentIndex.rank_subsets`, Table
VIII's direction) asks how much of each candidate column the query
contains, and scores a table by the mean over its columns.

The index reads a table as :class:`JoinRows`: its columns' signatures as
the store keeps them, one ``uint64[num_perm]`` row per column, beside their
sizes. A lake record hands over its stored rows as they are, and
:func:`join_rows` stacks a fresh sketch's (a join payload's), so neither
an ingest nor a member query builds a sketch object to join.

Rows are dense. A table's rows are found through a table -> rows map, and
removing a table moves the last rows into its holes (swap-remove), so a
write touches only that table's rows and the rows it moves. Row order is
therefore arbitrary, and no answer depends on it: join candidates rank by
containment descending, then table name, then column name; a subset
table's mean is summed in its column order and tables rank by it
descending, then by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.search.tables import CANDIDATE_FACTOR
from repro.sketch.minhash import MinHash
from repro.sketch.pipeline import TableSketch


@dataclass(frozen=True)
class ContainmentMatch:
    """One joinable table: its best column for the query and the estimated
    containment of the query column in it, in ``(0, 1]``.

    ``n_matched``, ``distance_sum`` and ``matches`` give it the shape of a
    :class:`~repro.search.tables.TableMatch`, with distance
    ``1 - containment``.
    """

    table: str
    containment: float
    query_column: str
    column: str

    n_matched = 1

    @property
    def distance_sum(self) -> float:
        return 1.0 - self.containment

    @property
    def matches(self) -> tuple[tuple[str, str, float], ...]:
        return ((self.query_column, self.column, 1.0 - self.containment),)


@dataclass(frozen=True)
class SubsetMatch:
    """One subset candidate: a table whose columns' values the query table
    is estimated to contain.

    ``containment`` is the mean, over the table's columns in column order,
    of each column's estimated containment in its best query column, in
    ``(0, 1]``. ``matches`` holds ``(query column, column, 1 -
    containment)`` for each column with containment above 0, in column
    order, and ``distance_sum`` their distances summed in that order.
    """

    table: str
    containment: float
    distance_sum: float
    matches: tuple[tuple[str, str, float], ...]

    @property
    def n_matched(self) -> int:
        return len(self.matches)


class JoinRows(NamedTuple):
    """What join and subset index and rank a table by: its columns, their
    values signatures (``uint64[n_cols, num_perm]``, a row per column, as
    the store keeps them) and their distinct-value counts
    (``int64[n_cols]``)."""

    table: str
    columns: list[str]
    signatures: np.ndarray
    sizes: np.ndarray


def join_rows(sketch: TableSketch) -> JoinRows:
    """A sketch's :class:`JoinRows`, stacked from its column sketches."""
    columns = sketch.column_sketches
    return JoinRows(
        sketch.table_name,
        sketch.column_names,
        np.array(
            [c.values_minhash.signature for c in columns], dtype=np.uint64
        ).reshape(len(columns), sketch.config.num_perm),
        np.array([c.n_values for c in columns], dtype=np.int64),
    )


class ContainmentIndex:
    """Every indexed column's values signature and size, scanned exactly."""

    def __init__(self, num_perm: int):
        self.num_perm = num_perm
        #: Slot-major signatures; columns past ``len(self)`` are spare.
        self._signatures = np.empty((num_perm, 0), dtype=np.uint64)
        self._sizes = np.empty(0, dtype=np.int64)
        #: Row -> its table and its column.
        self._tables: list[str] = []
        self._columns: list[str] = []
        #: Table -> its rows, in column order.
        self._rows: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------ #
    def add_table(self, join: JoinRows) -> None:
        """Index a table's columns, replacing any rows the table had: in
        place when the column count is unchanged, else by a remove and an
        append."""
        table, columns = join.table, join.columns
        rows = self._rows.get(table)
        if rows is not None and len(rows) != len(columns):
            self.remove_table(table)
            rows = None
        if rows is None:
            start = len(self._tables)
            rows = list(range(start, start + len(columns)))
            self.reserve(start + len(columns))
            self._tables.extend([table] * len(columns))
            self._columns.extend(columns)
            self._rows[table] = rows
        else:
            for row, column in zip(rows, columns):
                self._columns[row] = column
        if rows:
            self._signatures[:, rows] = join.signatures.T
            self._sizes[rows] = join.sizes

    def remove_table(self, table: str) -> int:
        """Drop ``table``'s rows; returns how many went. Each hole takes
        the current last row."""
        rows = self._rows.pop(table, None)
        if not rows:
            return 0
        for row in sorted(rows, reverse=True):
            last = len(self._tables) - 1
            if row != last:
                moved = self._tables[row] = self._tables[last]
                self._columns[row] = self._columns[last]
                self._signatures[:, row] = self._signatures[:, last]
                self._sizes[row] = self._sizes[last]
                owner = self._rows[moved]
                owner[owner.index(last)] = row
            self._tables.pop()
            self._columns.pop()
        return len(rows)

    def reserve(self, n: int) -> None:
        """Make room for ``n`` rows: exactly ``n`` when the index is
        sized up front (a warm open knows its column count), else a
        quarter more than it holds, so appends copy the matrix
        amortized O(1) times per row with little spare."""
        capacity = self._sizes.shape[0]
        if n <= capacity:
            return
        capacity = max(n, capacity + capacity // 4)
        signatures = np.empty((self.num_perm, capacity), dtype=np.uint64)
        sizes = np.empty(capacity, dtype=np.int64)
        used = len(self._tables)
        signatures[:, :used] = self._signatures[:, :used]
        sizes[:used] = self._sizes[:used]
        self._signatures, self._sizes = signatures, sizes

    # ------------------------------------------------------------------ #
    def agreement(self, signatures: np.ndarray) -> np.ndarray:
        """How many slots each query signature shares with each row:
        ``uint8[q, n]`` for ``uint64[q, num_perm]`` signatures (a wider
        unsigned type past 255 slots).

        One pass per slot over all ``q`` query columns at once.
        """
        n = len(self._tables)
        signatures = np.asarray(signatures, dtype=np.uint64)
        matrix = self._signatures
        agree = np.zeros(
            (len(signatures), n), dtype=np.min_scalar_type(self.num_perm)
        )
        for slot in range(self.num_perm):
            agree += (matrix[slot, :n] == signatures[:, slot, None]).view(np.uint8)
        return agree

    def containment(self, signature: np.ndarray, size: int) -> np.ndarray:
        """``estimate_containment(query, row)`` for every row, ``float64[n]``.

        The estimator's own arithmetic, vectorized: the agreeing-slot
        fraction ``j``, then ``j (|Q| + |C|) / (|Q| (1 + j))`` clipped to
        1, and 0 for an empty query or no agreeing slot.
        """
        n = len(self._tables)
        if size <= 0 or n == 0:
            return np.zeros(n)
        [agree] = self.agreement(signature[None, :])
        jaccard = agree / self.num_perm
        if MinHash(signature).is_empty():
            jaccard[agree == self.num_perm] = 0.0  # two empty sets
        estimate = jaccard * (size + self._sizes[:n]) / (size * (1.0 + jaccard))
        return np.minimum(estimate, 1.0, out=estimate)

    def top(
        self,
        signature: np.ndarray,
        size: int,
        want: int,
        exclude_table: str | None = None,
    ) -> list[tuple[float, str, str]]:
        """The ``want`` best columns for one query column as
        ``(containment, table, column)``, containment descending, then
        table, then column; ``exclude_table``'s rows and containment 0
        never make the pool."""
        scores = self.containment(signature, size)
        if exclude_table is not None:
            scores[self._rows.get(exclude_table, [])] = 0.0
        rows = np.flatnonzero(scores > 0.0)
        if rows.size > want:
            # Everything tied with the want-th best stays for the sort, so
            # the cut falls by content, never by row.
            kept = scores[rows]
            cut = np.partition(kept, rows.size - want)[rows.size - want]
            rows = rows[kept >= cut]
        tables, columns = self._tables, self._columns
        pool = sorted(
            (-score, tables[row], columns[row])
            for row, score in zip(rows.tolist(), scores[rows].tolist())
        )
        return [(-negated, table, column) for negated, table, column in pool[:want]]

    def rank(
        self,
        query: JoinRows,
        k: int,
        column: str | None = None,
        exclude_table: str | None = None,
    ) -> list[ContainmentMatch]:
        """Joinable tables for the query's columns (only ``column`` when
        given), best first; untruncated, like
        :meth:`~repro.search.tables.TableSearcher.rank` (take ``[:k]``),
        and possibly fewer than ``k``.

        Each query column's pool is its :meth:`top` ``k *
        CANDIDATE_FACTOR`` columns; a table scores its best containment
        over every pool (an earlier query column keeps a tie), and tables
        rank by containment descending, then name.
        """
        want = k * CANDIDATE_FACTOR
        best: dict[str, tuple[float, str, str]] = {}
        for name, signature, size in zip(
            query.columns, query.signatures, query.sizes.tolist()
        ):
            if column is not None and name != column:
                continue
            for score, table, candidate in self.top(
                signature, size, want, exclude_table
            ):
                held = best.get(table)
                if held is None or score > held[0]:
                    best[table] = (score, name, candidate)
        ranked = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
        return [
            ContainmentMatch(table, score, query_column, column)
            for table, (score, query_column, column) in ranked
        ]

    def rank_subsets(
        self, query: JoinRows, exclude_table: str | None = None
    ) -> list[SubsetMatch]:
        """Every table with a column the query table is estimated to
        contain, best first: untruncated, and with no candidate pool.

        A candidate column ``C`` scores ``estimate_containment(C, Q, |C|,
        |Q|)``, maxed over the query's columns ``Q`` (an earlier query
        column keeps a tie); an empty column scores 0. A table scores the
        mean of its columns' values, summed in its column order, and
        tables rank by that descending, then by name; ``exclude_table``
        never ranks.
        """
        n = len(self._tables)
        if n == 0 or not query.columns:
            return []
        agree = self.agreement(query.signatures)
        # Only a row sharing a slot with some query column can score.
        rows = np.flatnonzero(agree.any(axis=0))
        jaccard = agree[:, rows] / self.num_perm
        sizes = self._sizes[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = (
                jaccard * (sizes + query.sizes[:, None]) / (sizes * (1.0 + jaccard))
            )
        # An empty candidate column scores 0, as in the estimator; that
        # covers two empty sets too, the only way an empty column agrees.
        estimate[:, sizes <= 0] = 0.0
        np.minimum(estimate, 1.0, out=estimate)
        best = estimate.max(axis=0)
        kept = best > 0.0
        found = dict(zip(
            rows[kept].tolist(),
            zip(best[kept].tolist(), estimate.argmax(axis=0)[kept].tolist()),
        ))
        tables, columns = self._tables, self._columns
        candidates = {tables[row] for row in found}
        candidates.discard(exclude_table)
        ranked = []
        for table in candidates:
            table_rows = self._rows[table]
            total = distance_sum = 0.0
            matches = []
            for row in table_rows:
                hit = found.get(row)
                if hit is None:
                    continue
                value, asked = hit
                total += value
                distance_sum += 1.0 - value
                matches.append((query.columns[asked], columns[row], 1.0 - value))
            ranked.append(SubsetMatch(
                table, total / len(table_rows), distance_sum, tuple(matches)
            ))
        ranked.sort(key=lambda match: (-match.containment, match.table))
        return ranked

"""Join and subset by containment: an exact lookup over the columns' MinHash
signatures.

LakeBench labels a join pair by containment ``|Q ∩ C| / |Q|`` and a subset
pair by value containment the other way round, the candidate's values in
the query's; TabSketchFM's own ablation finds that the MinHash sketch is
what carries join. Every ingested column already holds its
``values_minhash`` signature and its distinct-value count ``n_values``;
from those two, :func:`repro.sketch.minhash.estimate_containment`
estimates the containment of one column in any other (the quantity JOSIE
computes exactly and LSH Ensemble, Zhu et al., VLDB 2016, approximates).

:class:`ContainmentIndex` scores from the lake's one column table: the
rows of a :class:`~repro.search.tables.TableSearcher`'s index, each holding
its column's signature slots (slot-major, ``uint64[num_perm, n]``) and
size beside its vector (:mod:`repro.search.index`). That table is the
source of truth and has one writer; the scorer keeps only postings derived
from it. A row that shares no slot with a query column scores 0 in both
directions, so :meth:`~ContainmentIndex.agreement`, the one lookup both
modes score from, finds only the rows that share a slot with some query
column, with their agreeing-slot counts:

- *Postings* (JOSIE's posting lists, Zhu et al., SIGMOD 2019, over MinHash
  slots): per slot, the rows' ids bucketed by a mixed hash of their slot
  value, one flat id array beside an ``offsets[num_perm, buckets + 1]``
  table. A query gathers its ``num_perm`` buckets per query column in one
  vectorized step, turns the ids into rows through the index's id -> row
  map (skipping an id whose row is gone) and keeps the entries whose slot
  equals the query's, so a bucket collision never counts. Its cost is the
  bucket entries read, ~8-16 per query slot plus the rows that really
  agree, not ``n``; the postings hold ``n * num_perm`` ids of the
  narrowest unsigned type and ``int32`` offsets (under 0.8 MB at 10k
  columns and 32 slots).
- *Rows written since the build*: a build renumbers the index's ids to
  rows and posts them. Every write gives the rows it writes fresh ids, so
  a row whose id was issued after the build is compared densely, and a
  block move, which changes no id, leaves the postings valid. Past
  ``max(REBUILD_DIRTY_ROWS, n // 8)`` new ids (:mod:`repro.search.index`)
  the writer renumbers, which voids the postings; the next query rebuilds
  them, a stable sort of each slot's bucket keys (~30 ms at 10k columns).
- *Dense compare*: when a query's buckets hold more than one entry per
  ``POSTED_ENTRY_CELLS`` cells of the ``q * num_perm * n`` a dense compare
  reads, every row is compared densely instead. A generated lake keeps
  its values apart, so at 10k columns its queries gather ~0.1 % of the
  cells; a lake of shared domains (years, codes, nulls) puts many rows in
  one bucket and a query there can gather several percent, and an index
  under ~1 500 rows holds its ~8-16 rows a bucket at over a 128th of
  ``n``: there the dense compare is the cheaper one.

There is no LSH: the lookup is exact over the estimator, so each score is
``estimate_containment`` of that pair, bit for bit. Join
(:meth:`~ContainmentIndex.rank`) asks how much of a query column a row
contains; subset (:meth:`~ContainmentIndex.rank_subsets`, Table VIII's
direction) asks how much of each candidate column the query contains, and
scores a table by the mean over its columns.

A table reaches the rows, and a query the scans, as
:class:`~repro.sketch.pipeline.JoinRows`: its columns' signatures as the
store keeps them, one ``uint64[num_perm]`` row per column, beside their
sizes. A lake record hands over its stored rows as they are,
:func:`~repro.sketch.pipeline.value_signatures` signs a payload's without
sketching it, and :func:`join_rows` stacks a full sketch's, so no ingest
or query builds a sketch object to join.

A table's rows are one contiguous block in column order, found through
the index's one table -> rows map
(:meth:`~repro.search.tables.TableSearcher.rows`): it gives the excluded
table's rows and a subset table's width. No answer depends on where a
table stands: join candidates rank by containment descending, then table
name, then column name; a subset table's mean is summed in its column
order and tables rank by it descending, then by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.search.tables import CANDIDATE_FACTOR, TableSearcher
from repro.sketch.minhash import MinHash
from repro.sketch.pipeline import JoinRows, TableSketch


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


#: A gathered posting entry costs about what a dense compare of this many
#: matrix cells does (~60 ns against ~0.5 ns, numpy on one CPU), so a query
#: whose buckets hold more entries than its dense compare's
#: ``q * num_perm * n`` cells over this compares every row densely instead.
POSTED_ENTRY_CELLS = 128

#: A dense compare of up to this many query-slot-row cells is one
#: broadcast (its ``bool`` temporary as many bytes); a larger one is a pass
#: per slot, slower per cell but without the temporary.
BROADCAST_CELLS = 1 << 19

#: Fibonacci hashing's multiplier: MinHash minima crowd near 0, so a
#: slot value's high bits only spread once mixed by it.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bucket(values: np.ndarray, bits: int) -> np.ndarray:
    """The posting bucket of each slot value, ``intp`` in ``[0, 2**bits)``."""
    return ((values * _MIX) >> np.uint64(64 - bits)).astype(np.intp)


class ContainmentIndex:
    """Slot postings over a searcher's signature rows, and the containment
    scans join and subset rank by."""

    def __init__(self, searcher: TableSearcher):
        self.searcher = searcher
        #: The index's slot count (an adopted index must have the same).
        self.num_perm = searcher.index.num_perm
        #: Postings over the ids the last build numbered (its rows): slot
        #: ``s``'s bucket ``b`` holds the ids
        #: ``_post_ids[_post_offsets[s, b]:_post_offsets[s, b + 1]]``. They
        #: are void once the index's ``id_rows`` is not ``_numbering``.
        self._numbering: np.ndarray | None = None
        #: Ids from this one on were issued after the build.
        self._built = 0
        self._bits = 0
        self._post_ids = np.empty(0, dtype=np.uint8)
        self._post_offsets = np.empty((0, 0), dtype=np.int32)

    def __len__(self) -> int:
        return len(self.searcher.index)

    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        """Renumber the index's ids to rows and rebuild the postings over
        them, each slot's ids sorted into ~8-16-row buckets by mixed
        value."""
        index = self.searcher.index
        index.renumber()
        n, num_perm = len(index), self.num_perm
        # Free the old postings before the new ones are allocated.
        self._post_ids = self._post_offsets = None
        bits = max(1, (n // 8).bit_length() - 1)
        buckets = 1 << bits
        ids = np.empty(num_perm * n, dtype=np.min_scalar_type(n))
        offsets = np.empty((num_perm, buckets + 1), dtype=np.int32)
        for slot in range(num_perm):
            keys = _bucket(index.signatures[slot], bits)
            start = slot * n
            ids[start:start + n] = np.argsort(keys, kind="stable")
            offsets[slot, 0] = start
            np.cumsum(np.bincount(keys, minlength=buckets), out=offsets[slot, 1:])
            offsets[slot, 1:] += start
        self._post_ids, self._post_offsets = ids, offsets
        self._numbering, self._built, self._bits = index.id_rows, n, bits

    def _posted(
        self, signatures: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The posted rows sharing a slot with a query signature, and each
        query signature's agreeing-slot count with them, from the
        postings' bucket ranges ``starts`` / ``lengths`` of every
        (query, slot)."""
        index = self.searcher.index
        q, num_perm = len(signatures), self.num_perm
        # Every bucket's entries, gathered in one step; ``owner`` is the
        # flat (query, slot) each entry answers.
        owner = np.repeat(np.arange(q * num_perm), lengths)
        at = np.arange(lengths.sum()) + np.repeat(
            starts - (np.cumsum(lengths) - lengths), lengths
        )
        candidates = index.id_rows[self._post_ids[at]]
        # A posted id's row may have gone, or been rewritten under a new id.
        live = candidates >= 0
        candidates, owner = candidates[live], owner[live]
        # A bucket holds other values too: only an equal slot agrees.
        agree = (
            index.signatures[owner % num_perm, candidates]
            == signatures.ravel()[owner]
        )
        candidates, owner = candidates[agree], owner[agree]
        rows, inverse = np.unique(candidates, return_inverse=True)
        counts = np.bincount(
            owner // num_perm * rows.size + inverse, minlength=q * rows.size
        )
        dtype = np.min_scalar_type(num_perm)
        return rows, counts.reshape(q, rows.size).astype(dtype)

    def _compare(
        self, signatures: np.ndarray, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The dense lookup over ``rows``, or every row when ``None``;
        returns what :meth:`agreement` does.

        Up to ``BROADCAST_CELLS`` query-slot-row cells are compared in one
        broadcast; past that, one pass per slot over all query signatures
        at once reads the matrix once and holds only the counts.
        """
        matrix = self.searcher.index.signatures
        if rows is not None:
            matrix = matrix[:, rows]
        dtype = np.min_scalar_type(self.num_perm)
        if signatures.size * matrix.shape[1] <= BROADCAST_CELLS:
            counts = (matrix == signatures[:, :, None]).sum(axis=1, dtype=dtype)
        else:
            counts = np.zeros((len(signatures), matrix.shape[1]), dtype=dtype)
            for slot in range(self.num_perm):
                counts += (matrix[slot] == signatures[:, slot, None]).view(np.uint8)
        hit = counts.any(axis=0)
        return np.flatnonzero(hit) if rows is None else rows[hit], counts[:, hit]

    def agreement(self, signatures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows sharing at least one slot with some query signature,
        ``intp[m]`` in no set order, and how many slots each query
        signature shares with each of them: ``uint8[q, m]`` for
        ``uint64[q, num_perm]`` signatures (a wider unsigned type past 255
        slots). A row that shares no slot with any query signature
        agrees in none, so it is left out.

        The postings answer for the rows they hold and the rows written
        since the build are compared densely, unless the query's buckets
        hold more than one entry per ``POSTED_ENTRY_CELLS`` cells of the
        matrix: then every row is compared densely. Void postings (the
        index renumbered its ids) are rebuilt first.
        """
        signatures = np.asarray(signatures, dtype=np.uint64)
        index = self.searcher.index
        n = len(index)
        if n and len(signatures):
            if self._numbering is not index.id_rows:
                self._build()
            slots = np.arange(self.num_perm)
            keys = _bucket(signatures, self._bits)
            starts = self._post_offsets[slots, keys].ravel()
            lengths = self._post_offsets[slots, keys + 1].ravel() - starts
            if lengths.sum() * POSTED_ENTRY_CELLS <= signatures.size * n:
                rows, counts = self._posted(signatures, starts, lengths)
                written = index.id_rows[self._built:]
                written = written[written >= 0]
                if written.size:
                    written, written_counts = self._compare(signatures, written)
                    rows = np.concatenate([rows, written])
                    counts = np.hstack([counts, written_counts])
                return rows, counts
        return self._compare(signatures)

    def _estimate(
        self, rows: np.ndarray, agree: np.ndarray, signature: np.ndarray, size: int
    ) -> np.ndarray:
        """``estimate_containment(query, row)`` for ``rows``, given the
        query's agreeing-slot counts with them (``size`` > 0).

        The estimator's own arithmetic, vectorized: the agreeing-slot
        fraction ``j``, then ``j (|Q| + |C|) / (|Q| (1 + j))`` clipped to
        1, and 0 for no agreeing slot.
        """
        jaccard = agree / self.num_perm
        if MinHash(signature).is_empty():
            jaccard[agree == self.num_perm] = 0.0  # two empty sets
        sizes = self.searcher.index.sizes[rows]
        estimate = jaccard * (size + sizes) / (size * (1.0 + jaccard))
        return np.minimum(estimate, 1.0, out=estimate)

    def _pool(
        self,
        rows: np.ndarray,
        agree: np.ndarray,
        excluded: np.ndarray,
        signature: np.ndarray,
        size: int,
        want: int,
    ) -> list[tuple[float, str, str]]:
        """One query column's ``want`` best columns as ``(containment,
        table, column)``, containment descending, then table, then column,
        from its agreeing-slot counts with ``rows``; ``excluded`` rows and
        containment 0 never make the pool."""
        if size <= 0:
            return []
        kept = (agree > 0) & ~excluded
        rows = rows[kept]
        scores = self._estimate(rows, agree[kept], signature, size)
        kept = scores > 0.0
        rows, scores = rows[kept], scores[kept]
        if rows.size > want:
            # Everything tied with the want-th best stays for the sort, so
            # the cut falls by content, never by row.
            cut = np.partition(scores, rows.size - want)[rows.size - want]
            kept = scores >= cut
            rows, scores = rows[kept], scores[kept]
        keys = self.searcher.index.row_keys
        pool = sorted(
            (-score, keys[row].table, keys[row].column)
            for row, score in zip(rows.tolist(), scores.tolist())
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

        Each query column's pool is its ``k * CANDIDATE_FACTOR`` best
        columns, all from one :meth:`agreement`; a
        table scores its best containment over every pool (an earlier
        query column keeps a tie), and tables rank by containment
        descending, then name.
        """
        want = k * CANDIDATE_FACTOR
        asked = [
            i for i, name in enumerate(query.columns) if column in (None, name)
        ]
        rows, agree = self.agreement(query.signatures[asked])
        own = self.searcher.rows(exclude_table)
        excluded = (rows >= own.start) & (rows < own.stop)
        sizes = query.sizes.tolist()
        best: dict[str, tuple[float, str, str]] = {}
        for i, counts in zip(asked, agree):
            name = query.columns[i]
            for score, table, candidate in self._pool(
                rows, counts, excluded, query.signatures[i], sizes[i], want
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
        index = self.searcher.index
        if not len(index) or not query.columns:
            return []
        # Only a row sharing a slot with some query column can score.
        rows, agree = self.agreement(query.signatures)
        jaccard = agree / self.num_perm
        sizes = index.sizes[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = (
                jaccard * (sizes + query.sizes[:, None]) / (sizes * (1.0 + jaccard))
            )
        # An empty candidate column scores 0, as in the estimator; that
        # covers two empty sets too, the only way an empty column agrees.
        estimate[:, sizes <= 0] = 0.0
        np.minimum(estimate, 1.0, out=estimate)
        best = estimate.max(axis=0)
        kept = np.flatnonzero(best > 0.0)
        # Ascending rows: each table's rows together, in its column order.
        kept = kept[np.argsort(rows[kept])]
        keys = index.row_keys
        found: dict[str, list] = {}
        for row, value, asked in zip(
            rows[kept].tolist(),
            best[kept].tolist(),
            estimate.argmax(axis=0)[kept].tolist(),
        ):
            entry = keys[row]
            hit = found.setdefault(entry.table, [0.0, 0.0, []])
            hit[0] += value
            hit[1] += 1.0 - value
            hit[2].append((query.columns[asked], entry.column, 1.0 - value))
        found.pop(exclude_table, None)
        rows_of = self.searcher.rows
        ranked = [
            SubsetMatch(
                table, total / len(rows_of(table)), distance_sum, tuple(matches)
            )
            for table, (total, distance_sum, matches) in found.items()
        ]
        ranked.sort(key=lambda match: (-match.containment, match.table))
        return ranked

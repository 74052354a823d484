"""Exact k-nearest-neighbour index over dense vectors: the lake's one column
table.

The paper indexes table/column embeddings and retrieves nearest neighbours
("we recommend indexing the datalake offline and at query time only compute
embeddings for the query table"). At reproduction scale an exact vectorized
index is both faster and noise-free; the LSH structures used by specific
baselines live in :mod:`repro.sketch.lsh` / :mod:`repro.sketch.simhash`.

Storage is a capacity-doubling row buffer so the index supports *incremental*
maintenance: ``add``/``add_many`` append rows in no table, amortized O(1)
per row (no re-stacking of the whole corpus on the next query). A lake
writes its rows a table at a time, and a table's rows are one contiguous
*block*: one map, table -> (its first row's id, its width), finds them.
:meth:`KnnIndex.write_block` replaces, drops or appends a table's block.
It costs the rows it writes and the rows it moves, and no Python work per
row of the index besides: the rows behind the block shift by the width
change as one block copy, so a same-width replacement writes in place and
moves no other row. This is what lets :mod:`repro.lake` apply one-table
deltas to a standing lake without rebuilding the index.

A row also holds its column's values signature (``num_perm`` slots,
stored slot-major) and distinct count, which join and subset score by
(:mod:`repro.search.containment`); the paper searchers index vectors only
(``num_perm=0``). Every write moves these with the vectors. Each written
row takes a fresh id, and an id -> row map kept by every write finds it
after any move, so postings over ids survive a remove and a block's first
id finds its rows. Past ``max(REBUILD_DIRTY_ROWS, n // 8)`` new ids the
ids are renumbered to rows, which keeps the id space O(rows), voids
postings over old ids and remaps the block map one table at a time.

``top_k`` answers a whole matrix of queries with one BLAS matmul plus one
axis-wise partition, as row-id and distance arrays — the batched primitive
the Fig. 6 NEARTABLES loop (:class:`repro.search.tables.TableSearcher`)
runs on, so a q-column query table costs one distance computation instead
of q Python round-trips; ``query_many`` is its ``(key, distance)`` view.
The data-side term of the distance (row norms for cosine, row sums of
squares for euclidean) is cached beside the rows and maintained by every
write, so a query never recomputes it over the corpus; :meth:`restore`
computes it once over a whole block.
This class is the repo's one vector index: a lake serves one over every
column at any shard count (:mod:`repro.search.backend`).
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

from repro import obs

#: Smallest non-zero row capacity allocated by the growable buffer.
_MIN_CAPACITY = 8

#: Ids are renumbered to rows once more than this many, and than an eighth
#: of the rows, have been issued since the last numbering.
REBUILD_DIRTY_ROWS = 256

_QUERIES = obs.counter(
    "index_queries_total", "Vector-index query rows answered, by backend", ("backend",)
).labels(backend="exact")
_QUERY_MS = obs.histogram(
    "index_query_duration_ms",
    "Vector-index query_many latency in milliseconds, by backend",
    ("backend",),
).labels(backend="exact")


class KnnIndex:
    """Brute-force KNN with cosine or euclidean distance, each row holding
    ``num_perm`` signature slots and a size beside its vector."""

    def __init__(self, dim: int, metric: str = "cosine", num_perm: int = 0):
        if metric not in ("cosine", "euclidean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.dim = dim
        self.metric = metric
        self.num_perm = num_perm
        self._keys: list = []
        #: Table -> its block ``(first id, width)``, in row order: the one
        #: map from a table to its rows (``add`` rows are in none).
        self._blocks: dict = {}
        #: Next unused id; ids are unique until the next renumbering.
        self._next_id = 0
        #: Id -> its row, ``-1`` once gone; its length is the id budget
        #: left before the next renumbering.
        self._id_rows = np.zeros(0, dtype=np.int64)
        self._data = np.zeros((0, dim), dtype=np.float64)
        #: Row-aligned with ``_data``: the data-side term of the distance
        #: (:meth:`_row_terms`), computed once per row at write time.
        self._terms = np.zeros(0, dtype=np.float64)
        #: Row-aligned with ``_data``: each row's id, which ``_id_rows``
        #: maps back to the row, so a write finds its rows without a scan.
        self._ids = np.zeros(0, dtype=np.int64)
        #: Row-aligned columns, slot-major: each row's signature slots.
        self._signatures = np.zeros((num_perm, 0), dtype=np.uint64)
        #: Row-aligned: each row's size (a column's distinct values).
        self._sizes = np.zeros(0, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------ #
    def _reserve(self, extra: int) -> None:
        """Grow the backing buffers (doubling) to fit ``extra`` more rows.

        The capacity doubles until the rows fit, so it is the same whether
        the rows arrive one table at a time or many tables in one write."""
        need = self._size + extra
        capacity = self._data.shape[0]
        if need <= capacity:
            return
        new_capacity = max(_MIN_CAPACITY, 2 * capacity)
        while new_capacity < need:
            new_capacity *= 2
        used = self._size
        for name in ("_data", "_terms", "_ids", "_sizes"):
            old = getattr(self, name)
            grown = np.zeros((new_capacity, *old.shape[1:]), dtype=old.dtype)
            grown[:used] = old[:used]
            setattr(self, name, grown)
        signatures = np.zeros((self.num_perm, new_capacity), dtype=np.uint64)
        signatures[:, :used] = self._signatures[:, :used]
        self._signatures = signatures

    def _row_terms(self, block: np.ndarray) -> np.ndarray:
        """Per-row data-side distance term of an (m, dim) block: the row
        norms (cosine) or row sums of squares (euclidean). Bitwise what
        ``np.linalg.norm(block, axis=1)`` / ``(block**2).sum(axis=1)`` give,
        without ``norm``'s per-call overhead on a one-table block."""
        squares = (block * block).sum(axis=1)
        return np.sqrt(squares) if self.metric == "cosine" else squares

    def _check(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {vector.shape}")
        return vector

    def add(self, key, vector: np.ndarray) -> None:
        """Append one (key, vector) row in no table — amortized O(1)."""
        self.add_many([(key, vector)])

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None:
        """Bulk append of rows in no table: one reserve + one block copy
        for the whole batch."""
        items = list(items)
        keys = [key for key, _ in items]
        self._splice(
            self._size, self._size, keys,
            *self._block(keys, [vector for _, vector in items], None, None),
        )

    def write_block(
        self, name, items: Sequence[tuple[object, np.ndarray]],
        signatures: np.ndarray | None = None, sizes: np.ndarray | None = None,
    ) -> int:
        """Make ``items`` table ``name``'s rows; returns the rows dropped.

        The table's old rows go and the new ones stand where they stood —
        at the end when it had none; an empty ``items`` removes the table.
        The new rows' ``signatures`` (``uint64[len(items), num_perm]``) and
        ``sizes`` go beside them, and they take fresh consecutive ids.
        Every other row keeps its order, so the rows stay in the order
        their tables were first written.
        """
        items = list(items)
        rows = self.block_rows(name) or range(self._size, self._size)
        if not (rows or items):
            return 0
        keys = [key for key, _ in items]
        # Checked before anything changes.
        columns = self._block(keys, [vector for _, vector in items], signatures, sizes)
        if items:
            self._blocks[name] = (self._next_id, len(items))
        else:
            del self._blocks[name]
        self._splice(rows.start, rows.stop, keys, *columns)
        return len(rows)

    def append_blocks(
        self, blocks: Sequence[tuple[object, int]], keys: list,
        vectors: np.ndarray, signatures: np.ndarray | None = None,
        sizes: np.ndarray | None = None,
    ) -> None:
        """Append new tables' blocks in one write: table ``name`` of
        ``blocks``' ``(name, width)`` pairs takes the next ``width`` of
        ``keys`` and of the rows of ``vectors`` (``(len(keys), dim)``),
        ``signatures`` and ``sizes``, in order, at the end. No table may
        have rows yet; a table of width 0 gets none."""
        names = [name for name, _ in blocks]
        if len(set(names)) != len(names) or any(n in self._blocks for n in names):
            raise ValueError("append_blocks writes new tables only, each once")
        columns = self._block(keys, vectors, signatures, sizes)
        first = self._next_id
        for name, width in blocks:
            if width:
                self._blocks[name] = (first, width)
                first += width
        self._splice(self._size, self._size, keys, *columns)

    def _splice(
        self, at: int, stop: int, keys: list, block: np.ndarray,
        signatures: np.ndarray, sizes: np.ndarray,
    ) -> None:
        """Put the checked new rows (``keys`` and their columns) in place
        of rows ``[at, stop)`` under the next ids. The rows after ``stop``
        move by the width change as one slice, so a same-width write moves
        no other row."""
        size = self._size
        end = at + len(keys)
        shift = end - stop
        self._id_rows[self._ids[at:stop]] = -1
        ids = np.arange(self._next_id, self._next_id + len(keys))
        self._next_id += len(keys)
        self._reserve(max(shift, 0))
        if shift:
            # Through flat views: numpy moves an overlapping 1-D slice in
            # place, where a 2-D one goes through a temporary copy.
            flat, dim = self._data.reshape(-1), self.dim
            flat[end * dim : (size + shift) * dim] = flat[stop * dim : size * dim]
            for column in (self._terms, self._ids, self._sizes, *self._signatures):
                column[end : size + shift] = column[stop:size]
        for column, rows in zip(
            (self._data, self._terms, self._ids, self._sizes),
            (block, self._row_terms(block), ids, sizes),
        ):
            column[at:end] = rows
        self._signatures[:, at:end] = signatures.T
        self._keys[at:stop] = keys
        self._size = size + shift
        due = self._next_id > len(self._id_rows)  # out of ids: renumber
        if due:
            # renumber remaps the blocks through this map, the one just
            # written too: room for its ids (the new slots, all set below).
            self._id_rows = np.resize(self._id_rows, self._next_id)
        # The rows written or moved: rows past ``end`` moved only if the
        # width changed.
        moved = np.arange(at, self._size if shift else end)
        self._id_rows[self._ids[moved]] = moved
        if due:
            self.renumber()

    def renumber(self) -> None:
        """Give every row its row number as id, with room in the id -> row
        map for ``max(REBUILD_DIRTY_ROWS, n // 8)`` more ids. Each block's
        first id is remapped through the old map: one step per table."""
        if self._blocks:
            firsts, widths = zip(*self._blocks.values())
            firsts = self._id_rows[list(firsts)].tolist()
            self._blocks = dict(zip(self._blocks, zip(firsts, widths)))
        n = self._size
        rows = np.arange(n)
        self._ids[:n] = rows
        self._next_id = n
        self._id_rows = np.full(n + max(REBUILD_DIRTY_ROWS, n // 8), -1, np.int64)
        self._id_rows[:n] = rows

    def _block(
        self, keys: list, vectors, signatures: np.ndarray | None,
        sizes: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``vectors`` (a list of rows or an array) as one checked
        ``(len(keys), dim)`` block, beside their checked
        ``(len(keys), num_perm)`` signatures and sizes."""
        m = len(keys)
        if signatures is None and not (m and self.num_perm):  # none to carry
            signatures, sizes = np.zeros((m, self.num_perm)), np.zeros(m)
        signatures = np.asarray(signatures, dtype=np.uint64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if signatures.shape != (m, self.num_perm) or sizes.shape != (m,):
            raise ValueError(
                f"expected {m} rows of {self.num_perm} signature slots and "
                f"{m} sizes, got {np.shape(signatures)} and {np.shape(sizes)}"
            )
        if not m:
            return np.zeros((0, self.dim), dtype=np.float64), signatures, sizes
        try:
            block = np.asarray(vectors, dtype=np.float64)
        except ValueError:  # ragged rows; the loop below names the bad one
            block = None
        if block is None or block.shape != (m, self.dim):
            for vector in vectors:
                self._check(vector)
            raise ValueError(f"expected {m} vectors of dim {self.dim}")
        return block, signatures, sizes

    # ------------------------------------------------------------------ #
    def _matrix(self) -> np.ndarray:
        """The live (n, dim) view of stored vectors — no copying."""
        return self._data[: self._size]

    def query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]:
        """Top-``k`` (key, distance) lists for every row of ``matrix``:
        :meth:`top_k`'s arrays, with (key, distance) tuples built for the
        survivors only."""
        rows, distances = self.top_k(matrix, k)
        keys = self._keys
        return [
            [(keys[row], distance) for row, distance in zip(row_ids, row_distances)]
            for row_ids, row_distances in zip(rows.tolist(), distances.tolist())
        ]

    def top_k(self, matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ids and distances of every query row's top-``k``, ascending.

        One ``(q, dim) @ (dim, n)`` matmul scores all queries against the
        whole corpus, then one axis-wise ``argpartition`` + sort extracts
        each row's top-k — the vectorized form of q separate ``query``
        calls. Both arrays are ``(q, min(k, n))``; row ids index
        :attr:`row_keys`. This is the index's one scoring routine:
        :meth:`query_many` and the table ranking are built on it.
        """
        with obs.span("index.query", backend="exact") as timed:
            rows, distances = self._top_k(matrix, k)
        _QUERIES.inc(rows.shape[0])
        _QUERY_MS.observe(timed.duration_ms)
        return rows, distances

    def _top_k(self, matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        queries = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"expected query matrix (*, {self.dim}), got {queries.shape}"
            )
        data = self._matrix()
        n_queries = queries.shape[0]
        if data.shape[0] == 0 or k <= 0 or n_queries == 0:
            return (
                np.zeros((n_queries, 0), dtype=np.intp),
                np.zeros((n_queries, 0), dtype=np.float64),
            )
        terms = self._terms[: self._size]
        # Distances are computed inside the score buffer: one (q, n)
        # temporary beside it, and the same floats as the textbook forms
        # (the query norm is bitwise np.linalg.norm's).
        distances = queries @ data.T  # (q, n) scores
        squares = (queries * queries).sum(axis=1)
        if self.metric == "cosine":
            denominator = terms[None, :] * (np.sqrt(squares)[:, None] + 1e-12)
            denominator[denominator == 0.0] = 1e-12
            np.divide(distances, denominator, out=distances)
            np.subtract(1.0, distances, out=distances)
        else:
            squared = squares[:, None] + terms[None, :]
            distances *= 2.0
            np.subtract(squared, distances, out=distances)
            np.maximum(distances, 0.0, out=distances)
            np.sqrt(distances, out=distances)
        k = min(k, data.shape[0])
        top = np.argpartition(distances, k - 1, axis=1)[:, :k]
        at = np.arange(n_queries)[:, None]
        top_distances = distances[at, top]
        order = np.argsort(top_distances, axis=1)
        return top[at, order], top_distances[at, order]

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Top-``k`` (key, distance) pairs, ascending by distance.

        A batch of one through :meth:`query_many`, so single- and batched-
        query results agree by construction.
        """
        return self.query_many(self._check(vector)[None, :], k)[0]

    def keys(self) -> list:
        return list(self._keys)

    @property
    def row_keys(self) -> list:
        """The live row-aligned key list :meth:`top_k`'s row ids index —
        not a copy, so read it, never mutate it."""
        return self._keys

    @property
    def signatures(self) -> np.ndarray:
        """The live slot-major ``uint64[num_perm, n]`` view: read only."""
        return self._signatures[:, : self._size]

    @property
    def sizes(self) -> np.ndarray:
        """The live ``int64[n]`` view: read only."""
        return self._sizes[: self._size]

    @property
    def id_rows(self) -> np.ndarray:
        """Id -> row (``-1``: gone); :meth:`renumber` replaces it."""
        return self._id_rows

    @property
    def blocks(self) -> dict:
        """Table -> its block ``(first id, width)``, in row order: the live
        map, read only."""
        return self._blocks

    def block_rows(self, name) -> range:
        """Table ``name``'s rows, in column order (empty when it has
        none)."""
        block = self._blocks.get(name)
        if block is None:
            return range(0)
        start = int(self._id_rows[block[0]])
        return range(start, start + block[1])

    @property
    def subs(self) -> tuple["KnnIndex"]:
        """``(self,)``: this index as the one sub-index of itself.

        Kept only because the lake benchmark's replay still times
        ``searcher.index.subs`` one by one for its
        ``search.shard_merge_ms`` row; the replay port (ROADMAP item 7)
        deletes this property with it.
        """
        return (self,)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    @classmethod
    def restore(
        cls, dim: int, keys: list, vectors: np.ndarray, metric: str = "cosine",
        signatures: np.ndarray | None = None, sizes: np.ndarray | None = None,
        blocks: Sequence[tuple[object, int]] | None = None,
    ) -> "KnnIndex":
        """An index over ``keys`` and the row-aligned ``vectors``, slot-major
        ``signatures`` (their slot count is ``num_perm``; none: 0) and
        ``sizes``, with no per-row insertion — how a lake assembles its
        index from the stored rows at open. ``blocks`` are the ``(table,
        width)`` runs the rows fall in, in row order, with table ``None``
        for rows in no table; none given: the runs of the keys' ``table``,
        where a key with none is in no table.

        A writable C-contiguous block of the column's dtype becomes the
        index's buffer as it is, so a caller that built the blocks for the
        index (:meth:`repro.lake.store.LakeStore.load_index`) pays no
        second copy; pass a copy to keep using yours. Any other block is
        copied once."""
        n = len(keys)
        if signatures is None:
            signatures = np.zeros((0, n), dtype=np.uint64)
        if sizes is None:
            sizes = np.zeros(n, dtype=np.int64)
        if blocks is None:
            tables = (getattr(key, "table", None) for key in keys)
            blocks = [(table, len(list(run))) for table, run in groupby(tables)]
        table_blocks, start = {}, 0
        for name, width in blocks:
            if name is not None:  # renumbered below, a row's id is its row
                table_blocks[name] = (start, width)
            start += width
        index = cls(dim, metric=metric, num_perm=len(signatures))
        vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, dim)
        shapes = (vectors.shape[0], *np.shape(signatures)[1:], *np.shape(sizes))
        if (*shapes, start) != (n,) * 4:
            raise ValueError(
                f"index state has {vectors.shape[0]} rows, signatures "
                f"{np.shape(signatures)}, sizes {np.shape(sizes)} and "
                f"blocks of {start} rows but {n} keys"
            )
        index._data = _owned(vectors, np.float64)
        index._signatures = _owned(signatures, np.uint64)
        index._sizes = _owned(sizes, np.int64)
        index._terms = index._row_terms(index._data)
        index._ids = np.empty(n, dtype=np.int64)
        index._size = n
        index._keys = list(keys)
        index.renumber()
        index._blocks = table_blocks
        return index


def _owned(block: np.ndarray, dtype) -> np.ndarray:
    """``block`` as a buffer the index may keep and write: itself when it
    is a writable C-contiguous array of ``dtype``, else a copy."""
    block = np.asarray(block, dtype=dtype)
    if block.flags.writeable and block.flags.c_contiguous:
        return block
    return block.copy()

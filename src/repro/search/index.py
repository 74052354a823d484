"""Exact k-nearest-neighbour index over dense vectors.

The paper indexes table/column embeddings and retrieves nearest neighbours
("we recommend indexing the datalake offline and at query time only compute
embeddings for the query table"). At reproduction scale an exact vectorized
index is both faster and noise-free; the LSH structures used by specific
baselines live in :mod:`repro.sketch.lsh` / :mod:`repro.sketch.simhash`.

Storage is a capacity-doubling row buffer so the index supports *incremental*
maintenance: ``add``/``add_many`` are amortized O(1) per row (no re-stacking
of the whole corpus on the next query). A write costs the rows it writes
and the rows it moves, and no Python work per row of the index besides:
every row carries an int id of its key, so ``replace_many`` /
``remove_many`` find the rows to drop with one vectorized compare over
those ids, and the rows behind the change move as block copies, once per
batch. A table's rows written as one contiguous block (as
:class:`repro.search.tables.TableSearcher` writes them) are replaced in
place when the width is unchanged, moving no other row. This is what lets
:mod:`repro.lake` apply one-table deltas to a standing lake without
rebuilding the index.

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

from typing import Iterable, Sequence

import numpy as np

from repro import obs

#: Smallest non-zero row capacity allocated by the growable buffer.
_MIN_CAPACITY = 8

_QUERIES = obs.counter(
    "index_queries_total", "Vector-index query rows answered, by backend", ("backend",)
).labels(backend="exact")
_QUERY_MS = obs.histogram(
    "index_query_duration_ms",
    "Vector-index query_many latency in milliseconds, by backend",
    ("backend",),
).labels(backend="exact")


class KnnIndex:
    """Brute-force KNN with cosine or euclidean distance."""

    def __init__(self, dim: int, metric: str = "cosine"):
        if metric not in ("cosine", "euclidean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.dim = dim
        self.metric = metric
        self._keys: list = []
        #: key -> its int id, for every key with a live row: O(1)
        #: membership, and the id a write looks a key's rows up by.
        self._key_ids: dict = {}
        #: Next unused key id; ids are never reused.
        self._next_id = 0
        self._data = np.zeros((0, dim), dtype=np.float64)
        #: Row-aligned with ``_data``: the data-side term of the distance
        #: (:meth:`_row_terms`), computed once per row at write time.
        self._terms = np.zeros(0, dtype=np.float64)
        #: Row-aligned with ``_data``: each row's key id, so a write finds
        #: the rows to drop with one vectorized compare, not a key scan.
        self._ids = np.zeros(0, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------ #
    def _reserve(self, extra: int) -> None:
        """Grow the backing buffer (doubling) to fit ``extra`` more rows."""
        need = self._size + extra
        capacity = self._data.shape[0]
        if need <= capacity:
            return
        new_capacity = max(need, max(_MIN_CAPACITY, 2 * capacity))
        grown = np.zeros((new_capacity, self.dim), dtype=np.float64)
        grown[: self._size] = self._data[: self._size]
        self._data = grown
        terms = np.zeros(new_capacity, dtype=np.float64)
        terms[: self._size] = self._terms[: self._size]
        self._terms = terms
        ids = np.zeros(new_capacity, dtype=np.int64)
        ids[: self._size] = self._ids[: self._size]
        self._ids = ids

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
        """Append one (key, vector) row — amortized O(1)."""
        self.add_many([(key, vector)])

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None:
        """Bulk append: one reserve + one block copy for the whole batch."""
        self.replace_many((), items)

    def remove_many(self, keys: Iterable[object]) -> int:
        """Drop every row whose key is in ``keys``; returns rows removed.

        What :meth:`replace_many` costs with no new rows: one vectorized
        compare over the row ids, and the rows behind the first dropped
        one moved up as block copies. A key not present costs one dict
        probe; when no key is present nothing else is done."""
        return self.replace_many(keys, ())

    def replace_many(
        self, keys: Iterable[object], items: Sequence[tuple[object, np.ndarray]]
    ) -> int:
        """Drop every row whose key is in ``keys`` and put ``items`` where
        the first of those rows stood — at the end when there was none;
        returns the rows dropped.

        Every other row keeps its order, so replacing a table's rows leaves
        the index in the order its tables were first added. The rows to
        drop are found by key id with one vectorized compare over the
        row-aligned ids; no Python loop runs over rows that are not
        written. The new rows are one block copy. Surviving rows between
        the first and last dropped row are gathered behind the new block,
        and the rows after the last dropped row move as one slice, by
        ``len(items)`` minus the rows dropped. A caller that writes each
        key's rows as one contiguous block (``TableSearcher`` does) has no
        rows in between, so a same-width replacement writes in place and
        moves no other row.
        """
        items = list(items)
        key_ids = self._key_ids
        doomed = {key for key in keys if key in key_ids}
        if not items and not doomed:
            return 0
        block = self._block(items)  # checked before anything changes
        size = at = stop = self._size
        between = np.zeros(0, dtype=np.intp)
        if doomed:
            gone = np.isin(self._ids[:size], [key_ids.pop(key) for key in doomed])
            dropped = np.flatnonzero(gone)
            at, stop = int(dropped[0]), int(dropped[-1]) + 1
            between = np.flatnonzero(~gone[at:stop]) + at
        removed = stop - at - len(between)
        block_ids = [self._id_of(key) for key, _ in items]
        between_rows, between_terms = self._data[between], self._terms[between]
        between_ids = self._ids[between]
        between_keys = list(map(self._keys.__getitem__, between.tolist()))
        shift = len(items) - removed
        self._reserve(max(shift, 0))
        end = at + len(items) + len(between)
        if shift:
            # Through a flat view: numpy moves an overlapping 1-D slice in
            # place, where a 2-D one goes through a temporary copy.
            flat, dim = self._data.reshape(-1), self.dim
            flat[end * dim : (size + shift) * dim] = flat[stop * dim : size * dim]
            self._terms[end : size + shift] = self._terms[stop:size]
            self._ids[end : size + shift] = self._ids[stop:size]
        new = slice(at, at + len(items))
        self._data[new] = block
        self._terms[new] = self._row_terms(block)
        self._ids[new] = block_ids
        kept = slice(new.stop, end)
        self._data[kept] = between_rows
        self._terms[kept] = between_terms
        self._ids[kept] = between_ids
        self._keys[at:stop] = [key for key, _ in items] + between_keys
        self._size = size + shift
        return removed

    def _id_of(self, key) -> int:
        """``key``'s id, drawing the next unused one for a new key."""
        key_id = self._key_ids.get(key)
        if key_id is None:
            key_id = self._key_ids[key] = self._next_id
            self._next_id += 1
        return key_id

    def _block(self, items: list) -> np.ndarray:
        """``items``' vectors as one checked ``(len(items), dim)`` block."""
        if not items:
            return np.zeros((0, self.dim), dtype=np.float64)
        vectors = [vector for _, vector in items]
        try:
            block = np.array(vectors, dtype=np.float64)
        except ValueError:  # ragged rows; the loop below names the bad one
            block = None
        if block is None or block.shape != (len(items), self.dim):
            for vector in vectors:
                self._check(vector)
        return block

    def remove(self, key) -> int:
        """Drop every row stored under ``key``; returns rows removed."""
        return self.remove_many([key])

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
        if obs.enabled():
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
    def subs(self) -> tuple["KnnIndex"]:
        """``(self,)``: this index as the one sub-index of itself.

        Kept only because the lake benchmark's replay still times
        ``searcher.index.subs`` one by one for its
        ``search.shard_merge_ms`` row; the replay port (ROADMAP item 7)
        deletes this property with it.
        """
        return (self,)

    def __contains__(self, key) -> bool:
        return key in self._key_ids

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    @classmethod
    def restore(
        cls, dim: int, keys: list, vectors: np.ndarray, metric: str = "cosine"
    ) -> "KnnIndex":
        """An index over ``keys`` and the row-aligned ``vectors``, with no
        per-row insertion — how a lake assembles its index from the stored
        column vectors at open.

        A writable C-contiguous float64 block becomes the index's row
        buffer as it is, so a caller that built the block for the index
        (:meth:`repro.lake.store.LakeStore.load_index`'s one concatenation)
        pays no second copy; pass a copy to keep using yours. Any other
        block is copied once."""
        index = cls(dim, metric=metric)
        vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, dim)
        if vectors.shape[0] != len(keys):
            raise ValueError(
                f"index state has {vectors.shape[0]} rows but "
                f"{len(keys)} keys"
            )
        owned = vectors.flags.writeable and vectors.flags.c_contiguous
        index._data = vectors if owned else vectors.copy()
        index._terms = index._row_terms(index._data)
        index._size = vectors.shape[0]
        index._keys = list(keys)
        key_ids = index._key_ids
        index._ids = np.array(
            [key_ids.setdefault(key, len(key_ids)) for key in index._keys],
            dtype=np.int64,
        )
        index._next_id = len(key_ids)
        return index

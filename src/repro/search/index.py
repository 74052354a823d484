"""Exact k-nearest-neighbour index over dense vectors.

The paper indexes table/column embeddings and retrieves nearest neighbours
("we recommend indexing the datalake offline and at query time only compute
embeddings for the query table"). At reproduction scale an exact vectorized
index is both faster and noise-free; the LSH structures used by specific
baselines live in :mod:`repro.sketch.lsh` / :mod:`repro.sketch.simhash`.

Storage is a capacity-doubling row buffer so the index supports *incremental*
maintenance: ``add``/``add_many`` are amortized O(1) per row (no re-stacking
of the whole corpus on the next query), and ``replace_many`` /
``remove_many`` shift the rows behind the change once per batch, keeping
every other row in place. This is what lets :mod:`repro.lake` apply
one-table deltas to a standing lake without rebuilding the index.

``query_many`` answers a whole matrix of queries with one BLAS matmul plus
one axis-wise partition — the batched primitive the Fig. 6 NEARTABLES loop
(:class:`repro.search.tables.TableSearcher`) runs on, so a q-column query
table costs one distance computation instead of q Python round-trips.
The data-side term of the distance (row norms for cosine, row sums of
squares for euclidean) is cached beside the rows and maintained by every
write, so a query never recomputes it over the corpus; :meth:`restore`
computes it once over a whole block.
This class implements the :class:`repro.search.backend.VectorIndex`
protocol and is the repo's one vector index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import obs

#: Smallest non-zero row capacity allocated by the growable buffer.
_MIN_CAPACITY = 8

# Shared with the sharded face in backend.py; registration is idempotent,
# so both resolve the same metric family.
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
        #: key -> number of live rows under it; O(1) membership and an O(1)
        #: "nothing to remove" fast path without scanning ``_keys``.
        self._key_counts: dict = {}
        self._data = np.zeros((0, dim), dtype=np.float64)
        #: Row-aligned with ``_data``: the data-side term of the distance
        #: (:meth:`_row_terms`), computed once per row at write time.
        self._terms = np.zeros(0, dtype=np.float64)
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
        Keys not present cost an O(1) dict probe — no scan of the key list."""
        return self.replace_many(keys, ())

    def replace_many(
        self, keys: Iterable[object], items: Sequence[tuple[object, np.ndarray]]
    ) -> int:
        """Drop every row whose key is in ``keys`` and put ``items`` where
        the first of those rows stood — at the end when there was none;
        returns the rows dropped.

        Every other row keeps its place, so replacing a table's rows leaves
        the index in the order its tables were first added. The new rows
        are one block copy and the rows behind them shift once, so a
        whole-table delta costs the same as a single-column one.
        """
        items = list(items)
        doomed = {key for key in keys if key in self._key_counts}
        if not items and not doomed:
            return 0
        block = self._block(items)
        at, tail = self._size, np.zeros(0, dtype=np.intp)
        if doomed:
            gone = np.fromiter(
                (key in doomed for key in self._keys), dtype=bool, count=self._size
            )
            at = int(gone.argmax())
            tail = np.flatnonzero(~gone[at:]) + at
        removed = self._size - at - len(tail)
        tail_rows, tail_terms = self._data[tail], self._terms[tail]
        tail_keys = [self._keys[row] for row in tail.tolist()]
        self._size = at
        self._reserve(len(items) + len(tail))
        end = at + len(items)
        self._data[at:end] = block
        self._terms[at:end] = self._row_terms(block)
        self._data[end : end + len(tail)] = tail_rows
        self._terms[end : end + len(tail)] = tail_terms
        self._size = end + len(tail)
        del self._keys[at:]
        self._keys += [key for key, _ in items] + tail_keys
        for key in doomed:
            del self._key_counts[key]
        for key, _ in items:
            self._key_counts[key] = self._key_counts.get(key, 0) + 1
        return removed

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
        :meth:`query_many` and the sharded merge are built on it.
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
        scores = queries @ data.T  # (q, n)
        if self.metric == "cosine":
            denominator = terms[None, :] * (
                np.linalg.norm(queries, axis=1)[:, None] + 1e-12
            )
            denominator = np.where(denominator == 0.0, 1e-12, denominator)
            distances = 1.0 - scores / denominator
        else:
            squared = (
                (queries**2).sum(axis=1)[:, None] + terms[None, :] - 2.0 * scores
            )
            distances = np.sqrt(np.maximum(squared, 0.0))
        k = min(k, data.shape[0])
        top = np.argpartition(distances, k - 1, axis=1)[:, :k]
        top_distances = np.take_along_axis(distances, top, axis=1)
        order = np.argsort(top_distances, axis=1)
        top = np.take_along_axis(top, order, axis=1)
        top_distances = np.take_along_axis(top_distances, order, axis=1)
        return top, top_distances

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

    def __contains__(self, key) -> bool:
        return key in self._key_counts

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    def state_keys(self) -> list:
        """The row-aligned keys :meth:`restore` takes back (a copy)."""
        return list(self._keys)

    def state_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """A copy of the row-aligned vectors, and the metric: with
        :meth:`state_keys`, everything :meth:`restore` needs."""
        return {"vectors": self._matrix().copy()}, {"metric": self.metric}

    @classmethod
    def restore(
        cls, dim: int, params: dict, keys: list, arrays: dict, meta: dict
    ) -> "KnnIndex":
        """An index over ``keys`` and the row-aligned ``arrays["vectors"]``
        in one block copy, with no per-row insertion — how a lake assembles
        each shard's index from its stored column vectors at open."""
        metric = meta.get("metric", params.get("metric", "cosine"))
        index = cls(dim, metric=metric)
        vectors = np.asarray(arrays["vectors"], dtype=np.float64).reshape(-1, dim)
        if vectors.shape[0] != len(keys):
            raise ValueError(
                f"index state has {vectors.shape[0]} rows but "
                f"{len(keys)} keys"
            )
        index._data = vectors.copy()
        index._terms = index._row_terms(index._data)
        index._size = vectors.shape[0]
        index._keys = list(keys)
        counts: dict = {}
        for key in index._keys:
            counts[key] = counts.get(key, 0) + 1
        index._key_counts = counts
        return index

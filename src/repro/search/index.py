"""Exact k-nearest-neighbour index over dense vectors.

The paper indexes table/column embeddings and retrieves nearest neighbours
("we recommend indexing the datalake offline and at query time only compute
embeddings for the query table"). At reproduction scale an exact vectorized
index is both faster and noise-free; the LSH structures used by specific
baselines live in :mod:`repro.sketch.lsh` / :mod:`repro.sketch.simhash`.

Storage is a capacity-doubling row buffer so the index supports *incremental*
maintenance: ``add``/``add_many`` are amortized O(1) per row (no re-stacking
of the whole corpus on the next query) and ``remove_many`` compacts in one
O(n) pass per batch. This is what lets :mod:`repro.lake` apply one-table
deltas to a standing lake without rebuilding the index.

``query_many`` answers a whole matrix of queries with one BLAS matmul plus
one axis-wise partition — the batched primitive the Fig. 6 NEARTABLES loop
(:class:`repro.search.tables.TableSearcher`) runs on, so a q-column query
table costs one distance computation instead of q Python round-trips.
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

    def _check(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {vector.shape}")
        return vector

    def add(self, key, vector: np.ndarray) -> None:
        """Append one (key, vector) row — amortized O(1)."""
        vector = self._check(vector)
        self._reserve(1)
        self._data[self._size] = vector
        self._keys.append(key)
        self._key_counts[key] = self._key_counts.get(key, 0) + 1
        self._size += 1

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None:
        """Bulk append: one reserve + one block copy for the whole batch."""
        items = list(items)
        if not items:
            return
        block = np.stack([self._check(vector) for _, vector in items])
        self._reserve(len(items))
        self._data[self._size : self._size + len(items)] = block
        for key, _ in items:
            self._keys.append(key)
            self._key_counts[key] = self._key_counts.get(key, 0) + 1
        self._size += len(items)

    # ------------------------------------------------------------------ #
    def remove_many(self, keys: Iterable[object]) -> int:
        """Drop every row whose key is in ``keys``; returns rows removed.

        One compaction pass over the buffer regardless of batch size, so a
        whole-table delta costs the same as a single-column one. Keys not
        present cost an O(1) dict probe — no scan of the key list.
        """
        doomed = {key for key in keys if key in self._key_counts}
        if not doomed:
            return 0
        keep = [i for i, key in enumerate(self._keys) if key not in doomed]
        removed = self._size - len(keep)
        self._data[: len(keep)] = self._data[keep]
        self._keys = [self._keys[i] for i in keep]
        for key in doomed:
            del self._key_counts[key]
        self._size = len(keep)
        return removed

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
        """Top-``k`` (key, distance) lists for every row of ``matrix``.

        One ``(q, dim) @ (dim, n)`` matmul scores all queries against the
        whole corpus, then one axis-wise ``argpartition`` + sort extracts
        each row's top-k — the vectorized form of q separate ``query``
        calls, with identical results.
        """
        with obs.span("index.query", backend="exact") as timed:
            results = self._query_many(matrix, k)
        if obs.enabled():
            _QUERIES.inc(len(results))
            _QUERY_MS.observe(timed.duration_ms)
        return results

    def _query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]:
        queries = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(
                f"expected query matrix (*, {self.dim}), got {queries.shape}"
            )
        data = self._matrix()
        n_queries = queries.shape[0]
        if data.shape[0] == 0 or k <= 0 or n_queries == 0:
            return [[] for _ in range(n_queries)]
        scores = queries @ data.T  # (q, n)
        if self.metric == "cosine":
            denominator = np.linalg.norm(data, axis=1)[None, :] * (
                np.linalg.norm(queries, axis=1)[:, None] + 1e-12
            )
            denominator = np.where(denominator == 0.0, 1e-12, denominator)
            distances = 1.0 - scores / denominator
        else:
            squared = (
                (queries**2).sum(axis=1)[:, None]
                + (data**2).sum(axis=1)[None, :]
                - 2.0 * scores
            )
            distances = np.sqrt(np.maximum(squared, 0.0))
        k = min(k, data.shape[0])
        top = np.argpartition(distances, k - 1, axis=1)[:, :k]
        top_distances = np.take_along_axis(distances, top, axis=1)
        order = np.argsort(top_distances, axis=1)
        top = np.take_along_axis(top, order, axis=1)
        top_distances = np.take_along_axis(top_distances, order, axis=1)
        return [
            [
                (self._keys[int(index)], float(distance))
                for index, distance in zip(row_indices, row_distances)
            ]
            for row_indices, row_distances in zip(top, top_distances)
        ]

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        """Top-``k`` (key, distance) pairs, ascending by distance.

        A batch of one through :meth:`query_many`, so single- and batched-
        query results agree by construction.
        """
        return self.query_many(self._check(vector)[None, :], k)[0]

    def keys(self) -> list:
        return list(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._key_counts

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    def state_keys(self) -> list:
        """Row-aligned keys for persistence (the exact backend has no
        tombstones, so this is just :meth:`keys`)."""
        return list(self._keys)

    def state_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """Persistable state, row-aligned with :meth:`state_keys`.

        The exact backend is fully described by its vector matrix; keys are
        serialized by the persistence layer.
        """
        return {"vectors": self._matrix().copy()}, {"metric": self.metric}

    @classmethod
    def restore(
        cls, dim: int, params: dict, keys: list, arrays: dict, meta: dict
    ) -> "KnnIndex":
        """Rebuild from :meth:`state_arrays` output — one block copy, no
        per-row insertions."""
        metric = meta.get("metric", params.get("metric", "cosine"))
        index = cls(dim, metric=metric)
        vectors = np.asarray(arrays["vectors"], dtype=np.float64).reshape(-1, dim)
        if vectors.shape[0] != len(keys):
            raise ValueError(
                f"persisted index has {vectors.shape[0]} rows but "
                f"{len(keys)} keys"
            )
        index._data = vectors.copy()
        index._size = vectors.shape[0]
        index._keys = list(keys)
        counts: dict = {}
        for key in index._keys:
            counts[key] = counts.get(key, 0) + 1
        index._key_counts = counts
        return index

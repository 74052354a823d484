"""The ``VectorIndex`` protocol, the persisted index spec, and the sharded
merge face.

Everything above the KNN call — the Fig. 6 table ranking, the lake catalog,
the CLI, the benchmark searchers — talks to an index through this protocol:

- ``add`` / ``add_many``      — (key, vector) insertion, bulk-friendly;
- ``remove_many``             — batch deletion by key;
- ``query`` / ``query_many``  — top-k ``(key, distance)`` per query vector,
  ascending by distance; ``query_many`` answers a whole matrix of queries in
  one call (a single BLAS matmul);
- ``keys`` / ``__contains__`` / ``__len__`` — membership, aligned with
  ``state_arrays`` for persistence.

There is one index: :class:`repro.search.index.KnnIndex`, exact brute-force
search with recall 1.0 (README "Vector index" has the measurement that
settles it). :class:`IndexSpec` names it in lake manifests and in the config
fingerprint; :class:`ShardedIndex` puts N of them behind one face.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro import obs
from repro.search.index import KnnIndex

#: Bumped whenever the index's ``state_arrays`` layout changes shape.
INDEX_STATE_VERSION = 1

# Same family index.py registers (registration is idempotent), plus the
# merge-pass histogram only the sharded face owns.
_QUERIES = obs.counter(
    "index_queries_total", "Vector-index query rows answered, by backend", ("backend",)
).labels(backend="sharded")
_QUERY_MS = obs.histogram(
    "index_query_duration_ms",
    "Vector-index query_many latency in milliseconds, by backend",
    ("backend",),
).labels(backend="sharded")
_MERGE_MS = obs.histogram(
    "index_merge_duration_ms",
    "Sharded-index top-k merge latency in milliseconds, per query_many call",
)


@runtime_checkable
class VectorIndex(Protocol):
    """What the ranking code needs from an index (:class:`KnnIndex` and
    the :class:`ShardedIndex` face both provide it)."""

    dim: int
    metric: str

    def add(self, key, vector: np.ndarray) -> None: ...

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None: ...

    def remove_many(self, keys: Iterable[object]) -> int: ...

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]: ...

    def query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]: ...

    def keys(self) -> list: ...

    def state_keys(self) -> list: ...

    def state_arrays(self) -> tuple[dict[str, np.ndarray], dict]: ...

    def __contains__(self, key) -> bool: ...

    def __len__(self) -> int: ...


# --------------------------------------------------------------------- #
# The index spec and its one implementation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class IndexSpec:
    """The persisted name of a lake's vector index.

    The backend is always ``"exact"``; ``params`` carries
    :class:`~repro.search.index.KnnIndex` keyword overrides (``metric``).
    :meth:`to_dict` is written to every lake manifest and hashed into the
    config fingerprint, so the form is deliberately literal: no params and
    ``{"metric": "cosine"}`` are distinct specs, and a lake keeps the
    fingerprint it was written under.
    """

    backend: str = "exact"
    params: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # frozen=True would auto-derive a hash that chokes on the dict
        # field; hash the canonical (sorted) param view instead.
        return hash((self.backend, tuple(sorted(self.params.items()))))

    @classmethod
    def from_dict(cls, raw: dict) -> "IndexSpec":
        return cls(backend=raw["backend"], params=dict(raw.get("params", {})))

    def to_dict(self) -> dict:
        """JSON-stable form (sorted params) for fingerprints/manifests."""
        return {
            "backend": self.backend,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

    def canonical(self) -> str:
        """The one-line form shown in stats (``"exact"``)."""
        if not self.params:
            return self.backend
        tail = ",".join(f"{key}={self.params[key]}" for key in sorted(self.params))
        return f"{self.backend}:{tail}"


def make_index(spec: IndexSpec | None, dim: int) -> KnnIndex:
    """A fresh exact index under ``spec`` (default: cosine)."""
    return KnnIndex(dim, **(spec or IndexSpec()).params)


def restore_index(
    spec: IndexSpec | None,
    dim: int,
    keys: list,
    arrays: dict[str, np.ndarray],
    meta: dict,
) -> KnnIndex:
    """Rebuild a persisted index from its ``state_arrays`` output.

    ``keys`` is the decoded key list, row-aligned with the state arrays
    (key serialization is the persistence layer's concern — the index
    never sees anything but live Python keys).
    """
    return KnnIndex.restore(dim, dict((spec or IndexSpec()).params), keys, arrays, meta)


# --------------------------------------------------------------------- #
# Sharded (multi-index) merge path
# --------------------------------------------------------------------- #
def stable_shard(text: str, n_shards: int) -> int:
    """Deterministic, process- and platform-stable shard of a string key.

    Python's builtin ``hash`` is salted per process, so it can never route
    a persisted table to the same shard twice; a SHA-256 prefix can.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards < 2:
        return 0  # anything % 1 — a one-shard lake pays no digest per key
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class ShardedIndex:
    """N backend indexes behind one :class:`VectorIndex` face.

    Every key is owned by exactly one sub-index (``router(key)`` — the lake
    routes by table name, so a table's columns always land together), which
    makes add/remove a single routed delegation (one shard takes every
    write as-is, with no routing). ``query_many`` fans the whole query
    matrix across the sub-indexes and merges their top-k *arrays*: because
    every sub-index returns *its* top-k, the merged top-k holds the same
    (key, distance) *set* a single flat index over the union would return —
    rankings are shard-count-invariant whenever the distances at the cut
    are distinct. Exact ties are ordered deterministically (stable sort:
    shard order, then the sub-index's own order) but not necessarily as a
    flat index's argpartition would break them; identical vectors *within*
    one table co-locate by construction, so the routine duplicate case (a
    table's over-budget fallback columns) can never straddle shards.

    Persistence is deliberately *not* monolithic: callers save each
    sub-index beside its shard's data (``subs``), and :meth:`dirty_shards`
    names the sub-indexes mutated since the last :meth:`mark_clean`, so an
    incremental delta rewrites one shard's artifact, not all of them.
    """

    def __init__(
        self,
        dim: int,
        subs: Sequence[KnnIndex],
        router: Callable[[object], int],
        factory: Callable[[], KnnIndex] | None = None,
        restored_shards: Iterable[int] = (),
    ):
        if not subs:
            raise ValueError("ShardedIndex needs at least one sub-index")
        self.dim = dim
        self.subs: list[KnnIndex] = list(subs)
        self.router = router
        self.factory = factory
        self.metric = self.subs[0].metric
        #: Shards restored from persistence (set by the store's loader);
        #: everything else is fresh and needs a rebuild from records.
        self.restored_shards = set(restored_shards)
        self._dirty: set[int] = set()

    @property
    def n_shards(self) -> int:
        return len(self.subs)

    def shard_of(self, key) -> int:
        shard = self.router(key)
        if not 0 <= shard < len(self.subs):
            raise ValueError(
                f"router sent {key!r} to shard {shard} of {len(self.subs)}"
            )
        return shard

    def reset_shard(self, shard: int) -> None:
        """Replace one sub-index with a fresh empty one (rebuild seam).

        The shard is dirty from here on: whatever artifact is persisted
        for it no longer describes the sub-index, even if nothing is ever
        re-added (a rebuilt-but-empty shard still has to heal on disk).
        """
        if self.factory is None:
            raise ValueError("ShardedIndex has no factory to reset shards with")
        self.subs[shard] = self.factory()
        self.restored_shards.discard(shard)
        self._dirty.add(shard)

    # -- mutation ------------------------------------------------------- #
    def add(self, key, vector: np.ndarray) -> None:
        shard = self.shard_of(key)
        self.subs[shard].add(key, vector)
        self._dirty.add(shard)

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None:
        items = list(items)
        if len(self.subs) == 1:
            groups = {0: items} if items else {}
        else:
            groups = defaultdict(list)
            for key, vector in items:
                groups[self.shard_of(key)].append((key, vector))
        for shard, group in groups.items():
            self.subs[shard].add_many(group)
            self._dirty.add(shard)

    def remove_many(self, keys: Iterable[object]) -> int:
        if len(self.subs) == 1:
            groups = {0: keys}
        else:
            groups = defaultdict(list)
            for key in keys:
                groups[self.shard_of(key)].append(key)
        removed = 0
        for shard, group in groups.items():
            count = self.subs[shard].remove_many(group)
            if count:
                self._dirty.add(shard)
            removed += count
        return removed

    # -- queries -------------------------------------------------------- #
    def query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]:
        """Fan one query matrix across every sub-index, merge as arrays.

        Each populated sub-index answers the whole matrix in one batched
        :meth:`KnnIndex.top_k` call (row ids and distances, ascending). The
        per-shard blocks are concatenated in shard order and cut to ``k``
        with one stable argsort, so distance ties keep shard order, then
        the sub-index's own order — the order a k-way ``heapq.merge`` of
        the same lists yields. Only the ``k`` survivors per query row
        become (key, distance) tuples.
        """
        queries = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        n_queries = queries.shape[0]
        if k <= 0 or n_queries == 0:
            return [[] for _ in range(n_queries)]
        with obs.span("index.query", backend="sharded", shards=len(self.subs)) as timed:
            live = [sub for sub in self.subs if len(sub)]
            if not live:
                results: list[list[tuple[object, float]]] = [
                    [] for _ in range(n_queries)
                ]
            elif len(live) == 1:
                results = live[0].query_many(queries, k)
            else:
                answers = [sub.top_k(queries, k) for sub in live]
                with obs.span("index.merge", shards=len(live)) as merge:
                    results = _merge_top_k(live, answers, k)
                if obs.enabled():
                    _MERGE_MS.observe(merge.duration_ms)
        if obs.enabled():
            _QUERIES.inc(n_queries)
            _QUERY_MS.observe(timed.duration_ms)
        return results

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        return self.query_many(np.asarray(vector, dtype=np.float64)[None, :], k)[0]

    # -- membership / state --------------------------------------------- #
    def keys(self) -> list:
        return [key for sub in self.subs for key in sub.keys()]

    def __contains__(self, key) -> bool:
        return key in self.subs[self.shard_of(key)]

    def __len__(self) -> int:
        return sum(len(sub) for sub in self.subs)

    def dirty_shards(self) -> set[int]:
        """Sub-indexes mutated since the last :meth:`mark_clean`."""
        return set(self._dirty)

    def mark_clean(self, shards: Iterable[int] | None = None) -> None:
        """Forget the mutations of ``shards`` (default: all) — their
        artifacts were just persisted."""
        if shards is None:
            self._dirty.clear()
        else:
            self._dirty.difference_update(shards)

    def state_keys(self) -> list:
        raise NotImplementedError(
            "a ShardedIndex persists per shard — save each sub-index via "
            "subs[k].state_keys()/state_arrays()"
        )

    def state_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        raise NotImplementedError(
            "a ShardedIndex persists per shard — save each sub-index via "
            "subs[k].state_keys()/state_arrays()"
        )


def _merge_top_k(
    subs: "list[KnnIndex]",
    answers: "list[tuple[np.ndarray, np.ndarray]]",
    k: int,
) -> list[list[tuple[object, float]]]:
    """Merge per-sub :meth:`KnnIndex.top_k` arrays into top-``k`` hit lists."""
    rows = np.concatenate([ids for ids, _ in answers], axis=1)
    distances = np.concatenate([dists for _, dists in answers], axis=1)
    owners = np.repeat(
        np.arange(len(answers)), [ids.shape[1] for ids, _ in answers]
    )
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    rows = np.take_along_axis(rows, order, axis=1)
    distances = np.take_along_axis(distances, order, axis=1)
    keys = [sub.row_keys for sub in subs]
    return [
        [
            (keys[owner][row], distance)
            for owner, row, distance in zip(row_owners, row_ids, row_distances)
        ]
        for row_owners, row_ids, row_distances in zip(
            owners[order].tolist(), rows.tolist(), distances.tolist()
        )
    ]


def make_sharded_index(
    spec: IndexSpec | None,
    dim: int,
    n_shards: int,
    router: Callable[[object], int],
) -> ShardedIndex:
    """N fresh exact indexes for ``spec`` behind one sharded face."""
    return ShardedIndex(
        dim,
        subs=[make_index(spec, dim) for _ in range(n_shards)],
        router=router,
        factory=lambda: make_index(spec, dim),
    )

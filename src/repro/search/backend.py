"""The ``VectorIndex`` protocol, the persisted index spec, and the sharded
merge face.

Everything above the KNN call — the Fig. 6 table ranking, the lake catalog,
the CLI, the benchmark searchers — talks to an index through this protocol:

- ``add`` / ``add_many``      — (key, vector) insertion, bulk-friendly;
- ``replace_many``            — swap rows in place, keeping their position;
- ``remove_many``             — batch deletion by key;
- ``query`` / ``query_many``  — top-k ``(key, distance)`` per query vector,
  ascending by distance; ``query_many`` answers a whole matrix of queries in
  one call (a single BLAS matmul);
- ``keys`` / ``__contains__`` / ``__len__`` — membership.

The Fig. 6 ranking itself reads :meth:`ShardedIndex.top_k`, the arrays
``query_many``'s tuples are built from, so it builds no tuple per candidate.

There is one index: :class:`repro.search.index.KnnIndex`, exact brute-force
search with recall 1.0 (README "Vector index" has the measurement that
settles it). :class:`IndexSpec` names it in lake manifests and in the config
fingerprint; :class:`ShardedIndex` puts N of them behind one face. The
index is derived state: a lake never persists it, and a warm open
assembles it from the stored column vectors
(:meth:`repro.lake.store.LakeStore.load_index`).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro import obs
from repro.search.index import KnnIndex

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

    def replace_many(
        self, keys: Iterable[object], items: Sequence[tuple[object, np.ndarray]]
    ) -> int: ...

    def remove_many(self, keys: Iterable[object]) -> int: ...

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]: ...

    def query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]: ...

    def keys(self) -> list: ...

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
    makes add/replace/remove a single routed delegation (one shard takes
    every write as-is, with no routing). :meth:`top_k` fans the whole query
    matrix across the sub-indexes and merges their top-k *arrays*: because
    every sub-index returns *its* top-k, the merged top-k holds the same
    (key, distance) *set* a single flat index over the union would return —
    rankings are shard-count-invariant whenever the distances at the cut
    are distinct. Exact ties are ordered deterministically (stable sort:
    shard order, then the sub-index's own order) but not necessarily as a
    flat index's argpartition would break them; identical vectors *within*
    one table co-locate by construction, so the routine duplicate case (a
    table's over-budget fallback columns) can never straddle shards.

    Nothing here is persisted: a lake assembles each sub-index from its
    shard's stored vectors at open.
    """

    def __init__(
        self,
        dim: int,
        subs: Sequence[KnnIndex],
        router: Callable[[object], int],
    ):
        if not subs:
            raise ValueError("ShardedIndex needs at least one sub-index")
        self.dim = dim
        self.subs: list[KnnIndex] = list(subs)
        self.router = router
        self.metric = self.subs[0].metric

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

    # -- mutation ------------------------------------------------------- #
    def add(self, key, vector: np.ndarray) -> None:
        self.add_many([(key, vector)])

    def add_many(self, items: Sequence[tuple[object, np.ndarray]]) -> None:
        self.replace_many((), items)

    def remove_many(self, keys: Iterable[object]) -> int:
        return self.replace_many(keys, ())

    def replace_many(
        self, keys: Iterable[object], items: Sequence[tuple[object, np.ndarray]]
    ) -> int:
        """Route each old key and each new row to its owner, then let every
        touched sub-index replace in place (:meth:`KnnIndex.replace_many`);
        one shard takes the write as-is. Returns the rows dropped."""
        if len(self.subs) == 1:
            return self.subs[0].replace_many(keys, items)
        old: dict[int, list] = defaultdict(list)
        new: dict[int, list] = defaultdict(list)
        for key in keys:
            old[self.shard_of(key)].append(key)
        for item in items:
            new[self.shard_of(item[0])].append(item)
        return sum(
            self.subs[shard].replace_many(old[shard], new[shard])
            for shard in sorted(old.keys() | new.keys())
        )

    # -- queries -------------------------------------------------------- #
    def top_k(
        self, matrix: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every query row's merged top-``k`` as ``(shard, row, distance)``
        arrays, ascending; ``subs[shard].row_keys[row]`` is a hit's key.

        Each populated sub-index answers the whole matrix in one batched
        :meth:`KnnIndex.top_k` call (row ids and distances, ascending). The
        per-shard blocks are concatenated in shard order and cut to ``k``
        with one stable argsort, so distance ties keep shard order, then
        the sub-index's own order — the order a k-way ``heapq.merge`` of
        the same lists yields. One populated shard passes straight through.
        This is the face's one query routine: :meth:`query_many` and the
        table ranking (:meth:`repro.search.tables.TableSearcher.rank`) are
        built on it.
        """
        queries = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        n_queries = queries.shape[0]
        if k <= 0 or n_queries == 0:
            return _no_hits(n_queries)
        with obs.span("index.query", backend="sharded", shards=len(self.subs)) as timed:
            live = [shard for shard, sub in enumerate(self.subs) if len(sub)]
            if not live:
                hits = _no_hits(n_queries)
            elif len(live) == 1:
                rows, distances = self.subs[live[0]].top_k(queries, k)
                hits = (np.full(rows.shape, live[0], dtype=np.intp), rows, distances)
            else:
                answers = [self.subs[shard].top_k(queries, k) for shard in live]
                with obs.span("index.merge", shards=len(live)) as merge:
                    hits = _merge_top_k(live, answers, k)
                if obs.enabled():
                    _MERGE_MS.observe(merge.duration_ms)
        if obs.enabled():
            _QUERIES.inc(n_queries)
            _QUERY_MS.observe(timed.duration_ms)
        return hits

    def query_many(
        self, matrix: np.ndarray, k: int
    ) -> list[list[tuple[object, float]]]:
        """:meth:`top_k` as (key, distance) lists, one per query row."""
        shards, rows, distances = self.top_k(matrix, k)
        keys = [sub.row_keys for sub in self.subs]
        return [
            [
                (keys[shard][row], distance)
                for shard, row, distance in zip(row_shards, row_ids, row_distances)
            ]
            for row_shards, row_ids, row_distances in zip(
                shards.tolist(), rows.tolist(), distances.tolist()
            )
        ]

    def query(self, vector: np.ndarray, k: int) -> list[tuple[object, float]]:
        return self.query_many(np.asarray(vector, dtype=np.float64)[None, :], k)[0]

    # -- membership --------------------------------------------------- #
    def keys(self) -> list:
        return [key for sub in self.subs for key in sub.keys()]

    def __contains__(self, key) -> bool:
        return key in self.subs[self.shard_of(key)]

    def __len__(self) -> int:
        return sum(len(sub) for sub in self.subs)


def _no_hits(n_queries: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    empty = np.zeros((n_queries, 0), dtype=np.intp)
    return empty, empty, np.zeros((n_queries, 0), dtype=np.float64)


def _merge_top_k(
    shards: "list[int]",
    answers: "list[tuple[np.ndarray, np.ndarray]]",
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the ``shards``' :meth:`KnnIndex.top_k` arrays into one
    ``(shard, row, distance)`` top-``k``."""
    rows = np.concatenate([ids for ids, _ in answers], axis=1)
    distances = np.concatenate([dists for _, dists in answers], axis=1)
    owners = np.repeat(shards, [ids.shape[1] for ids, _ in answers])
    order = np.argsort(distances, axis=1, kind="stable")[:, :k]
    at = np.arange(order.shape[0])[:, None]
    return owners[order], rows[at, order], distances[at, order]


def make_sharded_index(
    spec: IndexSpec | None,
    dim: int,
    n_shards: int,
    router: Callable[[object], int],
) -> ShardedIndex:
    """N fresh exact indexes for ``spec`` behind one sharded face."""
    return ShardedIndex(
        dim, subs=[make_index(spec, dim) for _ in range(n_shards)], router=router
    )

"""Pluggable vector-index backends behind one ``VectorIndex`` protocol.

Everything above the KNN call — the Fig. 6 table ranking, the lake catalog,
the CLI, the benchmark searchers — talks to an index through this protocol:

- ``add`` / ``add_many``      — (key, vector) insertion, bulk-friendly;
- ``remove_many``             — batch deletion by key;
- ``query`` / ``query_many``  — top-k ``(key, distance)`` per query vector,
  ascending by distance; ``query_many`` answers a whole matrix of queries in
  one call (for the exact backend that is a single BLAS matmul);
- ``keys`` / ``__contains__`` / ``__len__`` — membership, aligned with
  ``state_arrays`` for persistence.

Backends are constructed from an :class:`IndexSpec` — a named backend plus
its hyperparameters — via :func:`make_index`. The spec has a canonical
string form (``"exact"``, ``"hnsw:m=12,ef_search=48"``) used by CLI flags
and folded into the lake config fingerprint, so stores built under one
backend never silently cross-load under another.

Registered backends:

- ``"exact"`` — :class:`repro.search.index.KnnIndex`, brute force, recall
  1.0; params: ``metric``.
- ``"hnsw"``  — :class:`repro.search.hnsw.HnswIndex`, the approximate
  structure Starmie/DeepJoin use to scale column search to large lakes;
  params: ``metric``, ``m``, ``ef_construction``, ``ef_search``, ``seed``.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro import obs

#: Bumped whenever a backend's ``state_arrays`` layout changes shape.
INDEX_STATE_VERSION = 1

# Same family index.py / hnsw.py register (registration is idempotent),
# plus the merge-pass histogram only the sharded face owns.
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
    "Sharded-index k-way merge latency in milliseconds, per query_many call",
)


@runtime_checkable
class VectorIndex(Protocol):
    """What every index backend must implement."""

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
# Index specifications
# --------------------------------------------------------------------- #
def _parse_value(text: str):
    """``"8"`` -> 8, ``"0.5"`` -> 0.5, anything else stays a string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


@dataclass(frozen=True)
class IndexSpec:
    """A named backend plus its hyperparameters.

    ``params`` only carries *overrides*; backend defaults fill the rest at
    construction time, so two spellings of the same configuration ("hnsw"
    vs "hnsw:m=12" when 12 is the default) are distinct specs — the
    fingerprint is deliberately literal about what was requested.
    """

    backend: str = "exact"
    params: dict = field(default_factory=dict)

    def __hash__(self) -> int:
        # frozen=True would auto-derive a hash that chokes on the dict
        # field; hash the canonical (sorted) param view instead.
        return hash((self.backend, tuple(sorted(self.params.items()))))

    @classmethod
    def parse(cls, text: str) -> "IndexSpec":
        """``"hnsw:m=16,ef_search=48"`` -> IndexSpec("hnsw", {...})."""
        text = text.strip()
        if not text:
            raise ValueError("empty index spec")
        name, _, tail = text.partition(":")
        params: dict = {}
        if tail:
            for item in tail.split(","):
                key, sep, value = item.partition("=")
                if not sep or not key.strip():
                    raise ValueError(
                        f"bad index-spec parameter {item!r} in {text!r}; "
                        "expected key=value"
                    )
                params[key.strip()] = _parse_value(value.strip())
        return cls(backend=name.strip(), params=params)

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
        """The parseable one-line form shown in CLIs and stats."""
        if not self.params:
            return self.backend
        tail = ",".join(f"{key}={self.params[key]}" for key in sorted(self.params))
        return f"{self.backend}:{tail}"

    def with_defaults(self, **defaults) -> "IndexSpec":
        merged = {**defaults, **self.params}
        return IndexSpec(backend=self.backend, params=merged)


def normalize_index_spec(
    spec: "IndexSpec | str | None", **defaults
) -> IndexSpec:
    """Coerce ``None`` / a spec string / an IndexSpec into an IndexSpec.

    ``defaults`` (e.g. ``metric="cosine"``) fill parameters the spec leaves
    unset, so callers with their own metric knob stay authoritative without
    clobbering an explicit spec override. A default the backend does not
    declare is dropped, not forced — a custom backend without a ``metric``
    knob must still plug in.
    """
    if spec is None:
        spec = IndexSpec()
    elif isinstance(spec, str):
        spec = IndexSpec.parse(spec)
    elif not isinstance(spec, IndexSpec):
        raise TypeError(f"cannot interpret {spec!r} as an index spec")
    if not defaults:
        return spec
    registered = _REGISTRY.get(spec.backend)
    if registered is not None:
        allowed = registered[2]
        defaults = {
            name: value for name, value in defaults.items() if name in allowed
        }
    return spec.with_defaults(**defaults) if defaults else spec


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
#: name -> (factory(dim, **params), restorer(dim, params, keys, arrays, meta),
#:          {param name -> expected type(s)})
_REGISTRY: dict[str, tuple[Callable, Callable, dict]] = {}


def register_backend(
    name: str, factory: Callable, restorer: Callable, params: dict | None = None
) -> None:
    """Register (or replace) a backend under ``name``.

    ``params`` maps the backend's accepted hyperparameter names to their
    expected type(s), so a typo'd spec fails with a clean :class:`ValueError`
    at validation time instead of a ``TypeError`` deep inside construction.
    """
    _REGISTRY[name] = (factory, restorer, dict(params or {}))


def available_backends() -> list[str]:
    return sorted(_REGISTRY)


def _lookup(name: str) -> tuple[Callable, Callable, dict]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown index backend {name!r}; available: {available_backends()}"
        ) from None


def validate_index_spec(spec: IndexSpec | str | None) -> IndexSpec:
    """Check a spec against its backend's declared hyperparameters.

    Raises :class:`ValueError` (never ``TypeError``) on an unknown backend,
    an unknown parameter name, or a wrong-typed value — cheap enough to run
    *before* any expensive work a caller would otherwise waste.
    """
    spec = normalize_index_spec(spec)
    _, _, allowed = _lookup(spec.backend)
    for name, value in spec.params.items():
        if name not in allowed:
            raise ValueError(
                f"index backend {spec.backend!r} has no parameter {name!r}; "
                f"accepted: {sorted(allowed)}"
            )
        expected = allowed[name]
        if not isinstance(value, expected):
            wanted = (
                "/".join(t.__name__ for t in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            raise ValueError(
                f"index-backend parameter {name}={value!r} must be {wanted}"
            )
    return spec


def make_index(spec: IndexSpec | str | None, dim: int) -> VectorIndex:
    """Build a fresh index for ``spec`` (default: the exact backend)."""
    spec = validate_index_spec(spec)
    factory, _, _ = _lookup(spec.backend)
    return factory(dim, **spec.params)


def restore_index(
    spec: IndexSpec | str | None,
    dim: int,
    keys: list,
    arrays: dict[str, np.ndarray],
    meta: dict,
) -> VectorIndex:
    """Rebuild a persisted index from its ``state_arrays`` output.

    ``keys`` is the decoded key list, row-aligned with the state arrays
    (key serialization is the persistence layer's concern — backends never
    see anything but live Python keys).
    """
    spec = normalize_index_spec(spec)
    _, restorer, _ = _lookup(spec.backend)
    return restorer(dim, dict(spec.params), keys, arrays, meta)


# --------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------- #
def _register_builtins() -> None:
    from repro.search.hnsw import HnswIndex
    from repro.search.index import KnnIndex

    register_backend(
        "exact", KnnIndex, KnnIndex.restore, params={"metric": str}
    )

    def _hnsw_factory(dim: int, **params) -> HnswIndex:
        # Protocol parity with the exact backend: cosine unless overridden.
        params.setdefault("metric", "cosine")
        return HnswIndex(dim, **params)

    def _hnsw_restore(dim, params, keys, arrays, meta) -> HnswIndex:
        params = dict(params)
        params.setdefault("metric", "cosine")
        return HnswIndex.restore(dim, params, keys, arrays, meta)

    register_backend(
        "hnsw",
        _hnsw_factory,
        _hnsw_restore,
        params={
            "metric": str,
            "m": int,
            "ef_construction": int,
            "ef_search": int,
            "seed": int,
            "compact_ratio": (int, float),
            "compact_min": int,
        },
    )


_register_builtins()


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
    makes add/remove a single routed delegation. ``query_many`` fans the
    whole query matrix across the sub-indexes and k-way merges each row's
    sorted hit lists: because every sub-index returns *its* top-k, the
    merged top-k holds the same (key, distance) *set* a single flat index
    over the union would return — rankings are shard-count-invariant
    whenever the distances at the cut are distinct. Exact ties are ordered
    deterministically (stable merge: shard order, then the sub-index's own
    order) but not necessarily as a flat index's argpartition would break
    them; identical vectors *within* one table co-locate by construction,
    so the routine duplicate case (a table's over-budget fallback columns)
    can never straddle shards.

    Persistence is deliberately *not* monolithic: callers save each
    sub-index beside its shard's data (``subs``), and :meth:`dirty_shards`
    names the sub-indexes mutated since the last :meth:`mark_clean`, so an
    incremental delta rewrites one shard's artifact, not all of them.
    """

    def __init__(
        self,
        dim: int,
        subs: Sequence[VectorIndex],
        router: Callable[[object], int],
        factory: Callable[[], VectorIndex] | None = None,
        restored_shards: Iterable[int] = (),
    ):
        if not subs:
            raise ValueError("ShardedIndex needs at least one sub-index")
        self.dim = dim
        self.subs: list[VectorIndex] = list(subs)
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
        groups: dict[int, list] = defaultdict(list)
        for key, vector in items:
            groups[self.shard_of(key)].append((key, vector))
        for shard, group in groups.items():
            self.subs[shard].add_many(group)
            self._dirty.add(shard)

    def remove_many(self, keys: Iterable[object]) -> int:
        groups: dict[int, list] = defaultdict(list)
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
        """Fan one query matrix across every sub-index, k-way merge rows.

        Each populated sub-index answers the whole matrix in one batched
        call; per query row the sorted per-shard hit lists merge in one
        ``heapq.merge`` pass (stable: distance ties keep shard order).
        """
        queries = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        n_queries = queries.shape[0]
        if k <= 0 or n_queries == 0:
            return [[] for _ in range(n_queries)]
        with obs.span("index.query", backend="sharded", shards=len(self.subs)) as timed:
            per_sub = [sub.query_many(queries, k) for sub in self.subs if len(sub)]
            if not per_sub:
                results: list[list[tuple[object, float]]] = [
                    [] for _ in range(n_queries)
                ]
            elif len(per_sub) == 1:
                results = per_sub[0]
            else:
                with obs.span("index.merge", shards=len(per_sub)) as merge:
                    results = [
                        list(islice(heapq.merge(*rows, key=lambda hit: hit[1]), k))
                        for rows in zip(*per_sub)
                    ]
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

    def mark_clean(self) -> None:
        self._dirty.clear()

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


def make_sharded_index(
    spec: IndexSpec | str | None,
    dim: int,
    n_shards: int,
    router: Callable[[object], int],
) -> ShardedIndex:
    """N fresh backend indexes for ``spec`` behind one sharded face."""
    spec = validate_index_spec(spec)
    return ShardedIndex(
        dim,
        subs=[make_index(spec, dim) for _ in range(n_shards)],
        router=router,
        factory=lambda: make_index(spec, dim),
    )

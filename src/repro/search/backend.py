"""The persisted index spec, its one index, and the shard hash.

There is one vector index: :class:`repro.search.index.KnnIndex`, exact
brute-force search with recall 1.0 (CHANGES.md's entry for the deleted
HNSW backend has the measurement that settles it). :class:`IndexSpec` names it in lake manifests
and in the config fingerprint, and :func:`make_index` builds it. A lake
serves one index over every column whatever its shard count: shards are an
on-disk partition (:func:`stable_shard` routes a table to one), and the
index is derived state that a lake never persists. A warm open assembles it
from the stored column vectors
(:meth:`repro.lake.store.LakeStore.load_served`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.search.index import KnnIndex


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


def make_index(spec: IndexSpec | None, dim: int, num_perm: int = 0) -> KnnIndex:
    """A fresh exact index under ``spec`` (default: cosine), its rows
    holding ``num_perm`` signature slots beside each vector."""
    return KnnIndex(dim, num_perm=num_perm, **(spec or IndexSpec()).params)


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

"""SimHash: LSH over dense embedding vectors, and a mergeable item sketch.

WarpGate (Cong et al., CIDR 2023) indexes column embeddings with SimHash:
random hyperplanes turn a vector into a bit signature; Hamming-close
signatures imply high cosine similarity. We implement the index with
multi-probe bucket lookup plus exact cosine re-ranking of candidates.

:class:`SimHashSketch` is the other classic SimHash (Charikar 2002) — a
fingerprint of a *multiset of strings*, kept in the pre-thresholded form
(one signed vote counter per bit) precisely so it merges: adding the
counters of two sketches yields bit-for-bit the sketch of the combined
multiset, which is what live-table appends need.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.utils.hashing import hash_strings
from repro.utils.rng import spawn_rng


class SimHashIndex:
    """Random-hyperplane LSH with ``num_tables`` independent signatures."""

    def __init__(self, dim: int, bits: int = 16, num_tables: int = 4, seed: int = 7):
        self.dim = dim
        self.bits = bits
        self.num_tables = num_tables
        rng = spawn_rng(seed, "simhash")
        self._planes = rng.normal(size=(num_tables, bits, dim))
        self._buckets: list[dict[int, list]] = [defaultdict(list) for _ in range(num_tables)]
        self._vectors: dict = {}

    def _signature(self, table_index: int, vector: np.ndarray) -> int:
        bits = (self._planes[table_index] @ vector) >= 0.0
        out = 0
        for bit in bits:
            out = (out << 1) | int(bit)
        return out

    def insert(self, key, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {vector.shape}")
        self._vectors[key] = vector
        for t in range(self.num_tables):
            self._buckets[t][self._signature(t, vector)].append(key)

    def query(self, vector: np.ndarray, k: int) -> list:
        """Top-``k`` keys by cosine similarity among LSH candidates.

        Falls back to brute force when the buckets yield fewer than ``k``
        candidates, so recall never collapses on small corpora.
        """
        vector = np.asarray(vector, dtype=np.float64)
        candidates: set = set()
        for t in range(self.num_tables):
            candidates.update(self._buckets[t].get(self._signature(t, vector), ()))
        if len(candidates) < k:
            candidates = set(self._vectors)
        scored = sorted(
            candidates, key=lambda key: -_cosine(vector, self._vectors[key])
        )
        return scored[:k]

    def __len__(self) -> int:
        return len(self._vectors)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(a @ b) / denom


#: Default SimHashSketch width — one machine word.
SIMHASH_BITS = 64


@dataclass(frozen=True)
class SimHashSketch:
    """Charikar SimHash of a multiset of strings, in mergeable form.

    ``counts[i]`` is the signed vote of bit ``i`` — the number of items
    whose hash has bit ``i`` set minus the number whose hash has it clear.
    The fingerprint thresholds the votes at zero. Because the votes are
    plain sums, ``merge`` is elementwise addition and is *exact*: merging
    the sketches of two multisets equals sketching their concatenation.
    """

    counts: np.ndarray  # int64[bits], signed bit votes

    @property
    def bits(self) -> int:
        return int(self.counts.shape[0])

    def merge(self, other: "SimHashSketch") -> "SimHashSketch":
        """Sketch of the combined multiset — exact, by vote addition."""
        if self.bits != other.bits:
            raise ValueError(f"bit widths differ: {self.bits} vs {other.bits}")
        return SimHashSketch(self.counts + other.counts)

    def fingerprint(self) -> np.ndarray:
        """The thresholded bit vector, ``uint8[bits]`` of 0/1."""
        return (self.counts > 0).astype(np.uint8)

    def hamming(self, other: "SimHashSketch") -> int:
        """Hamming distance between the two fingerprints."""
        if self.bits != other.bits:
            raise ValueError(f"bit widths differ: {self.bits} vs {other.bits}")
        return int(np.sum(self.fingerprint() != other.fingerprint()))


def simhash_sketch(items: Iterable[str], bits: int = SIMHASH_BITS) -> SimHashSketch:
    """SimHash the *multiset* of items (duplicates vote repeatedly).

    Item bits come from splitmix64-finalized FNV-1a hashes — fully
    deterministic across processes, matching the repo-wide bitwise-
    reproducibility contract. Widths beyond 64 draw further splitmix
    words from the same seed hash.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    counts = np.zeros(bits, dtype=np.int64)
    n_words = -(-bits // 64)
    raw = hash_strings(items)
    if raw.size == 0:
        return SimHashSketch(counts)
    with np.errstate(over="ignore"):
        for w in range(n_words):
            x = raw + np.uint64(w) * np.uint64(0x9E3779B97F4A7C15)
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
            for b in range(min(64, bits - w * 64)):
                bit = (x >> np.uint64(b)) & np.uint64(1)
                votes = bit.astype(np.int64) * 2 - 1
                counts[w * 64 + b] = int(votes.sum())
    return SimHashSketch(counts)

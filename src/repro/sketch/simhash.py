"""SimHash: LSH over dense embedding vectors.

WarpGate (Cong et al., CIDR 2023) indexes column embeddings with SimHash:
random hyperplanes turn a vector into a bit signature; Hamming-close
signatures imply high cosine similarity. We implement the index with
multi-probe bucket lookup plus exact cosine re-ranking of candidates.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

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
        """Top-``k`` keys by cosine similarity among LSH candidates, ties in
        insertion order.

        Falls back to brute force when the buckets yield fewer than ``k``
        candidates, so recall never collapses on small corpora.
        """
        vector = np.asarray(vector, dtype=np.float64)
        candidates: set = set()
        for t in range(self.num_tables):
            candidates.update(self._buckets[t].get(self._signature(t, vector), ()))
        if len(candidates) < k:
            candidates = set(self._vectors)
        # Walk the insertion-ordered dict, not the set: a set of string keys
        # iterates in salted-hash order, and the stable sort would keep it.
        pool = [key for key in self._vectors if key in candidates]
        scored = sorted(pool, key=lambda key: -_cosine(vector, self._vectors[key]))
        return scored[:k]

    def __len__(self) -> int:
        return len(self._vectors)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(a @ b) / denom

"""LSH Forest over MinHash signatures: prefix-tree LSH supporting top-k
queries without a fixed threshold (Bawa et al., WWW 2005), the paper's
"LSH-Forest" join baseline."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.sketch.minhash import MinHash, estimate_jaccard


@dataclass
class _ForestEntry:
    key: object
    sketch: MinHash


class LshForest:
    """LSH Forest: ``l`` prefix trees over permuted MinHash signatures.

    Top-k retrieval proceeds by longest-prefix collision: starting from the
    maximum depth, shrink the matched prefix until at least ``k`` candidates
    are collected, then rank candidates by estimated Jaccard.
    """

    def __init__(self, num_perm: int, num_trees: int = 8):
        if num_perm % num_trees != 0:
            raise ValueError(
                f"num_trees={num_trees} must divide num_perm={num_perm}"
            )
        self.num_perm = num_perm
        self.num_trees = num_trees
        self.depth = num_perm // num_trees
        # tree -> prefix-length -> prefix-tuple -> set of entry indices
        self._buckets: list[list[dict[tuple, set[int]]]] = [
            [defaultdict(set) for _ in range(self.depth + 1)]
            for _ in range(num_trees)
        ]
        self._entries: list[_ForestEntry] = []

    def insert(self, key, sketch: MinHash) -> None:
        if sketch.num_perm != self.num_perm:
            raise ValueError("sketch width mismatch")
        index = len(self._entries)
        self._entries.append(_ForestEntry(key, sketch))
        for t in range(self.num_trees):
            chunk = sketch.signature[t * self.depth : (t + 1) * self.depth]
            for d in range(1, self.depth + 1):
                self._buckets[t][d][tuple(int(x) for x in chunk[:d])].add(index)

    def query(self, sketch: MinHash, k: int) -> list:
        """Top-``k`` keys by estimated Jaccard among prefix-collision candidates."""
        if not self._entries:
            return []
        candidates: set[int] = set()
        for d in range(self.depth, 0, -1):
            for t in range(self.num_trees):
                chunk = sketch.signature[t * self.depth : (t + 1) * self.depth]
                candidates |= self._buckets[t][d].get(
                    tuple(int(x) for x in chunk[:d]), set()
                )
            if len(candidates) >= k:
                break
        scored = sorted(
            candidates,
            key=lambda i: -estimate_jaccard(sketch, self._entries[i].sketch),
        )
        return [self._entries[i].key for i in scored[:k]]

    def __len__(self) -> int:
        return len(self._entries)

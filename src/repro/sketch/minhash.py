"""MinHash: min-wise hashing for Jaccard/containment estimation.

A MinHash signature of a set ``S`` is ``sig_i = min_{x in S} h_i(x)`` for
``k`` independent hash functions ``h_i``. The fraction of matching signature
positions between two sets is an unbiased estimator of their Jaccard
similarity (Broder 1997; Leskovec et al., "Mining of Massive Datasets").

Each ``h_i`` is a multiply-shift hash ``(a_i * fnv64(x) + b_i) mod 2^64`` with
odd ``a_i`` (Dietzfelbinger's universal family); numpy's wrapping ``uint64``
arithmetic computes the whole (k, n) hash matrix in one vectorized pass, and
``np.minimum.reduceat`` reads the signatures of many sets off one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils.hashing import hash_strings
from repro.utils.rng import spawn_rng

#: Default signature length; matches datasketch's default of 128.
DEFAULT_NUM_PERM = 128

#: Sentinel for the empty set (no hash can reach it in practice).
EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Largest (k, n) hash matrix ``signatures`` materializes at once, in
#: elements (2 MB of uint64); wider inputs are hashed a few permutations at
#: a time, so scratch memory does not grow with the batch.
_MATRIX_ELEMENTS = 1 << 18

_U64_SCALE = float(2**64)


@dataclass(frozen=True)
class MinHash:
    """An immutable MinHash signature."""

    signature: np.ndarray  # uint64[k]

    @property
    def num_perm(self) -> int:
        return int(self.signature.shape[0])

    def jaccard(self, other: "MinHash") -> float:
        """Estimated Jaccard similarity against ``other``."""
        return estimate_jaccard(self, other)

    def is_empty(self) -> bool:
        return bool(np.all(self.signature == EMPTY_SLOT))

    def merge(self, other: "MinHash") -> "MinHash":
        """Signature of the *union* of the two underlying sets — exact.

        Slotwise ``min(sig_a, sig_b)`` equals ``min_{x in A ∪ B} h_i(x)``
        by associativity of ``min``, so merging sketches is lossless: the
        merged signature is bit-identical to sketching the union directly.
        The empty-set sentinel is the ``uint64`` maximum, so empty inputs
        need no special casing.
        """
        if self.num_perm != other.num_perm:
            raise ValueError(
                f"signature lengths differ: {self.num_perm} vs {other.num_perm}"
            )
        return MinHash(np.minimum(self.signature, other.signature))

    def normalized(self) -> np.ndarray:
        """Signature scaled to [0, 1] floats — the model-input form (§III-B.5)."""
        return self.signature.astype(np.float64) / _U64_SCALE


class MinHasher:
    """A reusable family of ``num_perm`` universal hash functions.

    All sketches in a corpus must be produced by the *same* hasher (same seed
    and ``num_perm``) for their signatures to be comparable.
    """

    def __init__(self, num_perm: int = DEFAULT_NUM_PERM, seed: int = 1):
        if num_perm < 1:
            raise ValueError("num_perm must be >= 1")
        self.num_perm = num_perm
        self.seed = seed
        rng = spawn_rng(seed, "minhash-family")
        a = rng.integers(0, 2**63, size=num_perm, dtype=np.uint64)
        self._a = (a << np.uint64(1)) | np.uint64(1)  # odd multipliers
        self._b = rng.integers(0, 2**63, size=num_perm, dtype=np.uint64)

    def signatures(self, raw: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """Signatures of consecutive sets of pre-hashed items, ``uint64[s, k]``.

        ``raw`` holds the FNV-1a hashes of set 0's items, then set 1's, …;
        ``sizes[j]`` is the size of set ``j`` (duplicates within a set are
        harmless, empty sets get the empty signature). This is the one place
        the hash family is applied — every sketch, single or batched, is a
        row of its result — so a set's signature cannot depend on what it
        was batched with.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if int(sizes.sum()) != raw.size:
            raise ValueError(
                f"set sizes sum to {int(sizes.sum())}, got {raw.size} hashes"
            )
        out = np.full((len(sizes), self.num_perm), EMPTY_SLOT, dtype=np.uint64)
        filled = np.flatnonzero(sizes)
        if not filled.size:
            return out
        # reduceat wants the start of every non-empty set; empty ones are
        # skipped (their start would alias the next set's first item).
        starts = (np.cumsum(sizes) - sizes)[filled]
        step = max(1, _MATRIX_ELEMENTS // raw.size)
        for lo in range(0, self.num_perm, step):
            # (k', n) = a[:,None] * raw[None,:] + b[:,None], wrapping mod 2^64.
            hashed = self._a[lo : lo + step, None] * raw
            hashed += self._b[lo : lo + step, None]
            out[filled, lo : lo + step] = np.minimum.reduceat(hashed, starts, axis=1).T
        return out

    def sketch(self, items: Iterable[str]) -> MinHash:
        """MinHash signature of the *set* of items (duplicates are ignored)."""
        unique = set(items)
        return MinHash(self.signatures(hash_strings(unique), [len(unique)])[0])


def word_set(text_values: Iterable[str]) -> set[str]:
    """The set of whitespace tokens across all values."""
    words: set[str] = set()
    for value in text_values:
        words.update(value.split())
    return words


def slot_features(signatures: np.ndarray) -> np.ndarray:
    """Signature slots as decorrelated features in [-1, 1] (model-input form).

    Raw MinHash slots are *minima* of uniform hashes, so their values pile up
    near zero with a set-size-dependent scale: every signature shares a huge
    common-mode direction and linear projections of the raw values cannot
    express slot agreement. This map re-randomizes each slot **bijectively**
    — ``feature_i = scramble(i, slot_i)`` mapped to uniform [-1, 1] — so two
    signatures produce equal features exactly where their slots agree and
    independent uniforms elsewhere. Dot products of the feature vectors are
    then proportional to the Jaccard estimate, which is the geometry the
    paper's full-size encoder learns internally (see README "Scale-down
    substitutions").

    ``signatures`` is ``uint64[..., k]``: one signature or a stacked batch
    of them (the input encoder maps all of a batch's snapshot, values and
    words signatures in one call). Each element depends only on its own
    slot value and slot index, so a row's features do not depend on what
    it was stacked with.
    """
    index = np.arange(signatures.shape[-1], dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = signatures + index * np.uint64(0x9E3779B97F4A7C15)
        # splitmix64 finalizer: decorrelates consecutive/biased inputs.
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return 2.0 * (x.astype(np.float64) / _U64_SCALE) - 1.0


def estimate_jaccard(first: MinHash, second: MinHash) -> float:
    """Fraction of agreeing slots — an unbiased Jaccard estimate."""
    if first.num_perm != second.num_perm:
        raise ValueError(
            f"signature lengths differ: {first.num_perm} vs {second.num_perm}"
        )
    if first.is_empty() and second.is_empty():
        return 0.0
    return float(np.mean(first.signature == second.signature))


def estimate_containment(
    query: MinHash, candidate: MinHash, query_size: int, candidate_size: int
) -> float:
    """Estimate ``|Q ∩ C| / |Q|`` from Jaccard and set sizes.

    Uses the identity ``containment = j * (|Q| + |C|) / (|Q| * (1 + j))``,
    the standard conversion used by LSH Ensemble (Zhu et al., VLDB 2016).
    """
    if query_size <= 0:
        return 0.0
    j = estimate_jaccard(query, candidate)
    if j <= 0.0:
        return 0.0
    containment = j * (query_size + candidate_size) / (query_size * (1.0 + j))
    return float(min(1.0, containment))


def exact_jaccard(first: Sequence[str] | set, second: Sequence[str] | set) -> float:
    """Exact Jaccard similarity of two value collections (as sets)."""
    a, b = set(first), set(second)
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def exact_containment(query: Sequence[str] | set, candidate: Sequence[str] | set) -> float:
    """Exact set containment ``|Q ∩ C| / |Q|``."""
    q, c = set(query), set(candidate)
    if not q:
        return 0.0
    return len(q & c) / len(q)

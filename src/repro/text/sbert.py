"""Frozen sentence embeddings: the SBERT / FastText stand-in.

The paper uses two *frozen pretrained* text encoders:

- SBERT ``all-MiniLM-L12-v2`` to embed "the top 100 unique values in a column
  concatenated into a single sentence" (§IV-C1);
- FastText word vectors inside WarpGate and DeepJoin.

We cannot ship those checkpoints offline, so we substitute a deterministic
**feature-hashed bag-of-features encoder**: each word and character n-gram is
hashed into a fixed random direction in R^dim (hash-seeded Gaussian), the
directions are summed with IDF-like down-weighting of very frequent features
and L2-normalized. Two texts that share words/character patterns embed close
together, which is exactly the property the paper exploits (cell values of
the same *semantic domain* — municipality names, country codes, dates —
share surface patterns far more than unrelated domains do).

The substitution is documented in README "Scale-down substitutions". It
preserves:

- frozen-ness (no training anywhere);
- lexical-semantic neighborhood structure via shared tokens/n-grams;
- sensitivity to *value order* when embedding whole tables row-wise (the
  paper's row-shuffle probe: SBERT is order-sensitive, sketches are not) —
  we provide an optional positional mixing term for that probe.
"""

from __future__ import annotations

import math

import numpy as np

from repro.table.schema import Column
from repro.utils.hashing import hash_string


def column_sentence(column: Column, top_values: int = 100) -> str:
    """The paper's column-to-sentence rule: top-N unique values joined."""
    seen: list[str] = []
    seen_set: set[str] = set()
    for value in column.non_null_values():
        if value not in seen_set:
            seen_set.add(value)
            seen.append(value)
        if len(seen) >= top_values:
            break
    return " ".join(seen)


class HashedSentenceEncoder:
    """Deterministic frozen text encoder (SBERT substitute).

    Features are lower-cased words plus character trigrams; each feature's
    direction is a unit Gaussian vector seeded by its stable 64-bit hash.
    Feature weights decay with in-sentence frequency (sub-linear tf) and
    common-token damping via a log length normalizer.
    """

    def __init__(self, dim: int = 128, ngram: int = 3, use_ngrams: bool = True,
                 positional: bool = False):
        self.dim = dim
        self.ngram = ngram
        self.use_ngrams = use_ngrams
        #: When True, features are mixed with a position-dependent rotation,
        #: making embeddings order-sensitive (used for the §IV-C3 probe where
        #: SBERT is *not* invariant to row order).
        self.positional = positional
        self._cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def _feature_vector(self, feature: str) -> np.ndarray:
        cached = self._cache.get(feature)
        if cached is not None:
            return cached
        seed = hash_string(feature) & 0xFFFFFFFF
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(self.dim)
        vec /= np.linalg.norm(vec) + 1e-12
        if len(self._cache) < 200_000:
            self._cache[feature] = vec
        return vec

    def _features(self, text: str) -> list[str]:
        words = text.lower().split()
        feats = [f"w:{w}" for w in words]
        if self.use_ngrams:
            for word in words:
                padded = f"^{word}$"
                for i in range(max(1, len(padded) - self.ngram + 1)):
                    feats.append(f"g:{padded[i:i + self.ngram]}")
        return feats

    def encode(self, text: str) -> np.ndarray:
        """L2-normalized embedding of ``text`` in ``R^dim``."""
        feats = self._features(text)
        if not feats:
            return np.zeros(self.dim)
        counts: dict[str, int] = {}
        order: dict[str, int] = {}
        for position, feat in enumerate(feats):
            counts[feat] = counts.get(feat, 0) + 1
            order.setdefault(feat, position)
        out = np.zeros(self.dim)
        for feat, count in counts.items():
            weight = 1.0 + math.log(count)
            vec = self._feature_vector(feat)
            if self.positional:
                shift = order[feat] % self.dim
                vec = np.roll(vec, shift)
            out += weight * vec
        norm = np.linalg.norm(out)
        return out / norm if norm > 0 else out

    def encode_column(self, column: Column, top_values: int = 100) -> np.ndarray:
        """Column embedding via the top-100-unique-values sentence (§IV-C1)."""
        return self.encode(column_sentence(column, top_values))

    def encode_word(self, word: str) -> np.ndarray:
        """Single-word embedding (the FastText role in WarpGate/DeepJoin)."""
        return self.encode(word)

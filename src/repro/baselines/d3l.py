"""D3L baseline (Bogatu et al., ICDE 2020) for union search.

D3L scores column unionability by aggregating five evidence types:
value overlap, word-embedding similarity, numerical column distributions,
column header (name) similarity, and regular-expression/format matching.
Table unionability aggregates the best column-pair scores. All five
evidences are implemented below; the aggregate is their mean over the
evidences applicable to the column pair's types.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.retrieval import top_scored
from repro.sketch.minhash import MinHasher, estimate_jaccard
from repro.sketch.numeric import numerical_sketch
from repro.table.schema import Column, Table
from repro.text.sbert import HashedSentenceEncoder

_FORMAT_CLASSES = (
    ("digits", re.compile(r"^\d+$")),
    ("decimal", re.compile(r"^[+-]?\d+\.\d+$")),
    ("alpha", re.compile(r"^[a-zA-Z ]+$")),
    ("alnum", re.compile(r"^[a-zA-Z0-9 ]+$")),
    ("date", re.compile(r"^\d{4}-\d{2}-\d{2}")),
)


def format_histogram(column: Column, sample: int = 50) -> np.ndarray:
    """Distribution over regex format classes (D3L's regex evidence)."""
    counts: Counter[str] = Counter()
    values = column.non_null_values()[:sample]
    for value in values:
        for name, pattern in _FORMAT_CLASSES:
            if pattern.match(value):
                counts[name] += 1
                break
        else:
            counts["other"] += 1
    total = max(1, sum(counts.values()))
    return np.array(
        [counts.get(name, 0) / total for name, _ in _FORMAT_CLASSES]
        + [counts.get("other", 0) / total]
    )


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    return float(a @ b / denom) if denom else 0.0


def _ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    grams = lambda s: {s[i : i + n] for i in range(max(1, len(s) - n + 1))}  # noqa: E731
    ga, gb = grams(a.lower()), grams(b.lower())
    if not ga and not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)


class _ColumnProfile:
    """Precomputed evidence features of one column."""

    def __init__(self, table: str, column: Column, hasher: MinHasher,
                 encoder: HashedSentenceEncoder):
        self.table = table
        self.name = column.name
        self.is_numeric = column.inferred_type.is_numeric
        self.minhash = hasher.sketch(column.distinct_values())
        self.header_embedding = encoder.encode(column.name)
        self.value_embedding = encoder.encode(
            " ".join(column.non_null_values()[:50])
        )
        self.format_hist = format_histogram(column)
        sketch = numerical_sketch(column)
        self.numeric_vector = np.asarray(sketch.percentiles) if self.is_numeric else None

    def score_against(self, other: "_ColumnProfile") -> float:
        evidences = [
            estimate_jaccard(self.minhash, other.minhash),
            max(0.0, _cosine(self.value_embedding, other.value_embedding)),
            max(0.0, _cosine(self.header_embedding, other.header_embedding)),
            _ngram_jaccard(self.name, other.name),
            max(0.0, _cosine(self.format_hist, other.format_hist)),
        ]
        if self.is_numeric and other.is_numeric:
            a, b = self.numeric_vector, other.numeric_vector
            spread = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-9)
            evidences.append(max(0.0, 1.0 - float(np.mean(np.abs(a - b))) / spread))
        return float(np.mean(evidences))


class D3lSearcher:
    """Five-evidence union search."""

    name = "D3L"

    def __init__(self, tables: dict[str, Table], num_perm: int = 64, seed: int = 1):
        self.tables = tables
        hasher = MinHasher(num_perm=num_perm, seed=seed)
        encoder = HashedSentenceEncoder(dim=96)
        self._profiles: dict[str, list[_ColumnProfile]] = {
            name: [_ColumnProfile(name, c, hasher, encoder) for c in table.columns]
            for name, table in tables.items()
        }

    def _table_score(self, query_profiles: list[_ColumnProfile],
                     candidate_profiles: list[_ColumnProfile]) -> float:
        if not query_profiles or not candidate_profiles:
            return 0.0
        best = [
            max(qp.score_against(cp) for cp in candidate_profiles)
            for qp in query_profiles
        ]
        return float(np.mean(best))

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        query_profiles = self._profiles[query.table]
        return top_scored((
            (name, self._table_score(query_profiles, profiles))
            for name, profiles in self._profiles.items()
            if name != query.table
        ), k)

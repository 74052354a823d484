"""SANTOS baseline (Khatiwada et al., SIGMOD 2023) for union search.

SANTOS matches tables through *relationship semantics*: the binary
relationships between column pairs (e.g. municipality→country) must align,
not just the columns themselves. Without a knowledge base, the reproduction
derives a column's semantic type by quantizing its frozen value embedding
(sign bits — a deterministic stand-in for KB type lookup), then builds:

- unary signatures: the quantized type of each column;
- binary signatures: ordered pairs of quantized types for string column
  pairs (the "relationship" of the SANTOS KB).

Table unionability is the weighted Jaccard of signature multisets, with
binary signatures weighted higher (they encode the relationship context the
paper emphasizes).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.retrieval import top_scored
from repro.table.schema import Column, ColumnType, Table
from repro.text.sbert import HashedSentenceEncoder


def _quantize(vector: np.ndarray, bits: int = 12) -> int:
    """Sign-bit quantization of an embedding into a type code."""
    code = 0
    for value in vector[:bits]:
        code = (code << 1) | int(value >= 0.0)
    return code


class SantosSearcher:
    """Relationship-signature union search."""

    name = "SANTOS"

    def __init__(self, tables: dict[str, Table], bits: int = 8,
                 binary_weight: float = 2.0):
        self.tables = tables
        self.bits = bits
        self.binary_weight = binary_weight
        encoder = HashedSentenceEncoder(dim=96)
        self._signatures: dict[str, tuple[Counter, Counter]] = {}
        for name, table in tables.items():
            unary: Counter = Counter()
            binary: Counter = Counter()
            types: list[tuple[Column, int]] = []
            for column in table.columns:
                embedding = encoder.encode(
                    " ".join(column.non_null_values()[:40]) or column.name
                )
                code = _quantize(embedding, bits)
                unary[code] += 1
                types.append((column, code))
            strings = [
                (c, code) for c, code in types if c.inferred_type == ColumnType.STRING
            ]
            for i in range(len(strings)):
                for j in range(len(strings)):
                    if i != j:
                        binary[(strings[i][1], strings[j][1])] += 1
            self._signatures[name] = (unary, binary)

    @staticmethod
    def _multiset_jaccard(a: Counter, b: Counter) -> float:
        if not a and not b:
            return 0.0
        intersection = sum((a & b).values())
        union = sum((a | b).values())
        return intersection / union if union else 0.0

    def _score(self, first: str, second: str) -> float:
        unary_a, binary_a = self._signatures[first]
        unary_b, binary_b = self._signatures[second]
        unary_score = self._multiset_jaccard(unary_a, unary_b)
        binary_score = self._multiset_jaccard(binary_a, binary_b)
        return (unary_score + self.binary_weight * binary_score) / (
            1.0 + self.binary_weight
        )

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        return top_scored((
            (name, self._score(query.table, name))
            for name in self.tables
            if name != query.table
        ), k)

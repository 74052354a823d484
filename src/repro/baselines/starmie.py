"""Starmie baseline (Fan et al., VLDB 2023) for union search.

Starmie learns *contextualized column embeddings* with contrastive
self-supervision: two augmented views of the same column (different value
samples) are positives, every other column in the batch is a negative
(InfoNCE). Union search then matches the column-embedding sets of two
tables — the original uses maximum bipartite matching; we use the greedy
matching the paper itself adopts for TabSketchFM ("we used a simpler
technique than the bipartite graph matching algorithm introduced by
Starmie").

Reproduction shape: frozen hashed bag-of-values features -> a trainable
linear projector optimized with InfoNCE on the benchmark corpus itself
(self-supervised, no labels).
"""

from __future__ import annotations

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.nn.layers import Linear, Module
from repro.nn.losses import cross_entropy_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.search.retrieval import top_scored
from repro.table.schema import Column, Table
from repro.text.sbert import HashedSentenceEncoder
from repro.utils.rng import spawn_rng


class _Projector(Module):
    """Linear projection head trained with InfoNCE."""

    def __init__(self, in_dim: int, out_dim: int, seed: int = 0):
        super().__init__()
        rng = spawn_rng(seed, "starmie-projector")
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        projected = self.linear(x)
        norm = (projected * projected).sum(axis=-1, keepdims=True) ** 0.5
        return projected / (norm + 1e-8)


class StarmieSearcher:
    """Contrastively-trained column embeddings + greedy column matching."""

    name = "Starmie"

    def __init__(self, tables: dict[str, Table], feature_dim: int = 128,
                 embed_dim: int = 48, epochs: int = 4, batch_size: int = 24,
                 temperature: float = 0.1, seed: int = 5):
        self.tables = tables
        self.encoder = HashedSentenceEncoder(dim=feature_dim)
        self.projector = _Projector(feature_dim, embed_dim, seed=seed)
        self.temperature = temperature
        self._train(epochs, batch_size, seed)
        self._table_vectors: dict[str, np.ndarray] = {
            name: self._embed_columns(table) for name, table in tables.items()
        }

    # ------------------------------------------------------------------ #
    def _column_feature(self, column: Column, rng: np.random.Generator | None = None,
                        sample: int = 25) -> np.ndarray:
        # Values only: Starmie's contextualization is over cell values, and
        # open-data headers are too noisy to rely on.
        values = column.non_null_values()
        if rng is not None and len(values) > 4:
            picked = rng.choice(len(values), size=max(3, len(values) // 2),
                                replace=False)
            values = [values[int(i)] for i in picked]
        return self.encoder.encode(" ".join(values[:sample]) or column.name)

    def _train(self, epochs: int, batch_size: int, seed: int) -> None:
        """InfoNCE over augmented column views (in-batch negatives)."""
        columns = [c for t in self.tables.values() for c in t.columns]
        if len(columns) < 4:
            return
        rng = spawn_rng(seed, "starmie-train")
        optimizer = Adam(self.projector.parameters(), lr=1e-2)
        for _ in range(epochs):
            order = rng.permutation(len(columns))
            for start in range(0, len(columns), batch_size):
                batch = [columns[i] for i in order[start : start + batch_size]]
                if len(batch) < 2:
                    continue
                view_a = np.stack([self._column_feature(c, rng) for c in batch])
                view_b = np.stack([self._column_feature(c, rng) for c in batch])
                optimizer.zero_grad()
                za = self.projector(Tensor(view_a))
                zb = self.projector(Tensor(view_b))
                logits = (za @ zb.transpose(1, 0)) * (1.0 / self.temperature)
                labels = np.arange(len(batch))
                loss = cross_entropy_loss(logits, labels)
                loss.backward()
                optimizer.step()

    # ------------------------------------------------------------------ #
    def _embed_columns(self, table: Table) -> np.ndarray:
        features = np.stack([self._column_feature(c) for c in table.columns])
        self.projector.eval()
        with no_grad():
            return self.projector(Tensor(features)).numpy().copy()

    @staticmethod
    def _greedy_match_score(a: np.ndarray, b: np.ndarray) -> float:
        """Greedy one-to-one column matching on cosine similarity."""
        sims = a @ b.T
        total = 0.0
        used_a: set[int] = set()
        used_b: set[int] = set()
        flat = [
            (float(sims[i, j]), i, j)
            for i in range(sims.shape[0])
            for j in range(sims.shape[1])
        ]
        flat.sort(key=lambda item: -item[0])
        for sim, i, j in flat:
            if i in used_a or j in used_b:
                continue
            used_a.add(i)
            used_b.add(j)
            total += sim
        return total / max(1, min(sims.shape))

    def retrieve(self, query: SearchQuery, k: int) -> list[str]:
        query_vectors = self._table_vectors[query.table]
        return top_scored((
            (name, self._greedy_match_score(query_vectors, vectors))
            for name, vectors in self._table_vectors.items()
            if name != query.table
        ), k)

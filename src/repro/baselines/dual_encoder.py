"""Dual-encoder pair models for the Table-II baselines (§IV-A1).

"We adapted these models for Lakebench data discovery tasks by building a
dual encoder architecture. Each encoder represents the pretrained model with
shared parameters ... The embeddings from the last layer of the encoders were
concatenated and passed through a two-layered MLP." For TAPAS and TABBIE "we
froze their pretrained models while finetuning, but allowed the two layers
above the model to learn the weights."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.encoders import (
    TextTableEncoder,
    serialize_headers,
    serialize_rows,
    serialize_table_sequence,
)
from repro.core.finetune import TaskType
from repro.eval.experiments import evaluate_pair_task
from repro.nn import training
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, concat, no_grad
from repro.table.schema import Table
from repro.text.tokenizer import WordPieceTokenizer
from repro.utils.rng import spawn_rng


@dataclass
class BaselineSpec:
    """What a baseline sees and whether its trunk learns."""

    name: str
    serializer: Callable[[Table], str]
    frozen_trunk: bool = False
    #: TABBIE-style row-wise encoding: embed each row separately, mean-pool.
    per_row: bool = False
    max_rows: int = 8


BASELINE_FACTORIES: dict[str, BaselineSpec] = {
    "Vanilla BERT": BaselineSpec("Vanilla BERT", serialize_headers),
    "TaBERT": BaselineSpec("TaBERT", lambda t: serialize_rows(t, max_rows=8)),
    "TUTA": BaselineSpec("TUTA", serialize_table_sequence),
    "TAPAS": BaselineSpec(
        "TAPAS",
        lambda t: serialize_rows(t, max_rows=8, query_prefix="[empty question]"),
        frozen_trunk=True,
    ),
    "TABBIE": BaselineSpec(
        "TABBIE", lambda t: serialize_rows(t, max_rows=1),
        frozen_trunk=True, per_row=True, max_rows=6,
    ),
}


class DualEncoderModel(Module):
    """Shared trunk over both tables + 2-layer MLP head on ``[e(A); e(B)]``."""

    def __init__(self, trunk: TextTableEncoder, task: TaskType, num_outputs: int,
                 frozen_trunk: bool = False, hidden: int = 64, seed: int = 0,
                 dropout: float = 0.1):
        super().__init__()
        self.trunk = trunk
        self.task = task
        self.num_outputs = num_outputs
        self.frozen_trunk = frozen_trunk
        rng = spawn_rng(seed, "dual-encoder-head")
        self.head_in = Linear(2 * trunk.dim, hidden, rng=rng)
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head_out = Linear(hidden, num_outputs, rng=rng)

    def trainable_parameters(self):
        if not self.frozen_trunk:
            return self.parameters()
        head_params = (
            list(dict(self.head_in.named_parameters()).values())
            + list(dict(self.head_out.named_parameters()).values())
        )
        return head_params

    def embed(self, token_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        if self.frozen_trunk:
            with no_grad():
                frozen = self.trunk(token_ids, mask)
            return frozen.detach()
        return self.trunk(token_ids, mask)

    def forward(self, ids_a, mask_a, ids_b, mask_b) -> Tensor:
        emb = concat([self.embed(ids_a, mask_a), self.embed(ids_b, mask_b)], axis=-1)
        return self.head_out(self.head_dropout(self.head_in(emb).relu()))


def make_baseline(
    name: str, tokenizer: WordPieceTokenizer, task: TaskType, num_outputs: int,
    dim: int = 48, seed: int = 0, dropout: float = 0.1,
) -> tuple[DualEncoderModel, BaselineSpec]:
    """Instantiate one Table-II baseline by name."""
    spec = BASELINE_FACTORIES[name]
    trunk = TextTableEncoder(tokenizer, dim=dim, seed=seed, dropout=dropout)
    model = DualEncoderModel(
        trunk, task, num_outputs, frozen_trunk=spec.frozen_trunk, seed=seed,
        dropout=dropout,
    )
    return model, spec


class DualEncoderTrainer:
    """Fine-tunes a :class:`DualEncoderModel` on labelled table pairs."""

    def __init__(self, model: DualEncoderModel, spec: BaselineSpec,
                 epochs: int = 6, batch_size: int = 16, learning_rate: float = 1e-3,
                 patience: int = 5, seed: int = 0):
        self.model = model
        self.spec = spec
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.patience = patience
        self.seed = seed

    # ------------------------------------------------------------------ #
    def _serialize(self, table: Table) -> str:
        if self.spec.per_row:
            # TABBIE: embed rows independently; approximate by concatenating
            # the first rows as separate sentences (mean pooling in the trunk
            # then matches mean-of-row-embeddings up to length weighting).
            rows = [" ".join(row) for row in table.rows(limit=self.spec.max_rows)]
            return " | ".join([" ".join(table.header)] + rows)
        return self.spec.serializer(table)

    def encode_pairs(
        self, pairs: list[tuple[Table, Table, object]]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, object]]:
        out = []
        for a, b, label in pairs:
            ids_a, mask_a = self.model.trunk.encode_text(self._serialize(a))
            ids_b, mask_b = self.model.trunk.encode_text(self._serialize(b))
            out.append((ids_a, mask_a, ids_b, mask_b, label))
        return out

    def _logits(self, chunk) -> Tensor:
        return self.model(*(np.stack([c[i] for c in chunk]) for i in range(4)))

    def _batch_loss(self, chunk) -> Tensor:
        task = self.model.task
        return task.loss(self._logits(chunk), task.labels([c[4] for c in chunk]))

    def train(self, train_pairs, valid_pairs=None) -> training.TrainHistory:
        """Early stopping on validation loss, ending on the *last* epoch's
        weights (no restore): Table II's baseline rows were produced this
        way, and restoring the best weights would move them."""
        return training.fit(
            self.model, self.model.trainable_parameters(),
            self.encode_pairs(train_pairs), self.encode_pairs(valid_pairs or []),
            self._batch_loss,
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, patience=self.patience,
            rng=spawn_rng(self.seed, "dual-encoder-shuffle"),
            restore_best=False,
        )

    # ------------------------------------------------------------------ #
    def predict(self, pairs) -> np.ndarray:
        task = self.model.task
        return training.predict(
            self.model, self.encode_pairs(pairs),
            lambda chunk: task.predictions(self._logits(chunk).numpy()),
            batch_size=self.batch_size,
        )

    def evaluate(self, pairs) -> float:
        """The paper's metric for the model's task family."""
        return evaluate_pair_task(
            self.model.task, [label for _, _, label in pairs], self.predict(pairs)
        )

    # ------------------------------------------------------------------ #
    def table_embedding(self, table: Table) -> np.ndarray:
        """Frozen table embedding for search (TaBERT-FT / TUTA-FT roles)."""
        ids, mask = self.model.trunk.encode_text(self._serialize(table))
        self.model.eval()
        with no_grad():
            emb = self.model.trunk(ids[None, :], mask[None, :]).numpy()[0]
        return emb.copy()

    def column_embedding(self, table: Table, column_name: str) -> np.ndarray:
        """Column embedding via a column-scoped serialization (TaBERT-FT)."""
        from repro.baselines.encoders import serialize_column

        ids, mask = self.model.trunk.encode_text(serialize_column(table, column_name))
        self.model.eval()
        with no_grad():
            emb = self.model.trunk(ids[None, :], mask[None, :]).numpy()[0]
        return emb.copy()

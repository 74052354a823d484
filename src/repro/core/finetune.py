"""Cross-encoder fine-tuning for LakeBench tasks (§III-D, Fig. 2b).

"Two input tables are concatenated and passed through the pretrained
TabSketchFM. The BERT pooler output ... is passed through a dropout and a
linear layer to generate output of size N":

- binary classification → N = 2, cross-entropy loss;
- regression → N = 1, mean-squared-error loss;
- multi-label classification → N = #classes, BCE-with-logits loss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.inputs import InputEncoder, PairEncoding, batch_encodings
from repro.core.model import TabSketchFM
from repro.nn import training
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.losses import bce_with_logits_loss, cross_entropy_loss, mse_loss
from repro.nn.tensor import Tensor
from repro.sketch.pipeline import TableSketch
from repro.utils.rng import spawn_rng


class TaskType(enum.Enum):
    """LakeBench task families (Table I), and what each implies for a
    task head's labels, training loss and predictions."""

    BINARY = "binary"
    REGRESSION = "regression"
    MULTILABEL = "multilabel"

    def labels(self, labels: list[object]) -> np.ndarray:
        """Class ids (binary), values (regression) or a multi-hot matrix."""
        if self is TaskType.BINARY:
            return np.asarray(labels, dtype=np.int64)
        if self is TaskType.REGRESSION:
            return np.asarray(labels, dtype=np.float64)
        return np.stack([np.asarray(l, dtype=np.float64) for l in labels])

    def loss(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Cross-entropy, mean-squared error or BCE-with-logits."""
        if self is TaskType.BINARY:
            return cross_entropy_loss(logits, labels)
        if self is TaskType.REGRESSION:
            return mse_loss(logits.reshape(-1), labels)
        return bce_with_logits_loss(logits, labels)

    def predictions(self, logits: np.ndarray) -> np.ndarray:
        """Predicted class ids, predicted values or per-class probabilities
        (sigmoid of the logits)."""
        if self is TaskType.BINARY:
            return np.argmax(logits, axis=-1)
        if self is TaskType.REGRESSION:
            return logits.reshape(-1)
        return 1.0 / (1.0 + np.exp(-logits))


@dataclass
class FinetuneConfig:
    """Fine-tuning loop hyper-parameters (scaled-down from the paper)."""

    epochs: int = 8
    batch_size: int = 16
    learning_rate: float = 3e-4
    patience: int = 5
    seed: int = 0


class CrossEncoder(Module):
    """TabSketchFM trunk + dropout + task head over the pooler output."""

    def __init__(self, trunk: TabSketchFM, task: TaskType, num_outputs: int,
                 dropout: float = 0.1, seed: int = 0):
        super().__init__()
        expected = {TaskType.BINARY: 2, TaskType.REGRESSION: 1}
        if task in expected and num_outputs != expected[task]:
            raise ValueError(
                f"{task.value} head requires {expected[task]} outputs, got {num_outputs}"
            )
        self.trunk = trunk
        self.task = task
        self.num_outputs = num_outputs
        rng = spawn_rng(seed, "cross-encoder-head")
        self.head_dropout = Dropout(dropout, rng=rng)
        self.head = Linear(trunk.config.dim, num_outputs, rng=rng)

    def forward(self, batch: dict[str, np.ndarray]) -> Tensor:
        hidden = self.trunk(batch)
        pooled = self.trunk.pool(hidden)
        return self.head(self.head_dropout(pooled))


@dataclass
class PairExample:
    """A labelled table pair. ``label`` is an int (binary), float
    (regression) or a multi-hot float vector (multi-label)."""

    first: TableSketch
    second: TableSketch
    label: object


class Finetuner:
    """Fine-tunes a :class:`CrossEncoder` on labelled table pairs."""

    def __init__(self, model: CrossEncoder, encoder: InputEncoder,
                 config: FinetuneConfig | None = None):
        self.model = model
        self.encoder = encoder
        self.config = config or FinetuneConfig()

    # ------------------------------------------------------------------ #
    def encode_pairs(self, pairs: list[PairExample]) -> list[tuple[PairEncoding, object]]:
        # Natural-length encodings; each batch pads to its own max length
        # (dynamic padding) instead of the global max_seq_len.
        return [
            (self.encoder.encode_pair(p.first, p.second, pad=False), p.label)
            for p in pairs
        ]

    def _logits(self, encodings: list[PairEncoding]) -> Tensor:
        return self.model(batch_encodings(
            encodings, pad_token_id=self.encoder.tokenizer.vocabulary.pad_id
        ))

    def _batch_loss(self, chunk: list[tuple[PairEncoding, object]]) -> Tensor:
        task = self.model.task
        labels = task.labels([label for _, label in chunk])
        return task.loss(self._logits([enc for enc, _ in chunk]), labels)

    def train(self, train_pairs: list[PairExample],
              valid_pairs: list[PairExample] | None = None) -> training.TrainHistory:
        """Run the fine-tuning loop with early stopping on validation loss,
        ending on the best-validation weights."""
        config = self.config
        return training.fit(
            self.model, self.model.parameters(),
            self.encode_pairs(train_pairs), self.encode_pairs(valid_pairs or []),
            self._batch_loss,
            epochs=config.epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, patience=config.patience,
            rng=spawn_rng(config.seed, "finetune-shuffle"),
        )

    # ------------------------------------------------------------------ #
    def predict(self, pairs: list[PairExample], batch_size: int | None = None) -> np.ndarray:
        """Task-appropriate predictions (:meth:`TaskType.predictions`)."""
        task = self.model.task
        return training.predict(
            self.model, [enc for enc, _ in self.encode_pairs(pairs)],
            lambda chunk: task.predictions(self._logits(chunk).numpy()),
            batch_size=batch_size or self.config.batch_size,
        )

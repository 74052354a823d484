"""MLM pre-training (§III-C, Figs. 2a and 3).

Masking protocol, following the paper exactly:

- **Whole-column masking**: for each example one column is chosen and *all*
  tokens of its name are replaced by ``[MASK]`` (the tabular analogue of
  whole-word masking).
- Small tables (≤ 5 columns) yield one example per column; larger tables
  yield 5 examples with randomly chosen columns, to avoid over-representing
  wide tables.
- Description tokens are additionally masked i.i.d. with the MLM
  probability (default 0.15).
- **Augmentation**: extra copies of each table with shuffled column order
  (the content snapshot stays identical because rows don't change, but
  column positions — and therefore the learning signal — do).

Loss: cross-entropy over masked positions only (Eq. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inputs import EncodedTable, InputEncoder, PairEncoding, batch_encodings
from repro.core.model import TabSketchFM
from repro.nn import training
from repro.nn.losses import cross_entropy_loss
from repro.nn.tensor import Tensor
from repro.table.schema import Table
from repro.table.transform import shuffle_columns
from repro.utils.rng import spawn_rng

IGNORE_INDEX = -100


@dataclass
class MaskedExample:
    """One MLM training example: inputs plus per-position labels."""

    encoding: PairEncoding
    labels: np.ndarray  # int64[S]; IGNORE_INDEX on unmasked positions


@dataclass
class PretrainConfig:
    """Pre-training loop hyper-parameters (scaled-down from the paper)."""

    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 3e-4
    #: Early-stopping patience in epochs, as in the paper ("patience of 5").
    patience: int = 5
    mlm_probability: float = 0.15
    max_masked_columns: int = 5
    seed: int = 0


def augment_tables(
    tables: list[Table], copies: int, seed: int = 0
) -> list[Table]:
    """Original tables plus ``copies`` column-shuffled variants of each."""
    rng = spawn_rng(seed, "pretrain-augment")
    out = list(tables)
    for table in tables:
        for copy_index in range(copies):
            out.append(
                shuffle_columns(table, rng, name=f"{table.name}__shuf{copy_index}")
            )
    return out


def make_masked_examples(
    encoded: EncodedTable,
    encoder: InputEncoder,
    rng: np.random.Generator,
    mlm_probability: float = 0.15,
    max_masked_columns: int = 5,
) -> list[MaskedExample]:
    """Whole-column masked examples for one encoded table (Fig. 3)."""
    vocab = encoder.tokenizer.vocabulary
    spans = encoded.spans
    if not spans:
        return []
    if len(spans) <= max_masked_columns:
        chosen = list(range(len(spans)))
    else:
        chosen = sorted(
            rng.choice(len(spans), size=max_masked_columns, replace=False).tolist()
        )

    desc_start, desc_stop = encoded.description_span
    examples: list[MaskedExample] = []
    for span_index in chosen:
        span = spans[span_index]
        token_ids = encoded.token_ids.copy()
        labels = np.full(encoded.length, IGNORE_INDEX, dtype=np.int64)
        labels[span.start : span.stop] = token_ids[span.start : span.stop]
        token_ids[span.start : span.stop] = vocab.mask_id
        # i.i.d. masking of description tokens (MLM probability).
        for position in range(desc_start, desc_stop):
            if rng.random() < mlm_probability:
                labels[position] = token_ids[position]
                token_ids[position] = vocab.mask_id

        segments = np.zeros(encoded.length, dtype=np.int64)
        # Natural-length encoding: each training batch pads to its own max
        # (dynamic padding) instead of the global max_seq_len.
        encoding = encoder._finalize(
            token_ids,
            encoded.token_positions,
            encoded.column_positions,
            encoded.column_types,
            segments,
            encoded.minhash,
            encoded.numeric,
            target_length=encoded.length,
        )
        usable = min(encoded.length, encoder.config.max_seq_len)
        examples.append(MaskedExample(encoding=encoding, labels=labels[:usable]))
    return examples


class Pretrainer:
    """Runs the MLM pre-training loop with early stopping."""

    def __init__(self, model: TabSketchFM, encoder: InputEncoder,
                 config: PretrainConfig | None = None):
        self.model = model
        self.encoder = encoder
        self.config = config or PretrainConfig()

    # ------------------------------------------------------------------ #
    def build_examples(self, encoded_tables: list[EncodedTable]) -> list[MaskedExample]:
        rng = spawn_rng(self.config.seed, "pretrain-masking")
        examples: list[MaskedExample] = []
        for encoded in encoded_tables:
            examples.extend(
                make_masked_examples(
                    encoded,
                    self.encoder,
                    rng,
                    mlm_probability=self.config.mlm_probability,
                    max_masked_columns=self.config.max_masked_columns,
                )
            )
        return examples

    def _batch_loss(self, chunk: list[MaskedExample]) -> Tensor:
        batch = batch_encodings(
            [ex.encoding for ex in chunk],
            pad_token_id=self.encoder.tokenizer.vocabulary.pad_id,
        )
        seq = batch["token_ids"].shape[1]
        labels = np.full((len(chunk), seq), IGNORE_INDEX, dtype=np.int64)
        for row, ex in enumerate(chunk):
            labels[row, : ex.labels.shape[0]] = ex.labels
        hidden = self.model(batch)
        return cross_entropy_loss(
            self.model.mlm_logits(hidden), labels, ignore_index=IGNORE_INDEX
        )

    def train(
        self,
        train_examples: list[MaskedExample],
        valid_examples: list[MaskedExample],
    ) -> training.TrainHistory:
        """Optimize the MLM objective with early stopping on validation
        loss, ending on the best-validation weights."""
        config = self.config
        return training.fit(
            self.model, self.model.parameters(), train_examples, valid_examples,
            self._batch_loss,
            epochs=config.epochs, batch_size=config.batch_size,
            learning_rate=config.learning_rate, patience=config.patience,
            rng=spawn_rng(config.seed, "pretrain-shuffle"),
        )

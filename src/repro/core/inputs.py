"""Input encoding: from sketches to aligned model-input arrays (Fig. 1).

The paper builds one "input string" per table::

    [CLS] <table description> [SEP] <col 1 name> [SEP] <col 2 name> [SEP] ...

and aligns six parallel signals with its tokens:

1. token ids (WordPiece);
2. *within-column* token positions (re-purposed positional embedding);
3. column positions (0 = description, then 1..C);
4. column types (string/int/float/date as 1..4; 0 elsewhere);
5. per-position MinHash vectors — the content snapshot for description
   positions, E_C or E_{C||W} for column-name positions;
6. per-position numerical-sketch vectors (zero for description positions).

Encoding is **batch-first, from arrays**: :meth:`InputEncoder.encode_batch`
is the one encoder core. It reads a
:class:`~repro.sketch.pipeline.SketchBatch` — the packed member arrays a
lake ingest sketches to, or a refresh gathers from its stored records —
and featurizes the whole batch at once: one
:func:`~repro.sketch.minhash.slot_features` call per signature member and
one :func:`~repro.sketch.numeric.stats_inputs` call over the raw
``numeric_stats`` rows (the row a lake stores is the raw row
``numeric_inputs`` squashes, so the features are the same). It returns an
:class:`EncodedBatch`: flat token arrays, and for each token the index of
its table's or its column's feature row, which
:class:`repro.core.engine.EmbeddingEngine` gathers each padded group from.
:meth:`InputEncoder.encode_tables` (and ``encode_table(s)``, its batch of
one) gathers the same arrays from sketch objects
(:meth:`~repro.sketch.pipeline.SketchBatch.of_sketches`) for the paper
paths and cuts per-table :class:`EncodedTable` s out of the batch. Every
feature is elementwise, so a table's arrays do not depend on the batch it
was encoded in.

A :class:`PairEncoding` concatenates two encoded tables for the cross-encoder
(Fig. 2b) with BERT-style segment ids 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import TabSketchFMConfig
from repro.sketch.minhash import EMPTY_SLOT, slot_features
from repro.sketch.numeric import NUMERICAL_SKETCH_DIM, stats_inputs
from repro.sketch.pipeline import SketchBatch, TableSketch
from repro.table.schema import ColumnType
from repro.text.tokenizer import WordPieceTokenizer


@dataclass
class ColumnSpan:
    """Token index range [start, stop) of one column's name tokens."""

    column_index: int
    start: int
    stop: int


@dataclass
class EncodedTable:
    """All aligned input arrays for a single table (unpadded)."""

    token_ids: np.ndarray       # int64[S]
    token_positions: np.ndarray  # int64[S] — position *within* the column name
    column_positions: np.ndarray  # int64[S] — 0 for description, 1..C
    column_types: np.ndarray    # int64[S] — ColumnType value or 0
    minhash: np.ndarray         # float64[S, 2*num_perm]
    numeric: np.ndarray         # float64[S, NUMERICAL_SKETCH_DIM]
    spans: list[ColumnSpan]     # column-name token spans (for masking/pooling)
    description_span: tuple[int, int]  # [start, stop) of description tokens

    @property
    def length(self) -> int:
        return int(self.token_ids.shape[0])


@dataclass
class EncodedBatch:
    """A batch's aligned input arrays, flat (:meth:`InputEncoder.encode_batch`).

    Table ``t``'s tokens are ``[bounds[t], bounds[t + 1])`` of each token
    array; one padding token follows the last table's. A token's model
    inputs are row ``feature_rows[i]`` of ``minhash`` and ``numeric`` (the
    padding token's is the last row, all zeros), so a padded batch is one
    gather of each array. Table ``t`` has ``widths[t]`` columns, of which
    its first ``kept[t]`` are encoded; their name spans (table-local
    ``[start, stop)``) are consecutive rows of ``spans``.
    """

    token_ids: np.ndarray         # int64[S + 1]
    token_positions: np.ndarray   # int64[S + 1]
    column_positions: np.ndarray  # int64[S + 1]
    column_types: np.ndarray      # int64[S + 1]
    feature_rows: np.ndarray      # intp[S + 1]
    minhash: np.ndarray           # float64[R + 1, 2*num_perm]
    numeric: np.ndarray           # float64[R + 1, NUMERICAL_SKETCH_DIM]
    bounds: np.ndarray            # int64[T + 1]
    widths: np.ndarray            # int64[T]
    kept: np.ndarray              # int64[T]
    spans: np.ndarray             # int64[sum(kept), 2]
    descriptions: list[tuple[int, int]]  # [start, stop) of description tokens


@dataclass
class PairEncoding:
    """A cross-encoder input: two tables concatenated with segment ids.

    ``interaction`` holds the cross-table sketch agreement features injected
    at the [CLS] position (zeros for single-table encodings); see
    :mod:`repro.sketch.interactions` for the scale-down rationale.
    """

    token_ids: np.ndarray
    token_positions: np.ndarray
    column_positions: np.ndarray
    column_types: np.ndarray
    segment_ids: np.ndarray
    minhash: np.ndarray
    numeric: np.ndarray
    attention_mask: np.ndarray
    interaction: np.ndarray

    @property
    def length(self) -> int:
        return int(self.token_ids.shape[0])


class InputEncoder:
    """Encodes :class:`TableSketch` objects for a fixed tokenizer/config."""

    def __init__(self, config: TabSketchFMConfig, tokenizer: WordPieceTokenizer):
        self.config = config
        self.tokenizer = tokenizer
        if len(tokenizer.vocabulary) > config.vocab_size:
            raise ValueError(
                f"tokenizer vocab {len(tokenizer.vocabulary)} exceeds "
                f"config.vocab_size {config.vocab_size}"
            )

    # ------------------------------------------------------------------ #
    def encode_table(self, sketch: TableSketch) -> EncodedTable:
        """Build the unpadded aligned arrays for one table:
        ``encode_tables([sketch])[0]``."""
        return self.encode_tables([sketch])[0]

    def encode_tables(self, sketches: Sequence[TableSketch]) -> list[EncodedTable]:
        """Build the unpadded aligned arrays of every table, in order: the
        tables of :meth:`encode_batch` of the sketches' gathered arrays
        (:meth:`SketchBatch.of_sketches`)."""
        if not sketches:
            return []
        encoded = self.encode_batch(SketchBatch.of_sketches(sketches))
        bounds = encoded.bounds.tolist()
        spans = encoded.spans.tolist()
        span_ends = np.cumsum(encoded.kept).tolist()
        tables = []
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            rows = encoded.feature_rows[lo:hi]
            first = span_ends[t] - int(encoded.kept[t])
            tables.append(EncodedTable(
                token_ids=encoded.token_ids[lo:hi],
                token_positions=encoded.token_positions[lo:hi],
                column_positions=encoded.column_positions[lo:hi],
                column_types=encoded.column_types[lo:hi],
                minhash=encoded.minhash[rows],
                numeric=encoded.numeric[rows],
                spans=[
                    ColumnSpan(j, start, stop)
                    for j, (start, stop) in enumerate(spans[first : span_ends[t]])
                ],
                description_span=encoded.descriptions[t],
            ))
        return tables

    def encode_batch(self, batch: SketchBatch) -> EncodedBatch:
        """The aligned input arrays of every table of ``batch``, flat.

        The batch's sketch arrays are featurized once
        (:meth:`_feature_rows`); each token then names the feature row of
        its table or column, which :class:`EncodedBatch` keeps as an index
        rather than a gathered copy.
        """
        config = self.config
        vocab = self.tokenizer.vocabulary
        widths = np.asarray(batch.widths, dtype=np.int64)
        kept = np.minimum(widths, config.max_columns - 1)
        # Each kept column's row of the batch arrays: a table's first
        # max_columns - 1 columns.
        kept_rows = np.arange(int(kept.sum())) + np.repeat(
            (np.cumsum(widths) - widths) - (np.cumsum(kept) - kept), kept
        )
        ctypes = batch.members["ctypes"][kept_rows]
        minhash, numeric, firsts = self._feature_rows(batch, kept, kept_rows, ctypes)

        token_ids: list[int] = []
        token_positions: list[int] = []
        column_positions: list[int] = []
        column_types: list[int] = []
        feature_rows: list[int] = []
        bounds = [0]
        spans: list[tuple[int, int]] = []
        descriptions: list[tuple[int, int]] = []
        column_ctypes = iter(ctypes.tolist())
        # A lake repeats its column names: each is tokenized once per batch.
        name_pieces: dict[str, list[int]] = {}
        for description, names, n_kept, first in zip(
            batch.descriptions, batch.columns, kept.tolist(), firsts
        ):
            description = self.tokenizer.encode(description)
            head = len(description) + 2
            token_ids += [vocab.cls_id, *description, vocab.sep_id]
            token_positions += [0, *range(len(description)), 0]
            column_positions += [0] * head
            column_types += [0] * head
            feature_rows += [first] * head
            for col_index, name in enumerate(names[:n_kept]):
                pieces = name_pieces.get(name)
                if pieces is None:
                    pieces = self.tokenizer.encode(name) or [vocab.unk_id]
                    name_pieces[name] = pieces
                start = len(token_ids) - bounds[-1]
                spans.append((start, start + len(pieces)))
                # The separator after the name carries the column's sketches
                # so attention can use them even for single-token names;
                # position resets there.
                width = len(pieces) + 1
                token_ids += [*pieces, vocab.sep_id]
                token_positions += [*range(len(pieces)), 0]
                column_positions += [col_index + 1] * width
                column_types += [next(column_ctypes)] * width
                feature_rows += [first + 1 + col_index] * width
            bounds.append(len(token_ids))
            descriptions.append((1, 1 + len(description)))

        # One padding token past the end, whose feature row is the zero
        # row: what a padded position of a batch gathers.
        token_ids.append(vocab.pad_id)
        token_positions.append(0)
        column_positions.append(0)
        column_types.append(0)
        feature_rows.append(len(minhash) - 1)
        return EncodedBatch(
            token_ids=np.asarray(token_ids, dtype=np.int64),
            token_positions=np.minimum(
                np.asarray(token_positions, dtype=np.int64),
                config.max_token_positions - 1,
            ),
            column_positions=np.asarray(column_positions, dtype=np.int64),
            column_types=np.asarray(column_types, dtype=np.int64),
            feature_rows=np.asarray(feature_rows, dtype=np.intp),
            minhash=minhash,
            numeric=numeric,
            bounds=np.asarray(bounds, dtype=np.int64),
            widths=widths,
            kept=kept,
            spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2),
            descriptions=descriptions,
        )

    def _feature_rows(
        self,
        batch: SketchBatch,
        kept: np.ndarray,
        kept_rows: np.ndarray,
        ctypes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """``(minhash, numeric, firsts)``: the batch's model-input rows.

        Table ``t`` owns row ``firsts[t]``, its snapshot row (read by [CLS],
        the description and the first [SEP]), then one row per kept column
        (``kept[t]`` of them, the batch arrays' rows ``kept_rows``; read by
        its name pieces and the [SEP] after them). The last row is zeros,
        for padding. Each signature member maps through
        :func:`slot_features` and the numeric statistics through
        :func:`stats_inputs`, all of the batch at once.
        """
        config = self.config
        selection = config.selection
        num_perm = config.sketch.num_perm
        members = batch.members
        widths = 1 + kept
        firsts = np.cumsum(widths) - widths
        n_rows = int(widths.sum())
        is_column = np.ones(n_rows, dtype=bool)
        is_column[firsts] = False
        column_rows = np.flatnonzero(is_column)

        # Absent inputs stay 0 (the neutral value): a disabled sketch family,
        # the words half of a non-string column or of an empty words set.
        minhash = np.zeros((n_rows + 1, config.minhash_input_dim), dtype=np.float64)
        numeric = np.zeros((n_rows + 1, NUMERICAL_SKETCH_DIM), dtype=np.float64)
        if selection.use_snapshot:
            minhash[firsts, :num_perm] = slot_features(members["snapshot_sig"])
        if selection.use_minhash:
            minhash[column_rows, :num_perm] = slot_features(
                members["values_sig"][kept_rows]
            )
            words = members["words_sig"][kept_rows]
            worded = (ctypes == ColumnType.STRING) & (words != EMPTY_SLOT).any(axis=1)
            minhash[column_rows[worded], num_perm:] = slot_features(words[worded])
        if selection.use_numeric and len(column_rows):
            numeric[column_rows] = stats_inputs(members["numeric_stats"][kept_rows])
        return minhash, numeric, firsts.tolist()

    # ------------------------------------------------------------------ #
    def encode_single(self, sketch: TableSketch, pad: bool = True) -> PairEncoding:
        """A single-table input padded/truncated to ``max_seq_len``.

        With ``pad=False`` the encoding keeps its natural (truncated) length;
        :func:`batch_encodings` then pads to the batch max, the per-table
        form of what :class:`repro.core.engine.EmbeddingEngine` gathers from
        an :class:`EncodedBatch`.
        """
        encoded = self.encode_table(sketch)
        segments = np.zeros(encoded.length, dtype=np.int64)
        return self._finalize(
            encoded.token_ids,
            encoded.token_positions,
            encoded.column_positions,
            encoded.column_types,
            segments,
            encoded.minhash,
            encoded.numeric,
            target_length=None if pad else encoded.length,
        )

    def encode_pair(
        self, first: TableSketch, second: TableSketch, pad: bool = True
    ) -> PairEncoding:
        """A cross-encoder pair input: ``[CLS] A ... [SEP] B ...`` (Fig. 2b)."""
        from repro.sketch.interactions import interaction_features

        a, b = self.encode_tables([first, second])
        interaction = interaction_features(first, second, self.config.selection)
        # Drop B's leading [CLS]; keep a single CLS at position 0.
        token_ids = np.concatenate([a.token_ids, b.token_ids[1:]])
        token_positions = np.concatenate([a.token_positions, b.token_positions[1:]])
        column_positions = np.concatenate([a.column_positions, b.column_positions[1:]])
        column_types = np.concatenate([a.column_types, b.column_types[1:]])
        segments = np.concatenate(
            [np.zeros(a.length, dtype=np.int64), np.ones(b.length - 1, dtype=np.int64)]
        )
        minhash = np.concatenate([a.minhash, b.minhash[1:]])
        numeric = np.concatenate([a.numeric, b.numeric[1:]])
        return self._finalize(
            token_ids, token_positions, column_positions, column_types,
            segments, minhash, numeric, interaction=interaction,
            target_length=None if pad else len(token_ids),
        )

    # ------------------------------------------------------------------ #
    def _finalize(self, token_ids, token_positions, column_positions,
                  column_types, segments, minhash, numeric,
                  interaction: np.ndarray | None = None,
                  target_length: int | None = None) -> PairEncoding:
        """Pad/truncate the aligned arrays to ``target_length``.

        ``target_length=None`` keeps the historical fixed-width behaviour
        (pad to ``max_seq_len``); any explicit value is clamped to
        ``max_seq_len``, so callers can pass the natural sequence length and
        let :func:`batch_encodings` pad to the batch max instead of the
        global worst case (attention is O(S²) — short tables should not pay
        full-sequence cost).
        """
        from repro.sketch.interactions import INTERACTION_DIM
        config = self.config
        pad_id = self.tokenizer.vocabulary.pad_id
        seq = config.max_seq_len
        if target_length is not None:
            seq = max(1, min(int(target_length), seq))
        length = min(len(token_ids), seq)

        def pad_ints(arr: np.ndarray, fill: int = 0) -> np.ndarray:
            out = np.full(seq, fill, dtype=np.int64)
            out[:length] = arr[:length]
            return out

        def pad_floats(arr: np.ndarray) -> np.ndarray:
            out = np.zeros((seq, arr.shape[1]), dtype=np.float64)
            out[:length] = arr[:length]
            return out

        mask = np.zeros(seq, dtype=np.float64)
        mask[:length] = 1.0
        if interaction is None:
            interaction = np.zeros(INTERACTION_DIM, dtype=np.float64)
        return PairEncoding(
            token_ids=pad_ints(token_ids, pad_id),
            token_positions=pad_ints(token_positions),
            column_positions=pad_ints(column_positions),
            column_types=pad_ints(column_types),
            segment_ids=pad_ints(segments),
            minhash=pad_floats(minhash),
            numeric=pad_floats(numeric),
            attention_mask=mask,
            interaction=np.asarray(interaction, dtype=np.float64),
        )


def batch_encodings(
    encodings: list[PairEncoding], pad_token_id: int = 0
) -> dict[str, np.ndarray]:
    """Stack encodings into batched arrays, padding ragged ones to the max.

    Each encoding fills its row up to its own length; the rest of a row is
    padding: integer signals get ``pad_token_id``/0, float signals get
    zeros, and the attention mask stays zero there so padded positions
    are invisible to attention. Equal-length encodings need no padding
    and come back stacked as they are.
    """
    target = max(e.length for e in encodings)
    n = len(encodings)

    def pad_ints(field: str, fill: int = 0) -> np.ndarray:
        out = np.full((n, target), fill, dtype=np.int64)
        for i, e in enumerate(encodings):
            out[i, : e.length] = getattr(e, field)
        return out

    def pad_floats(field: str) -> np.ndarray:
        width = getattr(encodings[0], field).shape[1]
        out = np.zeros((n, target, width), dtype=np.float64)
        for i, e in enumerate(encodings):
            out[i, : e.length] = getattr(e, field)
        return out

    mask = np.zeros((n, target), dtype=np.float64)
    for i, e in enumerate(encodings):
        mask[i, : e.length] = e.attention_mask
    return {
        "token_ids": pad_ints("token_ids", pad_token_id),
        "token_positions": pad_ints("token_positions"),
        "column_positions": pad_ints("column_positions"),
        "column_types": pad_ints("column_types"),
        "segment_ids": pad_ints("segment_ids"),
        "minhash": pad_floats("minhash"),
        "numeric": pad_floats("numeric"),
        "attention_mask": mask,
        "interaction": np.stack([e.interaction for e in encodings]),
    }

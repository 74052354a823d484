"""Batched ``EmbeddingEngine``: one trunk forward per batch of tables.

Lake-scale offline indexing (the deployment recipe of §V) embeds every
column once; batched encoding is the lever for indexing a lake (Starmie).
The engine is built around four ideas:

1. **One shared forward per batch.** ``model.embed_inputs`` →
   ``model.encoder`` runs once per batch; the pooler output (table
   embeddings) and the first-last-avg hidden states (column embeddings) are
   both read off that single invocation. A column beyond the sequence
   budget falls back to the table embedding, which is already in hand.
2. **Arrays in, arrays out, dynamic padding.** A call's tables arrive as
   one :class:`~repro.sketch.pipeline.SketchBatch` (a lake ingest's, or
   the arrays :meth:`~repro.sketch.pipeline.SketchBatch.of_sketches`
   gathers from sketch objects) and are encoded once, flat
   (:meth:`~repro.core.inputs.InputEncoder.encode_batch`). Each forward
   pads its tables to the *group's* longest instead of ``max_seq_len``
   (attention is O(S²)) with one gather per input from those flat arrays,
   and reads every column of the group in one pass: its span's states
   added one token offset at a time, then divided by the span's width,
   which is the span mean bit for bit. Padded positions are masked out of
   attention, and the vectors land in one ``(n_columns, dim)`` array in
   the batch's order (:class:`BatchEmbeddings`).
3. **Length bucketing.** ``embed_sketches`` sorts tables by encoded length
   before chunking, so each batch is near-uniform and wastes minimal
   padding; results are returned in the caller's order regardless.
4. **Eager inference, no graph.** Every forward here runs the trunk's
   ordinary :mod:`repro.nn.tensor` ops under ``no_grad``: each op runs its
   numpy at once, wraps the result and records no backward closure, and
   each value is bit for bit what the same op computes with gradients on.

``embed_sketches`` runs its batches one after another in the calling
thread; ``embed_corpus`` and ``embed_batch`` are its sketch-object forms.
The engine is still shared between threads — the lake server embeds
concurrent queries through it — so ``forward_calls`` is
updated under a lock; it counts trunk invocations: embedding N tables at
batch size B performs exactly ``ceil(N / B)`` forwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.inputs import EncodedBatch, InputEncoder
from repro.core.model import TabSketchFM
from repro.nn.tensor import no_grad
from repro.sketch.pipeline import SketchBatch, TableSketch, sketch_corpus  # noqa: F401 - re-exported

DEFAULT_BATCH_SIZE = 16

_FORWARDS = obs.counter(
    "engine_forwards_total", "Trunk forward passes run by the embedding engine"
)
_FORWARD_MS = obs.histogram(
    "engine_forward_duration_ms",
    "Wall time of one trunk forward (finalize + encode + readout), milliseconds",
)
_TOKENS = obs.counter(
    "engine_tokens_total", "Real (unpadded) tokens pushed through the trunk"
)
_PADDED_WASTE = obs.counter(
    "engine_padded_tokens_total",
    "Padding tokens wasted per forward, by power-of-two batch-length bucket",
    ("bucket",),
)


@dataclass
class TableEmbeddings:
    """Both embedding views of one table, from one shared forward."""

    table: np.ndarray    # (dim,) — BERT pooler output
    columns: np.ndarray  # (n_cols, dim) — first-last-avg over column spans


@dataclass
class BatchEmbeddings:
    """Both embedding views of every table of a batch, in batch order:
    ``tables[t]`` is table ``t``'s pooler output and its columns are
    ``columns[starts[t] : starts[t] + widths[t]]``."""

    tables: np.ndarray   # (n_tables, dim)
    columns: np.ndarray  # (n_columns, dim)
    widths: np.ndarray   # int64[n_tables]

    @property
    def starts(self) -> np.ndarray:
        """Each table's first row of ``columns``."""
        return np.cumsum(self.widths) - self.widths

    def per_table(self) -> list[TableEmbeddings]:
        """One :class:`TableEmbeddings` per table, views of the arrays."""
        return [
            TableEmbeddings(table=table, columns=self.columns[start : start + width])
            for table, start, width in zip(
                self.tables, self.starts.tolist(), self.widths.tolist()
            )
        ]


class EmbeddingEngine:
    """Produces table + column embeddings, one forward per batch."""

    def __init__(
        self,
        model: TabSketchFM,
        encoder: InputEncoder,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.encoder = encoder
        self.batch_size = batch_size
        #: Trunk invocations — the observable "one forward per batch" win.
        self.forward_calls = 0
        # Guards the counter when server threads embed queries concurrently;
        # the forward math itself is pure reads of frozen parameters (and
        # graph construction is off per-thread under no_grad).
        self._counter_lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self.model.config.dim

    @property
    def fusion_stats(self) -> dict:
        """Always ``{"cache_hits": 0, "cache_misses": 0}``: inference has no
        kernel cache.

        Kept only because the lake benchmark still reads these two keys
        for its ``core.engine.kernel_cache_hit_rate`` row; the benchmark
        change that drops that row (ROADMAP item 2(iv)) deletes this
        property with it.
        """
        return {"cache_hits": 0, "cache_misses": 0}

    # ------------------------------------------------------------------ #
    def _padded(
        self, encoded: EncodedBatch, group: np.ndarray, lengths: np.ndarray
    ) -> dict:
        """The model batch of ``group``'s tables, in that order, of the
        (clamped) ``lengths``: each input one gather of the encoder's flat
        arrays, padded to the group's longest table. A padded position
        gathers the encoder's padding token and zero feature row, and its
        mask is 0."""
        starts = encoded.bounds[group]
        positions = np.arange(int(lengths.max()))
        real = positions < lengths[:, None]
        tokens = np.where(real, starts[:, None] + positions, len(encoded.token_ids) - 1)
        rows = encoded.feature_rows[tokens]
        return {
            "token_ids": encoded.token_ids[tokens],
            "token_positions": encoded.token_positions[tokens],
            "column_positions": encoded.column_positions[tokens],
            "column_types": encoded.column_types[tokens],
            "segment_ids": np.zeros(tokens.shape, dtype=np.int64),
            "minhash": encoded.minhash[rows],
            "numeric": encoded.numeric[rows],
            "attention_mask": real.astype(np.float64),
        }

    def _forward_group(
        self, encoded: EncodedBatch, group: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shared forward for ``group``'s tables (batch indices, in
        forward order): their pooler outputs ``(len(group), dim)`` and
        first-last-avg column states (a row per column of each table in
        turn).

        Padding happens here, per group, so a corpus-sized call never holds
        two corpus-sized copies of the input arrays. A column's vector is
        the mean of its name span's states, read for every column of the
        group at once: the span's rows added one token offset at a time,
        then divided by the span's width — the sum and quotient NumPy's
        mean over the span's rows computes, bit for bit (``np.add.reduceat``
        would sum spans of three or more rows in another order).
        """
        # What the trunk reads of each table: its encoded length, clamped
        # to the sequence budget.
        lengths = np.minimum(
            encoded.bounds[group + 1] - encoded.bounds[group],
            self.encoder.config.max_seq_len,
        )
        with obs.span("engine.forward", tables=len(group)) as forward:
            batch = self._padded(encoded, group, lengths)
            if self.model.training:  # eval() walks every module
                self.model.eval()
            with no_grad():
                embedded = self.model.embed_inputs(batch)
                contextual = self.model.encoder(embedded, batch["attention_mask"])
                pooled = self.model.pool(contextual).numpy()
                first_last = ((embedded + contextual) * 0.5).numpy()
        with self._counter_lock:
            self.forward_calls += 1
        padded_len = int(lengths.max())
        waste = padded_len * len(lengths) - int(lengths.sum())
        bucket = 1 << max(0, padded_len - 1).bit_length()
        _FORWARDS.inc()
        _FORWARD_MS.observe(forward.duration_ms)
        _TOKENS.inc(int(lengths.sum()))
        _PADDED_WASTE.labels(bucket=str(bucket)).inc(waste)

        # Every column of the group: its batch row and its index in its
        # table.
        widths = encoded.widths[group]
        row = np.repeat(np.arange(len(group)), widths)
        index = np.arange(len(row)) - np.repeat(np.cumsum(widths) - widths, widths)
        # An encoded column whose name span starts inside the sequence
        # budget is read off its span (clamped to the budget); any other
        # carries the pooled table embedding, already computed in this same
        # forward.
        kept = index < np.repeat(encoded.kept[group], widths)
        span_starts = np.cumsum(encoded.kept) - encoded.kept
        spans = encoded.spans[np.repeat(span_starts[group], widths)[kept] + index[kept]]
        start = spans[:, 0]
        width = np.minimum(spans[:, 1], self.encoder.config.max_seq_len) - start
        inside = width > 0
        read = np.zeros(len(row), dtype=bool)
        read[kept] = inside
        columns = pooled[row]
        row, start, width = row[read], start[inside], width[inside]
        total = first_last[row, start]
        for offset in range(1, int(width.max(initial=0))):
            more = width > offset
            total[more] += first_last[row[more], start[more] + offset]
        columns[read] = total / width[:, None]
        return pooled, columns

    # ------------------------------------------------------------------ #
    def _embed(
        self, batch: SketchBatch, group_size: int | None
    ) -> BatchEmbeddings:
        """Encode ``batch`` once and run its forwards: one over the whole
        batch in its order (``group_size=None``), or, sorted by encoded
        length, one per ``group_size`` tables."""
        widths = np.asarray(batch.widths, dtype=np.int64)
        out = BatchEmbeddings(
            tables=np.zeros((len(widths), self.dim)),
            columns=np.zeros((int(widths.sum()), self.dim)),
            widths=widths,
        )
        if not len(widths):
            return out
        encoded = self.encoder.encode_batch(batch)
        if group_size is None:
            groups = [np.arange(len(widths))]
        else:
            order = np.argsort(np.diff(encoded.bounds), kind="stable")
            groups = [
                order[start : start + group_size]
                for start in range(0, len(order), group_size)
            ]
        starts = out.starts
        for group in groups:
            pooled, columns = self._forward_group(encoded, group)
            out.tables[group] = pooled
            # The group's columns, table after table, to their batch rows.
            group_widths = widths[group]
            offsets = starts[group] - (np.cumsum(group_widths) - group_widths)
            out.columns[
                np.repeat(offsets, group_widths) + np.arange(len(columns))
            ] = columns
        return out

    def embed_batch(self, sketches: list[TableSketch]) -> list[TableEmbeddings]:
        """Embed up to one batch of sketches in a *single* forward pass."""
        return self._embed(SketchBatch.of_sketches(sketches), None).per_table()

    def embed_sketches(
        self, batch: SketchBatch, batch_size: int | None = None
    ) -> BatchEmbeddings:
        """Embed a whole batch in ``ceil(N / batch_size)`` forwards.

        Tables are grouped by encoded length so each forward pads to a
        near-uniform max; the output is in the batch's order regardless.
        Forwards run one after another in the calling thread; a forward
        that raises propagates before anything is returned.
        """
        if batch_size is None:
            batch_size = self.batch_size
        elif batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._embed(batch, batch_size)

    def embed_corpus(
        self,
        sketches: list[TableSketch],
        batch_size: int | None = None,
    ) -> list[TableEmbeddings]:
        """Embed sketch objects in ``ceil(N / batch_size)`` forwards:
        :meth:`embed_sketches` of their gathered arrays, per table."""
        return self.embed_sketches(
            SketchBatch.of_sketches(sketches), batch_size
        ).per_table()

    def table_embeddings(self, sketches: list[TableSketch]) -> np.ndarray:
        """Stacked pooler embeddings, shape ``(n_tables, dim)``."""
        return self.embed_sketches(SketchBatch.of_sketches(sketches)).tables

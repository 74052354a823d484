"""Batched ``EmbeddingEngine``: one trunk forward per batch of tables.

Lake-scale offline indexing (the deployment recipe of §V) embeds every
column once; batched encoding is the lever for indexing a lake (Starmie).
The engine is built around four ideas:

1. **One shared forward per batch.** ``model.embed_inputs`` →
   ``model.encoder`` runs once per batch; the pooler output (table
   embeddings) and the first-last-avg hidden states (column embeddings) are
   both read off that single invocation. A column beyond the sequence
   budget falls back to the table embedding, which is already in hand.
2. **Dynamic padding.** Inputs are finalized at their natural length and
   padded to the *batch* max instead of ``max_seq_len`` (attention is
   O(S²); short tables stop paying full-sequence cost). Padded positions are
   masked out of attention, so results match the fixed-width path to
   floating-point noise.
3. **Length bucketing.** ``embed_corpus`` sorts tables by encoded length
   before chunking, so each batch is near-uniform and wastes minimal
   padding; results are returned in the caller's order regardless.
4. **Eager inference, no graph.** Every forward here runs the trunk's
   ordinary :mod:`repro.nn.tensor` ops under ``no_grad``: each op runs its
   numpy at once and records no backward closure, and each value is
   bit for bit what the same op computes with gradients on.

``embed_corpus`` runs its batches one after another in the calling thread.
The engine is still shared between threads — the lake server embeds
concurrent queries through ``embed_corpus`` — so ``forward_calls`` is
updated under a lock; it counts trunk invocations: embedding N tables at
batch size B performs exactly ``ceil(N / B)`` forwards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.inputs import EncodedTable, InputEncoder, PairEncoding, batch_encodings
from repro.core.model import TabSketchFM
from repro.nn.tensor import no_grad
from repro.sketch.pipeline import TableSketch, sketch_corpus  # noqa: F401 - re-exported

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
    def _finalize(self, encoded: EncodedTable) -> PairEncoding:
        """Finalize one encoded table at its natural (clamped) length."""
        segments = np.zeros(encoded.length, dtype=np.int64)
        return self.encoder._finalize(
            encoded.token_ids,
            encoded.token_positions,
            encoded.column_positions,
            encoded.column_types,
            segments,
            encoded.minhash,
            encoded.numeric,
            target_length=encoded.length,
        )

    def _forward_group(
        self, encodeds: list[EncodedTable], n_cols: list[int]
    ) -> list[TableEmbeddings]:
        """One shared forward for a group: pooler + first-last-avg states.

        Finalization (padding) happens here, per group, so a corpus-sized
        call never holds two corpus-sized copies of the input arrays.
        """
        pad_id = self.encoder.tokenizer.vocabulary.pad_id
        with obs.span("engine.forward", tables=len(encodeds)) as forward:
            batch = batch_encodings(
                [self._finalize(encoded) for encoded in encodeds], pad_token_id=pad_id
            )
            if self.model.training:  # eval() walks every module
                self.model.eval()
            with no_grad():
                embedded = self.model.embed_inputs(batch)
                contextual = self.model.encoder(embedded, batch["attention_mask"])
                pooled = self.model.pool(contextual).numpy()
                first_last = ((embedded + contextual) * 0.5).numpy()
        with self._counter_lock:
            self.forward_calls += 1
        lengths = [encoded.length for encoded in encodeds]
        padded_len = max(lengths)
        waste = padded_len * len(lengths) - sum(lengths)
        bucket = 1 << max(0, padded_len - 1).bit_length()
        _FORWARDS.inc()
        _FORWARD_MS.observe(forward.duration_ms)
        _TOKENS.inc(sum(lengths))
        _PADDED_WASTE.labels(bucket=str(bucket)).inc(waste)

        max_len = self.encoder.config.max_seq_len
        results: list[TableEmbeddings] = []
        for i, encoded in enumerate(encodeds):
            table_vec = pooled[i].copy()
            columns = np.zeros((n_cols[i], self.dim))
            for j, span in enumerate(encoded.spans[: n_cols[i]]):
                stop = min(span.stop, max_len)
                if span.start < max_len and stop > span.start:
                    columns[j] = first_last[i, span.start : stop].mean(axis=0)
                else:
                    # Over-budget column: the pooled table embedding is the
                    # fallback, already computed in this same forward.
                    columns[j] = table_vec
            for j in range(len(encoded.spans), n_cols[i]):
                columns[j] = table_vec
            results.append(TableEmbeddings(table=table_vec, columns=columns))
        return results

    # ------------------------------------------------------------------ #
    def embed_batch(self, sketches: list[TableSketch]) -> list[TableEmbeddings]:
        """Embed up to one batch of sketches in a *single* forward pass."""
        if not sketches:
            return []
        encodeds = self.encoder.encode_tables(sketches)
        return self._forward_group(encodeds, [s.n_cols for s in sketches])

    def embed_corpus(
        self,
        sketches: list[TableSketch],
        batch_size: int | None = None,
    ) -> list[TableEmbeddings]:
        """Embed a whole corpus in ``ceil(N / batch_size)`` forwards.

        Tables are grouped by encoded length so each batch pads to a
        near-uniform max; output order always matches the input order.
        Batches run one after another in the calling thread; a forward
        that raises propagates before anything is returned.
        """
        if batch_size is None:
            batch_size = self.batch_size
        elif batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not sketches:
            return []
        encodeds = self.encoder.encode_tables(sketches)
        order = sorted(range(len(sketches)), key=lambda i: encodeds[i].length)
        results: list[TableEmbeddings | None] = [None] * len(sketches)
        for start in range(0, len(order), batch_size):
            group = order[start : start + batch_size]
            group_results = self._forward_group(
                [encodeds[i] for i in group],
                [sketches[i].n_cols for i in group],
            )
            for index, result in zip(group, group_results):
                results[index] = result
        return results  # type: ignore[return-value]

    def table_embeddings(self, sketches: list[TableSketch]) -> np.ndarray:
        """Stacked pooler embeddings, shape ``(n_tables, dim)``."""
        if not sketches:
            return np.zeros((0, self.dim))
        return np.stack([r.table for r in self.embed_corpus(sketches)])

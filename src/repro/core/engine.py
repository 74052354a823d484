"""Batched ``EmbeddingEngine``: one trunk forward per batch of tables.

The per-table embedding path (`TableEmbedder`) historically paid two to
three forwards per table — one for the column embeddings, one for the
pooler/table embedding, and possibly one more as an over-budget fallback —
each padded to the global ``max_seq_len``. For lake-scale offline indexing
(the deployment recipe of §V) that is the throughput bottleneck: Starmie and
friends treat batched offline encoding as *the* lever for indexing a lake.

This engine restructures the path around three ideas:

1. **One shared forward per batch.** ``model.embed_inputs`` →
   ``model.encoder`` runs once per batch; the pooler output (table
   embeddings) and the first-last-avg hidden states (column embeddings) are
   both read off that single invocation, so the per-table double forward is
   gone — and the over-budget fallback (a column beyond the sequence budget
   falls back to the table embedding) is free batch-wide, because the pooled
   vector is already in hand.
2. **Dynamic padding.** Inputs are finalized at their natural length and
   padded to the *batch* max instead of ``max_seq_len`` (attention is
   O(S²); short tables stop paying full-sequence cost). Padded positions are
   masked out of attention, so results match the fixed-width path to
   floating-point noise.
3. **Length bucketing.** ``embed_corpus`` sorts tables by encoded length
   before chunking, so each batch is near-uniform and wastes minimal
   padding; results are returned in the caller's order regardless.
4. **Fused inference kernels.** Every forward here runs under ``no_grad``,
   which (with ``$REPRO_NN_LAZY`` on, the default) puts the trunk in the
   lazy, fusing evaluation mode of :mod:`repro.nn.lazy`: elementwise
   chains run as cached fused kernels keyed by shape bucket — the same
   buckets this engine's length bucketing produces — so every forward
   after the first hits the kernel cache. ``fusion_stats`` surfaces the
   counters.

``forward_calls`` counts trunk invocations: embedding N tables at batch
size B performs exactly ``ceil(N / B)`` forwards.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.inputs import EncodedTable, InputEncoder, PairEncoding, batch_encodings
from repro.core.model import TabSketchFM
from repro.nn import lazy
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
_POOL_PROCS = obs.gauge(
    "engine_pool_procs", "Worker processes in the live ingest process pool"
)
_POOL_BATCHES = obs.counter(
    "engine_pool_batches_total",
    "Batches embedded inside pool worker processes",
)
_POOL_BATCH_MS = obs.histogram(
    "engine_pool_batch_duration_ms",
    "Worker-side wall time of one pooled batch forward, milliseconds",
)
_POOL_UTILIZATION = obs.gauge(
    "engine_pool_utilization",
    "Busy fraction of the last process-pool embed_corpus call: summed "
    "worker batch time / (procs x call wall time)",
)


class IngestPoolError(RuntimeError):
    """A process-pool ingest failed because a worker process died.

    The failing :meth:`EmbeddingEngine.embed_corpus` call raises before
    returning any embeddings, so callers (``LakeCatalog.add_tables``)
    register nothing — no partial catalog state survives a worker death.
    """


# ----------------------------------------------------------------------- #
# Process-pool worker side.
#
# Spawn-safe by construction: the initializer receives only a bundle
# directory path (weights + config + vocab written by the parent via
# ``repro.lake.bundle.save_bundle``) and rebuilds the whole embedding stack
# once per worker. Per-call payloads are the already-encoded input arrays
# (:class:`~repro.core.inputs.EncodedTable` is plain numpy), and results
# come back as stacked ``(table_vecs, col_vecs, col_counts)`` arrays — no
# model objects ever cross the process boundary.
# ----------------------------------------------------------------------- #
_WORKER_ENGINE: "EmbeddingEngine | None" = None


def _pool_initializer(bundle_dir: str, batch_size: int, bucket: bool) -> None:
    """Load the weight bundle exactly once per worker process."""
    global _WORKER_ENGINE
    from repro.lake.bundle import load_bundle

    model, encoder, _ = load_bundle(bundle_dir)
    _WORKER_ENGINE = EmbeddingEngine(
        model, encoder, batch_size=batch_size, bucket=bucket
    )


def _pool_forward(payload):
    """Run one batch forward in a worker; arrays in, arrays out.

    ``payload`` is ``(encodeds, n_cols)``; the return is
    ``(table_vecs (B, dim), col_vecs (sum n_cols, dim), col_counts (B,),
    worker_ms)`` — the parent splits ``col_vecs`` back per table.
    """
    encodeds, n_cols = payload
    assert _WORKER_ENGINE is not None, "pool worker was never initialized"
    started = time.perf_counter()
    results = _WORKER_ENGINE._forward_group(encodeds, n_cols)
    tables = np.stack([r.table for r in results])
    columns = np.concatenate([r.columns for r in results])
    counts = np.asarray(n_cols, dtype=np.int64)
    return tables, columns, counts, (time.perf_counter() - started) * 1000.0


def _shutdown_pool(executor: ProcessPoolExecutor, bundle_dir) -> None:
    """Finalizer shared by explicit close, pool replacement, and GC."""
    executor.shutdown(wait=False, cancel_futures=True)
    bundle_dir.cleanup()


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
        bucket: bool = True,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.encoder = encoder
        self.batch_size = batch_size
        self.bucket = bucket
        #: Trunk invocations — the observable "one forward per batch" win.
        self.forward_calls = 0
        # Guards the counter when embed_corpus fans batches across threads;
        # the forward math itself is pure reads of frozen parameters (and
        # graph construction is off per-thread under no_grad).
        self._counter_lock = threading.Lock()
        # Lazily-created spawn pool for process_workers > 1; reused across
        # embed_corpus calls so steady-state ingest pays the worker startup
        # (spawn + bundle load) once, not per call.
        self._pool: ProcessPoolExecutor | None = None
        self._pool_procs = 0
        self._pool_finalizer: weakref.finalize | None = None

    @property
    def dim(self) -> int:
        return self.model.config.dim

    @property
    def fusion_stats(self) -> dict:
        """Lazy-engine fusion counters as plain ints.

        ``kernels_executed`` / ``cache_hits`` / ``cache_misses`` /
        ``fused_softmax`` / ``fused_layernorm`` / ``ops_fused`` plus the
        current cache size and whether lazy mode is enabled — the
        process-wide view from :func:`repro.nn.lazy.cache_info` (fusion is
        per-process, not per-engine).
        """
        return lazy.cache_info()

    # ------------------------------------------------------------------ #
    # Process-pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self, procs: int) -> ProcessPoolExecutor:
        """The live spawn pool at ``procs`` workers, (re)built on demand.

        Building a pool snapshots the current weights into a temp bundle
        dir (``repro.lake.bundle.save_bundle`` — float64 npz, so the
        round-trip is bit-exact) and starts ``procs`` spawn workers whose
        initializer loads it once. Mutating the model afterwards requires
        :meth:`close_process_pool` so the next call re-snapshots.
        """
        if self._pool is not None and self._pool_procs == procs:
            return self._pool
        self.close_process_pool()
        from repro.lake.bundle import save_bundle

        bundle_dir = tempfile.TemporaryDirectory(prefix="repro-engine-pool-")
        save_bundle(bundle_dir.name, self.model, self.encoder.tokenizer)
        executor = ProcessPoolExecutor(
            max_workers=procs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_pool_initializer,
            initargs=(bundle_dir.name, self.batch_size, self.bucket),
        )
        self._pool = executor
        self._pool_procs = procs
        # GC/interpreter-exit safety net; explicit close uses it too.
        self._pool_finalizer = weakref.finalize(
            self, _shutdown_pool, executor, bundle_dir
        )
        _POOL_PROCS.set(procs)
        return executor

    def close_process_pool(self) -> None:
        """Tear down the worker pool (and its temp weight bundle), if any."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
        self._pool = None
        self._pool_procs = 0
        _POOL_PROCS.set(0)

    def _embed_groups_pooled(
        self,
        procs: int,
        groups: "list[list[int]]",
        encodeds: "list[EncodedTable]",
        n_cols_all: "list[int]",
    ) -> "list[list[TableEmbeddings]]":
        """Fan length-bucketed groups across the spawn pool.

        Each group is one worker-side forward; results come back as
        ``(table_vecs, col_vecs, col_counts)`` arrays and are unpacked
        into the same :class:`TableEmbeddings` the in-process path builds
        — bitwise-identical, since the workers run the identical forward
        on a bit-exact copy of the weights.
        """
        pool = self._ensure_pool(procs)
        started = time.perf_counter()
        per_group: list[list[TableEmbeddings]] = []
        worker_ms = 0.0
        try:
            # submit() itself raises BrokenProcessPool when the executor
            # already noticed a dead worker, so it lives inside the guard.
            futures = [
                pool.submit(
                    _pool_forward,
                    ([encodeds[i] for i in group], [n_cols_all[i] for i in group]),
                )
                for group in groups
            ]
            for future in futures:
                tables, columns, counts, batch_ms = future.result()
                worker_ms += batch_ms
                group_results: list[TableEmbeddings] = []
                offset = 0
                for j in range(tables.shape[0]):
                    n = int(counts[j])
                    group_results.append(
                        TableEmbeddings(
                            table=tables[j],
                            columns=columns[offset : offset + n],
                        )
                    )
                    offset += n
                per_group.append(group_results)
                if obs.enabled():
                    _POOL_BATCHES.inc()
                    _POOL_BATCH_MS.observe(batch_ms)
        except BrokenProcessPool as exc:
            # A worker died mid-batch (OOM kill, crash). The pool is
            # unusable — drop it so the next call builds a fresh one — and
            # fail the whole ingest loudly: no embeddings are returned, so
            # the caller registers nothing (no partial catalog state).
            self.close_process_pool()
            raise IngestPoolError(
                f"ingest worker process died mid-batch (pool of {procs}); "
                "no tables from this call were embedded or ingested"
            ) from exc
        with self._counter_lock:
            self.forward_calls += len(groups)
        if obs.enabled():
            wall_ms = (time.perf_counter() - started) * 1000.0
            _POOL_UTILIZATION.set(
                min(1.0, worker_ms / (procs * wall_ms)) if wall_ms > 0 else 0.0
            )
        return per_group

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
            self.model.eval()
            with no_grad():
                embedded = self.model.embed_inputs(batch)
                contextual = self.model.encoder(embedded, batch["attention_mask"])
                pooled = self.model.pool(contextual).numpy()
                first_last = ((embedded + contextual) * 0.5).numpy()
        with self._counter_lock:
            self.forward_calls += 1
        if obs.enabled():
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
        encodeds = [self.encoder.encode_table(sketch) for sketch in sketches]
        return self._forward_group(encodeds, [s.n_cols for s in sketches])

    def embed_corpus(
        self,
        sketches: list[TableSketch],
        batch_size: int | None = None,
        workers: int | None = None,
        process_workers: int | None = None,
    ) -> list[TableEmbeddings]:
        """Embed a whole corpus in ``ceil(N / batch_size)`` forwards.

        With bucketing on, tables are grouped by encoded length so each
        batch pads to a near-uniform max; output order always matches the
        input order. ``workers`` fans independent batch forwards across a
        thread pool (each batch's math touches only its own arrays, so
        results are bitwise-identical to the sequential path; the BLAS
        matmuls release the GIL, which is where the overlap comes from).

        ``process_workers > 1`` fans the same groups across a persistent
        spawn pool instead — true multi-core scaling past the GIL. Each
        worker loads the weight bundle once at startup; batches travel as
        encoded arrays and results return as stacked vector arrays, so
        nothing heavyweight is pickled per call, and the embeddings are
        bitwise-identical to the in-process path. ``process_workers`` of
        ``None``/0/1 is *exactly* the serial/threaded path (no pool, no
        temp bundle); it takes precedence over ``workers`` when both are
        set above 1.
        """
        if batch_size is None:
            batch_size = self.batch_size
        elif batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if process_workers is not None and process_workers < 0:
            raise ValueError(
                f"process_workers must be >= 0, got {process_workers}"
            )
        if not sketches:
            return []
        encodeds = [self.encoder.encode_table(sketch) for sketch in sketches]
        order = list(range(len(sketches)))
        if self.bucket:
            order.sort(key=lambda i: encodeds[i].length)
        groups = [
            order[start : start + batch_size]
            for start in range(0, len(order), batch_size)
        ]
        n_cols_all = [sketch.n_cols for sketch in sketches]

        results: list[TableEmbeddings | None] = [None] * len(sketches)
        if process_workers and process_workers > 1:
            per_group = self._embed_groups_pooled(
                process_workers, groups, encodeds, n_cols_all
            )
        else:

            def run_group(group: list[int]) -> list[TableEmbeddings]:
                return self._forward_group(
                    [encodeds[i] for i in group],
                    [n_cols_all[i] for i in group],
                )

            if workers and workers > 1 and len(groups) > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    per_group = list(pool.map(run_group, groups))
            else:
                per_group = [run_group(group) for group in groups]
        for group, group_results in zip(groups, per_group):
            for index, result in zip(group, group_results):
                results[index] = result
        return results  # type: ignore[return-value]

    def table_embeddings(self, sketches: list[TableSketch]) -> np.ndarray:
        """Stacked pooler embeddings, shape ``(n_tables, dim)``."""
        if not sketches:
            return np.zeros((0, self.dim))
        return np.stack([r.table for r in self.embed_corpus(sketches)])

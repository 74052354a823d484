"""Batched `EmbeddingEngine`: one forward per batch, dynamic padding, and
equivalence with the sequential fixed-width path."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.engine import EmbeddingEngine, sketch_corpus
from repro.core.inputs import batch_encodings
from repro.nn.tensor import no_grad
from repro.sketch import sketch_table
from repro.table.schema import table_from_rows

ATOL = 1e-8


def _reference_embeddings(model, encoder, sketch):
    """The pre-engine sequential path: one table at a time, every input
    padded to the global ``max_seq_len``; table and column embeddings from
    independent forwards."""
    encoding = encoder.encode_single(sketch)  # fixed-width padding
    batch = batch_encodings([encoding])
    model.eval()
    with no_grad():
        embedded = model.embed_inputs(batch)
        contextual = model.encoder(embedded, batch["attention_mask"])
        pooled = model.pool(contextual).numpy()[0]
        hidden = ((embedded + contextual) * 0.5).numpy()[0]
    encoded = encoder.encode_table(sketch)
    max_len = encoder.config.max_seq_len
    columns = np.zeros((sketch.n_cols, model.config.dim))
    for i, span in enumerate(encoded.spans):
        stop = min(span.stop, max_len)
        if span.start < max_len and stop > span.start:
            columns[i] = hidden[span.start:stop].mean(axis=0)
        else:
            columns[i] = pooled
    for i in range(len(encoded.spans), sketch.n_cols):
        columns[i] = pooled
    return pooled, columns


def _wide_table(n_cols=31, name="wide"):
    """A table whose encoding exceeds the tiny config's max_seq_len (96),
    so some columns fall past the sequence budget."""
    header = [f"very long column name number {i}" for i in range(n_cols)]
    rows = [[str(i * j) for i in range(n_cols)] for j in range(4)]
    return table_from_rows(name, header, rows, description="a very wide table")


@pytest.fixture()
def ragged_sketches(city_table, product_table, mixed_table, tiny_sketch_config):
    tables = [city_table, product_table, mixed_table, _wide_table()]
    # Pad out to 7 tables with renamed single/multi-column variants.
    for i, base in enumerate((city_table, product_table, mixed_table)):
        tables.append(base.with_columns(base.columns, name=f"variant{i}"))
    return [sketch_table(t, tiny_sketch_config) for t in tables]


def test_wide_table_exceeds_budget(tiny_encoder, ragged_sketches):
    wide = next(s for s in ragged_sketches if s.table_name == "wide")
    assert tiny_encoder.encode_table(wide).length > tiny_encoder.config.max_seq_len


@pytest.mark.parametrize("batch_size", [1, 2, 7])
def test_batched_matches_sequential(
    tiny_model, tiny_encoder, ragged_sketches, batch_size
):
    """The batched engine matches the sequential reference path."""
    engine = EmbeddingEngine(tiny_model, tiny_encoder, batch_size=batch_size)
    results = engine.embed_corpus(ragged_sketches)
    assert len(results) == len(ragged_sketches)
    for sketch, result in zip(ragged_sketches, results):
        table_ref, columns_ref = _reference_embeddings(
            tiny_model, tiny_encoder, sketch
        )
        assert np.allclose(result.table, table_ref, atol=ATOL)
        assert result.columns.shape == (sketch.n_cols, engine.dim)
        assert np.allclose(result.columns, columns_ref, atol=ATOL)


def test_bucket_kwarg_is_gone(tiny_model, tiny_encoder):
    """``embed_corpus`` always length-buckets; there is no switch to pass."""
    with pytest.raises(TypeError, match="bucket"):
        EmbeddingEngine(tiny_model, tiny_encoder, bucket=True)


def test_forward_count_is_ceil_n_over_b(tiny_model, tiny_encoder, ragged_sketches):
    engine = EmbeddingEngine(tiny_model, tiny_encoder, batch_size=2)
    engine.embed_corpus(ragged_sketches)  # 7 sketches
    assert engine.forward_calls == 4  # ceil(7 / 2)
    engine.embed_batch(ragged_sketches[:5])
    assert engine.forward_calls == 5  # embed_batch = exactly one forward


def test_over_budget_fallback_needs_no_extra_forward(tiny_model, tiny_encoder,
                                                     tiny_sketch_config):
    sketch = sketch_table(_wide_table(), tiny_sketch_config)
    engine = EmbeddingEngine(tiny_model, tiny_encoder)
    result = engine.embed_batch([sketch])[0]
    assert engine.forward_calls == 1
    # Over-budget columns carry the pooled table embedding.
    encoded = tiny_encoder.encode_table(sketch)
    max_len = tiny_encoder.config.max_seq_len
    over_budget = [
        i for i, span in enumerate(encoded.spans) if span.start >= max_len
    ]
    assert over_budget, "fixture must contain over-budget columns"
    for i in over_budget:
        assert np.allclose(result.columns[i], result.table, atol=ATOL)


def test_empty_corpus(tiny_model, tiny_encoder):
    engine = EmbeddingEngine(tiny_model, tiny_encoder)
    assert engine.embed_corpus([]) == []
    assert engine.embed_batch([]) == []
    assert engine.table_embeddings([]).shape == (0, engine.dim)
    assert engine.forward_calls == 0


def test_invalid_batch_size(tiny_model, tiny_encoder, city_sketch):
    with pytest.raises(ValueError, match="batch_size"):
        EmbeddingEngine(tiny_model, tiny_encoder, batch_size=0)
    engine = EmbeddingEngine(tiny_model, tiny_encoder)
    # Per-call overrides are validated too (0 must not silently fall back
    # to the default, negatives must not yield empty results).
    for bad in (0, -5):
        with pytest.raises(ValueError, match="batch_size"):
            engine.embed_corpus([city_sketch], batch_size=bad)
        with pytest.raises(ValueError, match="batch_size"):
            engine.embed_corpus([], batch_size=bad)  # validated even empty


# --------------------------------------------------------------------- #
def test_dynamic_padding_mask_correctness(tiny_encoder, ragged_sketches):
    """Ragged batches pad to the batch max; masks mark exactly the real
    tokens and the pad region carries pad_id / zeros."""
    encodings = [tiny_encoder.encode_single(s, pad=False) for s in ragged_sketches]
    lengths = [e.length for e in encodings]
    assert len(set(lengths)) > 1, "fixture must be ragged"
    batch = batch_encodings(
        encodings, pad_token_id=tiny_encoder.tokenizer.vocabulary.pad_id
    )
    target = max(lengths)
    assert batch["token_ids"].shape == (len(encodings), target)
    assert batch["minhash"].shape[:2] == (len(encodings), target)
    pad_id = tiny_encoder.tokenizer.vocabulary.pad_id
    for i, encoding in enumerate(encodings):
        mask = batch["attention_mask"][i]
        assert mask.sum() == encoding.length
        assert np.all(mask[: encoding.length] == 1.0)
        assert np.all(mask[encoding.length :] == 0.0)
        assert np.all(batch["token_ids"][i, encoding.length :] == pad_id)
        assert np.all(batch["minhash"][i, encoding.length :] == 0.0)
        # Real content is carried through unchanged.
        assert np.array_equal(
            batch["token_ids"][i, : encoding.length], encoding.token_ids
        )


def test_finalize_clamps_target_to_max_seq_len(tiny_encoder, ragged_sketches):
    wide = next(s for s in ragged_sketches if s.table_name == "wide")
    encoding = tiny_encoder.encode_single(wide, pad=False)
    assert encoding.length == tiny_encoder.config.max_seq_len


def _grouped_reference(model, encoder, sketches, batch_size):
    """The per-table padding path, in ``embed_corpus``'s length groups:
    each table finalized at its natural length (``encode_single(pad=False)``),
    the group stacked by ``batch_encodings``, and each column read off its
    span with ``.mean(axis=0)``."""
    encodeds = [encoder.encode_table(sketch) for sketch in sketches]
    order = sorted(range(len(sketches)), key=lambda i: encodeds[i].length)
    max_len = encoder.config.max_seq_len
    pad_id = encoder.tokenizer.vocabulary.pad_id
    out = [None] * len(sketches)
    model.eval()
    for start in range(0, len(order), batch_size):
        group = order[start : start + batch_size]
        batch = batch_encodings(
            [encoder.encode_single(sketches[i], pad=False) for i in group],
            pad_token_id=pad_id,
        )
        with no_grad():
            embedded = model.embed_inputs(batch)
            contextual = model.encoder(embedded, batch["attention_mask"])
            pooled = model.pool(contextual).numpy()
            hidden = ((embedded + contextual) * 0.5).numpy()
        for row, i in enumerate(group):
            columns = np.zeros((sketches[i].n_cols, model.config.dim))
            columns[:] = pooled[row]
            for j, span in enumerate(encodeds[i].spans):
                stop = min(span.stop, max_len)
                if span.start < max_len and stop > span.start:
                    columns[j] = hidden[row, span.start : stop].mean(axis=0)
            out[i] = (pooled[row], columns)
    return out


@pytest.mark.parametrize("batch_size", [1, 2, 7])
def test_gathered_batches_are_the_padded_path_bit_for_bit(
    tiny_model, tiny_encoder, ragged_sketches, batch_size
):
    """``embed_corpus`` pads each group with one gather of the encoder's
    flat arrays and reads every column in offset steps; both give the
    per-table padding and ``.mean(axis=0)`` bits exactly."""
    engine = EmbeddingEngine(tiny_model, tiny_encoder, batch_size=batch_size)
    results = engine.embed_corpus(ragged_sketches)
    expected = _grouped_reference(
        tiny_model, tiny_encoder, ragged_sketches, batch_size
    )
    assert max(
        span.stop - span.start
        for sketch in ragged_sketches
        for span in tiny_encoder.encode_table(sketch).spans
    ) >= 3
    for result, (table, columns) in zip(results, expected):
        assert result.table.tobytes() == table.tobytes()
        assert result.columns.shape == columns.shape
        assert result.columns.tobytes() == columns.tobytes()


# --------------------------------------------------------------------- #
def test_sketch_corpus_batched_matches_per_table(
    city_table, product_table, mixed_table, tiny_sketch_config
):
    tables = [city_table, product_table, mixed_table] * 2
    sequential = [sketch_table(t, tiny_sketch_config) for t in tables]
    batched = sketch_corpus(tables, tiny_sketch_config)
    assert [s.table_name for s in batched] == [s.table_name for s in sequential]
    for a, b in zip(batched, sequential):
        assert np.array_equal(a.snapshot.signature, b.snapshot.signature)
        for col_a, col_b in zip(a.column_sketches, b.column_sketches):
            assert np.array_equal(
                col_a.values_minhash.signature, col_b.values_minhash.signature
            )


def test_concurrent_embed_batch_bitwise_identical(
    tiny_model, tiny_encoder, ragged_sketches
):
    """The server's real concurrency: request threads calling
    ``embed_batch`` on one shared engine. It must change nothing: same
    embeddings to the bit, and an exact forward count (the counter is
    lock-guarded against racing increments)."""
    n_threads = 4
    engine = EmbeddingEngine(tiny_model, tiny_encoder)
    batches = [ragged_sketches[i : i + 2] for i in range(0, len(ragged_sketches), 2)]
    barrier = threading.Barrier(n_threads)

    def serve(_slot: int) -> list:
        barrier.wait(timeout=30)
        return [engine.embed_batch(batch) for batch in batches]

    sequential = [engine.embed_batch(batch) for batch in batches]
    calls_before = engine.forward_calls
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        concurrent = list(pool.map(serve, range(n_threads), timeout=60))
    assert engine.forward_calls - calls_before == n_threads * len(batches)
    for served in concurrent:
        for got_batch, want_batch in zip(served, sequential, strict=True):
            for got, want in zip(got_batch, want_batch, strict=True):
                assert np.array_equal(got.table, want.table)
                assert np.array_equal(got.columns, want.columns)


# --------------------------------------------------------------------- #
# Inference hygiene: no_grad everywhere, eval dropout a true identity
# --------------------------------------------------------------------- #
def test_inference_paths_run_under_no_grad(
    tiny_model, tiny_encoder, ragged_sketches, city_table, monkeypatch
):
    """Every inference forward must run with graph construction off —
    building backward closures for embeddings is pure waste. Probes the
    trunk entry during ``embed_corpus`` and a searcher warm build (the
    catalog's ``column_vector_pairs_many`` rides the same
    ``embed_corpus`` funnel; the server tier asserts its counters)."""
    from repro.core.embed import TableEmbedder
    from repro.lake.catalog import TabSketchFMSearcher
    from repro.nn.tensor import is_grad_enabled

    grad_seen: list[bool] = []
    original = tiny_model.embed_inputs

    def probe(batch):
        grad_seen.append(is_grad_enabled())
        return original(batch)

    monkeypatch.setattr(tiny_model, "embed_inputs", probe)
    engine = EmbeddingEngine(tiny_model, tiny_encoder, batch_size=4)
    engine.embed_corpus(ragged_sketches)
    assert grad_seen and not any(grad_seen)

    grad_seen.clear()
    TabSketchFMSearcher(
        TableEmbedder(tiny_model, tiny_encoder), {city_table.name: city_table}
    )
    assert grad_seen and not any(grad_seen)
    # No backward graph was built anywhere: parameters never saw gradients.
    assert all(p.grad is None for p in tiny_model.parameters())


def test_eval_dropout_is_true_identity():
    """Eval-mode (or p=0) dropout must return the *same* tensor — no copy,
    no graph node."""
    from repro.nn.layers import Dropout
    from repro.nn.tensor import Tensor

    layer = Dropout(0.5)
    layer.eval()
    x = Tensor(np.ones((3, 4)))
    assert layer(x) is x

    zero_p = Dropout(0.0)  # identity even in training mode
    y = Tensor(np.ones(5))
    assert zero_p(y) is y


def test_a_forward_after_train_is_still_dropout_free(
    tiny_config, tiny_encoder, ragged_sketches
):
    """The engine puts the model in eval mode only when it is training (the
    walk costs a share of a batch-of-1 forward), so a forward right after
    ``model.train()`` on a model with dropout is still bit-identical to one
    before it — and leaves the model in eval mode."""
    from dataclasses import replace

    from repro.core.model import TabSketchFM

    model = TabSketchFM(replace(tiny_config, dropout=0.5))
    engine = EmbeddingEngine(model, tiny_encoder)
    before = engine.embed_batch(ragged_sketches)
    again = engine.embed_batch(ragged_sketches)
    model.train()
    after = engine.embed_batch(ragged_sketches)
    assert not any(module.training for module in model.modules())
    for results in (again, after):
        for got, want in zip(results, before):
            assert got.table.tobytes() == want.table.tobytes()
            assert got.columns.tobytes() == want.columns.tobytes()

"""Embedding extraction and the SBERT concatenation rules."""

import numpy as np
import pytest

from repro.core.embed import (
    TableEmbedder,
    concat_normalized,
    finalize_column_vectors,
    standardize,
)
from repro.sketch import sketch_table
from repro.table.transform import shuffle_rows
from repro.text.sbert import HashedSentenceEncoder
from repro.utils.rng import spawn_rng


@pytest.fixture()
def embedder(tiny_model, tiny_encoder):
    return TableEmbedder(tiny_model, tiny_encoder)


def test_table_embedding_shape(embedder, city_sketch):
    vector = embedder.table_embedding(city_sketch)
    assert vector.shape == (embedder.dim,)
    assert np.all(np.isfinite(vector))


def test_column_embeddings_shape(embedder, city_sketch):
    vectors = embedder.engine.embed_batch([city_sketch])[0].columns
    assert vectors.shape == (city_sketch.n_cols, embedder.dim)


def test_columns_have_distinct_embeddings(embedder, city_sketch):
    vectors = embedder.engine.embed_batch([city_sketch])[0].columns
    assert not np.allclose(vectors[0], vectors[1])


def test_row_shuffle_invariance(embedder, city_table, tiny_sketch_config):
    """Sketches are set-based: row order cannot change the embedding
    (the paper's §IV-C3 probe: 3072/3072 row-shuffled variants returned)."""
    shuffled = shuffle_rows(city_table, spawn_rng(0, "shuffle"))
    original = embedder.table_embedding(sketch_table(city_table, tiny_sketch_config))
    permuted = embedder.table_embedding(sketch_table(shuffled, tiny_sketch_config))
    assert np.allclose(original, permuted)


def test_table_embeddings_stack(embedder, city_sketch, product_sketch):
    stacked = embedder.table_embeddings([city_sketch, product_sketch])
    assert stacked.shape == (2, embedder.dim)
    assert embedder.table_embeddings([]).shape == (0, embedder.dim)


def test_standardize():
    vector = np.array([1.0, 2.0, 3.0, 4.0])
    out = standardize(vector)
    assert out.mean() == pytest.approx(0.0)
    assert out.std() == pytest.approx(1.0)


def test_standardize_constant_vector_safe():
    out = standardize(np.ones(5))
    assert np.allclose(out, 0.0)


def test_concat_normalized_balances_scales():
    """Neither half may dominate distances after normalization (§IV-C1)."""
    small = np.random.default_rng(0).normal(0, 0.001, size=8)
    large = np.random.default_rng(1).normal(0, 1000.0, size=8)
    combined = concat_normalized(small, large)
    assert combined.shape == (16,)
    first_scale = np.std(combined[:8])
    second_scale = np.std(combined[8:])
    assert first_scale == pytest.approx(second_scale, rel=1e-6)


def test_finalize_column_vectors_sbert_half_needs_the_table(embedder, city_sketch):
    """The SBERT half reads raw cell values: without the Table it fails
    with an explanatory ValueError, not a KeyError."""
    columns = embedder.engine.embed_batch([city_sketch])[0].columns
    with pytest.raises(ValueError, match="sbert"):
        finalize_column_vectors(
            columns, city_sketch, sbert=HashedSentenceEncoder(dim=16)
        )
    pairs = finalize_column_vectors(columns, city_sketch)
    assert [name for name, _ in pairs] == city_sketch.column_names

"""Input encoding: the six aligned signals of Fig. 1."""

import numpy as np
import pytest

from repro.core.config import SketchSelection
from repro.core.inputs import batch_encodings
from repro.sketch.minhash import slot_features


def test_encode_table_alignment(tiny_encoder, city_sketch):
    encoded = tiny_encoder.encode_table(city_sketch)
    length = encoded.length
    assert encoded.token_positions.shape == (length,)
    assert encoded.column_positions.shape == (length,)
    assert encoded.column_types.shape == (length,)
    assert encoded.minhash.shape == (length, tiny_encoder.config.minhash_input_dim)
    assert encoded.numeric.shape[0] == length


def test_cls_first_and_spans_cover_columns(tiny_encoder, city_sketch):
    encoded = tiny_encoder.encode_table(city_sketch)
    vocab = tiny_encoder.tokenizer.vocabulary
    assert encoded.token_ids[0] == vocab.cls_id
    assert len(encoded.spans) == city_sketch.n_cols
    for span, sketch in zip(encoded.spans, city_sketch.column_sketches):
        assert span.stop > span.start
        # Every token in the span carries the column's position and type.
        col_pos = encoded.column_positions[span.start]
        assert np.all(encoded.column_positions[span.start : span.stop] == col_pos)
        assert np.all(
            encoded.column_types[span.start : span.stop] == int(sketch.ctype)
        )


def test_description_positions_are_column_zero(tiny_encoder, city_sketch):
    encoded = tiny_encoder.encode_table(city_sketch)
    start, stop = encoded.description_span
    assert stop > start  # the fixture table has a description
    assert np.all(encoded.column_positions[start:stop] == 0)
    assert np.all(encoded.column_types[start:stop] == 0)


def test_description_carries_content_snapshot(tiny_encoder, city_sketch):
    """E_CS fills the values half of the [CLS]/description rows; the words
    half stays zero."""
    encoded = tiny_encoder.encode_table(city_sketch)
    num_perm = tiny_encoder.config.sketch.num_perm
    start, _ = encoded.description_span
    for position in (0, start):
        row = encoded.minhash[position]
        assert row.shape == (2 * num_perm,)
        assert np.array_equal(
            row[:num_perm], slot_features(city_sketch.snapshot.signature)
        )
        assert np.all(row[num_perm:] == 0)
    assert np.allclose(encoded.numeric[start], 0.0)


def test_token_positions_reset_per_column(tiny_encoder, product_sketch):
    encoded = tiny_encoder.encode_table(product_sketch)
    for span in encoded.spans:
        positions = encoded.token_positions[span.start : span.stop]
        assert positions[0] == 0
        assert list(positions) == list(range(len(positions)))


def test_column_minhash_rows(tiny_encoder, city_sketch):
    encoded = tiny_encoder.encode_table(city_sketch)
    span = encoded.spans[0]  # "city": string column
    column = city_sketch.column_sketches[0]
    expected = np.concatenate(
        [
            slot_features(column.values_minhash.signature),
            slot_features(column.words_minhash.signature),
        ]
    )
    for position in range(span.start, span.stop + 1):  # the [SEP] too
        assert np.array_equal(encoded.minhash[position], expected)


def test_column_minhash_row_layout(tiny_encoder, city_sketch):
    """String columns fill both halves (E_{C||W} in Fig. 1); numeric and
    date columns only the values half (E_C)."""
    encoded = tiny_encoder.encode_table(city_sketch)
    num_perm = tiny_encoder.config.sketch.num_perm
    string_row = encoded.minhash[encoded.spans[0].start]
    assert string_row.shape == (2 * num_perm,)
    assert np.any(string_row[:num_perm] > 0)
    assert np.any(string_row[num_perm:] > 0)
    numeric_row = encoded.minhash[encoded.spans[1].start]  # "population"
    assert np.any(numeric_row[:num_perm] != 0)
    assert np.all(numeric_row[num_perm:] == 0)


def test_sketch_selection_zeroes_disabled_inputs(tiny_config, tiny_tokenizer, city_sketch):
    from repro.core.inputs import InputEncoder

    config = tiny_config.with_selection(
        SketchSelection(use_minhash=False, use_numeric=False, use_snapshot=False)
    )
    encoder = InputEncoder(config, tiny_tokenizer)
    encoded = encoder.encode_table(city_sketch)
    assert np.allclose(encoded.minhash, 0.0)
    assert np.allclose(encoded.numeric, 0.0)


def test_encode_single_padding(tiny_encoder, city_sketch):
    encoding = tiny_encoder.encode_single(city_sketch)
    seq = tiny_encoder.config.max_seq_len
    assert encoding.token_ids.shape == (seq,)
    assert encoding.attention_mask.sum() < seq  # padded
    pad_id = tiny_encoder.tokenizer.vocabulary.pad_id
    padded_region = encoding.token_ids[int(encoding.attention_mask.sum()):]
    assert np.all(padded_region == pad_id)


def test_encode_pair_segments(tiny_encoder, city_sketch, product_sketch):
    pair = tiny_encoder.encode_pair(city_sketch, product_sketch)
    mask = pair.attention_mask.astype(bool)
    segments = pair.segment_ids[mask]
    assert segments[0] == 0
    assert segments[-1] == 1
    # Exactly one [CLS] at position 0.
    vocab = tiny_encoder.tokenizer.vocabulary
    assert pair.token_ids[0] == vocab.cls_id
    assert np.sum(pair.token_ids[mask] == vocab.cls_id) == 1


def test_pair_is_order_sensitive(tiny_encoder, city_sketch, product_sketch):
    ab = tiny_encoder.encode_pair(city_sketch, product_sketch)
    ba = tiny_encoder.encode_pair(product_sketch, city_sketch)
    assert not np.array_equal(ab.token_ids, ba.token_ids)


def test_batch_encodings_shapes(tiny_encoder, city_sketch, product_sketch):
    batch = batch_encodings(
        [
            tiny_encoder.encode_single(city_sketch),
            tiny_encoder.encode_single(product_sketch),
        ]
    )
    seq = tiny_encoder.config.max_seq_len
    assert batch["token_ids"].shape == (2, seq)
    assert batch["minhash"].shape == (2, seq, tiny_encoder.config.minhash_input_dim)
    assert batch["attention_mask"].shape == (2, seq)


def test_vocab_size_guard(tiny_config, tiny_tokenizer):
    import dataclasses

    from repro.core.inputs import InputEncoder

    small = dataclasses.replace(tiny_config, vocab_size=4)
    with pytest.raises(ValueError, match="vocab"):
        InputEncoder(small, tiny_tokenizer)

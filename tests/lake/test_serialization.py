"""Sketch serialization round-trips and config fingerprinting."""

import dataclasses

import numpy as np
import pytest

from repro.lake.serialization import (
    FingerprintMismatchError,
    config_fingerprint,
    minhash_from_array,
    minhash_to_array,
    pack_table_sketch,
    unpack_table_sketch,
)
from repro.lake.store import LakeStore
from repro.sketch.minhash import MinHasher
from repro.sketch.pipeline import sketch_table
from repro.table.schema import table_from_rows


def test_minhash_roundtrip_exact():
    hasher = MinHasher(num_perm=16, seed=1)
    original = hasher.sketch([f"v{i}" for i in range(40)])
    restored = minhash_from_array(minhash_to_array(original))
    assert np.array_equal(original.signature, restored.signature)
    assert restored.signature.dtype == np.uint64


def test_minhash_roundtrip_preserves_empty():
    hasher = MinHasher(num_perm=8, seed=1)
    empty = hasher.sketch(())
    assert minhash_from_array(minhash_to_array(empty)).is_empty()


def test_numeric_roundtrip_exact(city_table, tiny_sketch_config):
    """Each column's numerical sketch survives the store's pack / unpack
    exactly, down to its model-input vector."""
    original = sketch_table(city_table, tiny_sketch_config)
    restored = unpack_table_sketch(*pack_table_sketch(original))
    for left, right in zip(restored.column_sketches, original.column_sketches):
        assert left.numeric == right.numeric
        assert np.array_equal(left.numeric.to_vector(), right.numeric.to_vector())


def test_table_sketch_roundtrip(city_table, tiny_sketch_config, tiny_encoder):
    original = sketch_table(city_table, tiny_sketch_config)
    arrays, meta = pack_table_sketch(original)
    restored = unpack_table_sketch(arrays, meta)
    assert restored.table_name == original.table_name
    assert restored.description == original.description
    assert restored.config == original.config
    assert restored.column_names == original.column_names
    assert np.array_equal(restored.snapshot.signature, original.snapshot.signature)
    for left, right in zip(restored.column_sketches, original.column_sketches):
        assert left.name == right.name
        assert left.ctype == right.ctype
        assert left.n_values == right.n_values
        assert left.numeric == right.numeric
        assert np.array_equal(
            left.values_minhash.signature, right.values_minhash.signature
        )
        assert np.array_equal(
            left.words_minhash.signature, right.words_minhash.signature
        )
    # The restored sketch is the same model input, bit for bit.
    left, right = tiny_encoder.encode_tables([restored, original])
    assert np.array_equal(left.minhash, right.minhash)
    assert np.array_equal(left.numeric, right.numeric)


def test_zero_column_table_sketch_roundtrip(tiny_sketch_config):
    empty = table_from_rows("empty", [], [])
    original = sketch_table(empty, tiny_sketch_config)
    restored = unpack_table_sketch(*pack_table_sketch(original))
    assert restored.n_cols == 0
    assert restored.config == original.config


def test_fingerprint_stable_and_config_sensitive(tiny_config):
    base = config_fingerprint(tiny_config)
    assert base == config_fingerprint(tiny_config)
    changed = dataclasses.replace(tiny_config, dim=tiny_config.dim * 2)
    assert config_fingerprint(changed) != base
    resketch = dataclasses.replace(
        tiny_config,
        sketch=dataclasses.replace(tiny_config.sketch, seed=99),
    )
    assert config_fingerprint(resketch) != base


def test_fingerprint_weight_sensitive(tiny_config, tiny_model):
    before = config_fingerprint(tiny_config, model=tiny_model)
    tiny_model.parameters()[0].data += 1.0
    assert config_fingerprint(tiny_config, model=tiny_model) != before


def test_store_open_rejects_mismatched_fingerprint(tmp_path):
    LakeStore(tmp_path, "fingerprint-a")
    with pytest.raises(FingerprintMismatchError, match="mismatch"):
        LakeStore.open(tmp_path, expected_fingerprint="fingerprint-b")
    with pytest.raises(FingerprintMismatchError):
        LakeStore(tmp_path, "fingerprint-b")
    # Matching fingerprint opens fine.
    assert LakeStore.open(tmp_path, expected_fingerprint="fingerprint-a").fingerprint == "fingerprint-a"

"""Mergeable sketches: merge(A, B) must equal (or tightly bound) a cold
re-sketch of the concatenated data.

The exactness tiers under test:

- MinHash min-wise merge is *exact* — bitwise equal to sketching the
  union directly.
- The numeric accumulator is bitwise-exact while its sample and distinct
  reservoirs stay under their caps, and degrades to documented tolerances
  (equi-depth rank error ~1/RESERVOIR_CAP, KMV distinct estimation) past
  them — both regimes are pinned here by shrinking the caps.
"""

import numpy as np
import pytest

import repro.sketch.numeric as numeric_mod
from repro.sketch.minhash import MinHash, MinHasher
from repro.sketch.numeric import numerical_profile
from repro.sketch.pipeline import SketchConfig, sketch_table
from repro.table.schema import Column, ColumnType, table_from_rows


# --------------------------------------------------------------------- #
# MinHash
# --------------------------------------------------------------------- #
def test_minhash_merge_is_exact_union():
    hasher = MinHasher(num_perm=32, seed=7)
    a = {f"a{i}" for i in range(40)}
    b = {f"b{i}" for i in range(25)} | {f"a{i}" for i in range(10)}
    merged = hasher.sketch(a).merge(hasher.sketch(b))
    assert np.array_equal(merged.signature, hasher.sketch(a | b).signature)


def test_minhash_merge_with_empty_is_identity():
    hasher = MinHasher(num_perm=16, seed=1)
    sketch = hasher.sketch({"x", "y", "z"})
    merged = sketch.merge(hasher.sketch(set()))
    assert np.array_equal(merged.signature, sketch.signature)


def test_minhash_merge_width_mismatch_raises():
    small = MinHasher(num_perm=16, seed=1).sketch({"x"})
    large = MinHasher(num_perm=32, seed=1).sketch({"x"})
    with pytest.raises(ValueError, match="signature lengths"):
        small.merge(large)


# --------------------------------------------------------------------- #
# Numeric accumulator
# --------------------------------------------------------------------- #
def _split_column(values, at):
    full = Column("x", values, ctype=None)
    ctype = full.inferred_type
    return (
        Column("x", values, ctype=ctype),
        Column("x", values[:at], ctype=ctype),
        Column("x", values[at:], ctype=ctype),
    )


def test_numeric_merge_bitwise_under_caps():
    values = [f"{v:.3f}" for v in np.random.default_rng(3).normal(10, 4, 90)]
    values[7] = ""
    values[41] = "nan"
    full, head, tail = _split_column(values, 60)
    cold_sketch, cold_acc = numerical_profile(full)
    merged = numerical_profile(head)[1].merge(numerical_profile(tail)[1])
    # Counts, extrema, and both reservoirs merge bitwise; the running
    # float sums may differ in the last ulp (different addition order),
    # but the sketch never reads them while the sample stays exact.
    assert merged.n_rows == cold_acc.n_rows
    assert merged.n_nonnull == cold_acc.n_nonnull
    assert merged.n_numeric == cold_acc.n_numeric
    assert merged.n_distinct == cold_acc.n_distinct
    assert merged.sample_exact and merged.distinct_exact
    assert (merged.min_value, merged.max_value) == (
        cold_acc.min_value, cold_acc.max_value
    )
    assert np.array_equal(merged.sample, cold_acc.sample)
    assert np.array_equal(merged.distinct, cold_acc.distinct)
    assert merged.total == pytest.approx(cold_acc.total, rel=1e-12)
    # The derived sketch — what the lake actually serves — is bitwise
    # identical to the cold rebuild.
    assert merged.to_sketch().to_vector().tolist() == (
        cold_sketch.to_vector().tolist()
    )


def test_numeric_merge_is_commutative():
    values = [str(v) for v in range(50)]
    _, head, tail = _split_column(values, 20)
    _, a = numerical_profile(head)
    _, b = numerical_profile(tail)
    ab, ba = a.merge(b), b.merge(a)
    assert np.array_equal(ab.sample, ba.sample)
    assert np.array_equal(ab.distinct, ba.distinct)
    assert ab.to_sketch().to_vector().tolist() == (
        ba.to_sketch().to_vector().tolist()
    )


def test_numeric_merge_over_sample_cap_percentile_tolerance(monkeypatch):
    """Past RESERVOIR_CAP the sample is equi-depth compressed: percentiles
    carry rank error ~1/cap of the value range, exact moments survive."""
    monkeypatch.setattr(numeric_mod, "RESERVOIR_CAP", 64)
    values = [f"{v:.4f}" for v in np.random.default_rng(11).uniform(0, 100, 400)]
    full, head, tail = _split_column(values, 250)
    cold = numerical_profile(full)[0]
    merged = numerical_profile(head)[1].merge(numerical_profile(tail)[1])
    sketch = merged.to_sketch()
    # Moments and extrema merge exactly regardless of the cap.
    assert sketch.mean == pytest.approx(cold.mean, rel=1e-12)
    assert sketch.std == pytest.approx(cold.std, rel=1e-9)
    assert sketch.min_value == cold.min_value
    assert sketch.max_value == cold.max_value
    # Percentiles: a few rank-widths of slack over the documented ~1/cap.
    spread = cold.max_value - cold.min_value
    for got, want in zip(sketch.percentiles, cold.percentiles):
        assert abs(got - want) <= 5.0 * spread / 64


def test_numeric_merge_over_distinct_cap_kmv_tolerance(monkeypatch):
    """Past DISTINCT_CAP the distinct count is a KMV estimate, clamped to
    the provable [max(|A|,|B|), |A|+|B|] envelope."""
    monkeypatch.setattr(numeric_mod, "DISTINCT_CAP", 128)
    a_vals = [f"word{i}" for i in range(300)]
    b_vals = [f"word{i}" for i in range(150, 450)]
    full, _, _ = _split_column(a_vals + b_vals, 300)
    head = Column("x", a_vals, ctype=ColumnType.STRING)
    tail = Column("x", b_vals, ctype=ColumnType.STRING)
    merged = numerical_profile(head, ctype=ColumnType.STRING)[1].merge(
        numerical_profile(tail, ctype=ColumnType.STRING)[1]
    )
    true_distinct = 450
    assert not merged.distinct_exact
    assert 300 <= merged.n_distinct <= 600  # the clamp envelope
    assert merged.n_distinct == pytest.approx(true_distinct, rel=0.25)


# --------------------------------------------------------------------- #
# Column/Table sketch merge parity against a cold rebuild
# --------------------------------------------------------------------- #
def _rows(n, offset=0):
    return [
        [f"item{(i + offset) % 23}", str(i + offset), f"{(i + offset) * 0.25:.2f}"]
        for i in range(n)
    ]


def test_table_sketch_merge_matches_cold_rebuild():
    config = SketchConfig(num_perm=16, seed=1)
    header = ["label", "count", "price"]
    full = table_from_rows("t", header, _rows(48))
    head = table_from_rows("t", header, _rows(30))
    tail_table = table_from_rows("t", header, _rows(18, offset=30))
    head_sketch = sketch_table(head, config)
    for column, stored in zip(tail_table.columns, head_sketch.column_sketches):
        column.ctype = stored.ctype
    merged = head_sketch.merge(sketch_table(tail_table, config))
    cold = sketch_table(full, config)
    assert np.array_equal(merged.snapshot.signature, cold.snapshot.signature)
    for got, want in zip(merged.column_sketches, cold.column_sketches):
        assert got.name == want.name and got.ctype == want.ctype
        assert np.array_equal(
            got.values_minhash.signature, want.values_minhash.signature
        )
        assert np.array_equal(
            got.words_minhash.signature, want.words_minhash.signature
        )
        assert got.n_values == want.n_values
        assert got.numeric.to_vector().tolist() == (
            want.numeric.to_vector().tolist()
        )


def test_table_sketch_merge_rejects_mismatched_columns():
    config = SketchConfig(num_perm=16, seed=1)
    a = sketch_table(table_from_rows("t", ["x", "y"], [["1", "2"]]), config)
    b = sketch_table(table_from_rows("t", ["x", "z"], [["1", "2"]]), config)
    with pytest.raises(ValueError, match="column"):
        a.merge(b)


def test_column_sketch_merge_refuses_legacy_state(city_sketch):
    import dataclasses

    column = city_sketch.column_sketches[0]
    legacy = dataclasses.replace(column, numeric_acc=None)
    with pytest.raises(ValueError, match="mergeable sketch state"):
        legacy.merge(column)

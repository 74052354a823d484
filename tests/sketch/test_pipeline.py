"""TableSketch assembly: per-column and table-level inputs."""

import numpy as np
import pytest

from repro.sketch.minhash import MinHasher
from repro.sketch.pipeline import SketchConfig, sketch_table
from repro.table.schema import Column, ColumnType, Table


def test_sketch_table_structure(city_table, tiny_sketch_config):
    sketch = sketch_table(city_table, tiny_sketch_config)
    assert sketch.table_name == "cities"
    assert sketch.n_cols == 3
    assert sketch.column_names == ["city", "population", "founded"]


def test_column_types_inferred(city_sketch):
    kinds = {c.name: c.ctype for c in city_sketch.column_sketches}
    assert kinds["city"] == ColumnType.STRING
    assert kinds["population"] == ColumnType.INTEGER


def test_shared_hasher_consistency(city_table, tiny_sketch_config):
    """Sketches from a shared hasher equal per-table hashers (same seed)."""
    hasher = tiny_sketch_config.build_hasher()
    with_shared = sketch_table(city_table, tiny_sketch_config, hasher)
    without = sketch_table(city_table, tiny_sketch_config)
    for a, b in zip(with_shared.column_sketches, without.column_sketches):
        assert np.array_equal(a.values_minhash.signature, b.values_minhash.signature)


def test_hasher_mismatch_rejected(city_table, tiny_sketch_config):
    wrong = MinHasher(num_perm=tiny_sketch_config.num_perm * 2)
    with pytest.raises(ValueError, match="num_perm"):
        sketch_table(city_table, tiny_sketch_config, wrong)


def sketch_one_column(column: Column, config: SketchConfig, hasher=None):
    return sketch_table(Table("t", [column]), config, hasher).column_sketches[0]


def test_n_values_counts_distinct():
    column = Column("c", ["a", "a", "b", ""])
    sketch = sketch_one_column(column, SketchConfig(num_perm=8))
    assert sketch.n_values == 2


def test_overlapping_columns_have_similar_sketches(tiny_sketch_config):
    hasher = tiny_sketch_config.build_hasher()
    base = [f"v{i}" for i in range(40)]
    a = sketch_one_column(Column("a", base), tiny_sketch_config, hasher)
    b = sketch_one_column(
        Column("b", base[:30] + [f"w{i}" for i in range(10)]), tiny_sketch_config, hasher
    )
    c = sketch_one_column(
        Column("c", [f"z{i}" for i in range(40)]), tiny_sketch_config, hasher
    )
    sim_ab = a.values_minhash.jaccard(b.values_minhash)
    sim_ac = a.values_minhash.jaccard(c.values_minhash)
    assert sim_ab > sim_ac

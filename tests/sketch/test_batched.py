"""Batched sketching is bit-identical to per-table sketching — and to the
pre-batching implementation, pinned by a digest taken from it.

``sketch_corpus`` hashes each distinct string of a batch once and reads all
signatures off one permutation pass; none of that may show in the output.
Equality here is field for field and bit for bit: uint64 signatures, every
``NumericalSketch`` float, every ``NumericAccumulator`` array.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.sketch import pipeline
from repro.sketch.minhash import MinHasher
from repro.sketch.pipeline import SketchConfig, sketch_corpus, sketch_table
from repro.table.schema import ColumnType, Table, table_from_rows
from repro.utils.hashing import hash_bytes

CONFIG = SketchConfig(num_perm=32, seed=1)

#: sha256 over `_canonical` of every table of `LakeSpec(columns=400, seed=7)`
#: sketched with `CONFIG`, computed at the commit *before* batched sketching
#: (per-table path, scalar FNV loop). Equal digests ⇒ equal stored npz bytes,
#: fingerprints, embeddings and rankings, seed for seed.
PRE_BATCHING_DIGEST = (
    "16713e2f3dd002a86dd5672699b498f8b7369a107dbab200b547ebfb4b12ff5b"
)
#: The same, over `build_edge_tables()` (nulls, no rows, DATE, frozen types).
PRE_BATCHING_EDGE_DIGEST = (
    "1d649ca849cab228b55f699253dc850937d8495e31942a9fdf66fef90f849a12"
)


def _canonical(value, out: list) -> None:
    """Append an unambiguous byte form of a sketch (or any field of one)."""
    if dataclasses.is_dataclass(value):
        out.append(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            out.append(field.name.encode())
            _canonical(getattr(value, field.name), out)
    elif isinstance(value, np.ndarray):
        out.append(f"{value.dtype}{value.shape}".encode())
        out.append(value.tobytes())
    elif isinstance(value, (list, tuple)):
        out.append(f"[{len(value)}".encode())
        for item in value:
            _canonical(item, out)
    elif isinstance(value, float):
        out.append(struct.pack("<d", value))
    else:  # str, int, bool, None, ColumnType
        out.append(repr(value).encode())


def sketch_bytes(sketch) -> bytes:
    out: list = []
    _canonical(sketch, out)
    return b"\x00".join(out)


def assert_identical(batched, single) -> None:
    assert sketch_bytes(batched) == sketch_bytes(single), batched.table_name


@pytest.fixture(scope="module")
def lake_tables() -> list[Table]:
    return list(iter_tables(generate_manifest(LakeSpec(columns=400, seed=7))))


def build_edge_tables() -> list[Table]:
    dated = table_from_rows(
        "dated",
        ["day", "key"],
        [["2020-01-05", "k1"], ["2020-02-05", "k2"], ["05/03/2020", "k1"]],
    )
    assert dated.columns[0].inferred_type == ColumnType.DATE
    frozen = table_from_rows("frozen", ["code", "n"], [["7", "1"], ["x9", "2.5"]])
    # The append_rows delta case: types come from the stored column, not
    # from inference over the delta's cells.
    frozen.columns[0].ctype = ColumnType.STRING
    frozen.columns[1].ctype = ColumnType.INTEGER
    return [
        table_from_rows("nulls", ["a", "b"], [["", "x y"], ["nan", "x y"], ["-", ""]]),
        table_from_rows("no_rows", ["a", "b"], []),
        Table("no_columns", []),
        # One value in two columns (and as a word, and across tables): the
        # shared-hash lookup must hand each set its own copy.
        table_from_rows("twice", ["l", "r"], [["k1", "k1"], ["k2", "k1"], ["x y", "y"]]),
        dated,
        frozen,
        table_from_rows("unicode", ["s"], [["münchen ü"], ["日本語"], ["a" * 300]]),
    ]


@pytest.fixture(scope="module")
def edge_tables() -> list[Table]:
    return build_edge_tables()


def corpus_digest(tables) -> str:
    digest = hashlib.sha256()
    for sketch in sketch_corpus(tables, CONFIG):
        digest.update(sketch_bytes(sketch))
    return digest.hexdigest()


def test_pre_batching_digests_unchanged(lake_tables, edge_tables):
    assert corpus_digest(lake_tables) == PRE_BATCHING_DIGEST
    assert corpus_digest(edge_tables) == PRE_BATCHING_EDGE_DIGEST


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_corpus_equals_per_table_on_a_lake(lake_tables, chunk):
    hasher = CONFIG.build_hasher()
    for start in range(0, len(lake_tables), chunk):
        tables = lake_tables[start : start + chunk]
        for batched, table in zip(sketch_corpus(tables, CONFIG, hasher), tables):
            assert_identical(batched, sketch_table(table, CONFIG, hasher))


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_corpus_equals_per_table_on_edge_tables(edge_tables, chunk):
    hasher = CONFIG.build_hasher()
    for start in range(0, len(edge_tables), chunk):
        tables = edge_tables[start : start + chunk]
        sketches = sketch_corpus(tables, CONFIG, hasher)
        assert [s.table_name for s in sketches] == [t.name for t in tables]
        for batched, table in zip(sketches, tables):
            assert batched.n_cols == table.n_cols
            assert_identical(batched, sketch_table(table, CONFIG, hasher))


def test_internal_batch_boundary_is_invisible(lake_tables, monkeypatch):
    tables = lake_tables[:40]
    whole = sketch_corpus(tables, CONFIG)
    monkeypatch.setattr(pipeline, "_BATCH_CELLS", 500)  # a few tables a batch
    for split, one in zip(sketch_corpus(iter(tables), CONFIG), whole):
        assert_identical(split, one)


def test_sketches_against_the_scalar_definition(edge_tables):
    """MinHash from first principles: scalar FNV-1a per item, the seeded
    multiply-shift family, a plain min — no batching, no shared lookup."""
    hasher = MinHasher(num_perm=CONFIG.num_perm, seed=CONFIG.seed)

    def reference(items) -> list[int]:
        raws = {hash_bytes(item.encode("utf-8")) for item in items}
        if not raws:
            return [2**64 - 1] * hasher.num_perm
        return [
            min((int(a) * raw + int(b)) % 2**64 for raw in raws)
            for a, b in zip(hasher._a, hasher._b)
        ]

    for table, sketch in zip(edge_tables, sketch_corpus(edge_tables, CONFIG)):
        rows = ["\x1f".join(row) for row in table.rows()]
        assert sketch.snapshot.signature.tolist() == reference(rows)
        for column, column_sketch in zip(table.columns, sketch.column_sketches):
            values = column.non_null_values()
            assert column_sketch.ctype == column.inferred_type
            assert column_sketch.n_values == len(set(values))
            assert column_sketch.values_minhash.signature.tolist() == reference(values)
            words = [w for v in values for w in v.split()]
            if column.inferred_type != ColumnType.STRING:
                words = []
            assert column_sketch.words_minhash.signature.tolist() == reference(words)

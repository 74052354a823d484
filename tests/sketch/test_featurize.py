"""The batch featurization maps equal their one-at-a-time definitions, bit
for bit.

Each map runs once per batch: percentiles over every numeric column's
sorted values, slot features over a stacked signature matrix, numeric
inputs over a ``(n, 16)`` statistics matrix, and ``encode_tables`` over a
list of sketches. Here each one is checked against the scalar form it
replaced, which the stored-lake and inference digests were taken from.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import SketchSelection
from repro.core.inputs import InputEncoder
from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.sketch.minhash import slot_features
from repro.sketch.numeric import (
    _ASINH_SCALE,
    _PERCENTILES,
    NumericalSketch,
    numeric_inputs,
    sorted_percentiles,
)
from repro.sketch.pipeline import sketch_corpus
from repro.table.schema import Column, ColumnType, Table, table_from_rows

_U64_MAX = 2**64 - 1


def build_edge_tables() -> list[Table]:
    """``test_batched.py``'s edge tables: nulls, no rows, no columns, DATE,
    frozen types, shared values, unicode."""
    path = Path(__file__).with_name("test_batched.py")
    spec = importlib.util.spec_from_file_location("batched_edge_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_edge_tables()

finite = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
#: Zeros of both signs, the smallest subnormals, the normal boundary and
#: the magnitude bounds.
special = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
)


@st.composite
def sorted_runs(draw) -> np.ndarray:
    """A sorted finite float64 array of length 1-600, duplicate-heavy: most
    values come from a small pool."""
    pool = draw(st.lists(st.one_of(finite, special), min_size=1, max_size=8))
    values = draw(
        st.lists(
            st.one_of(st.sampled_from(pool), finite, special),
            min_size=1,
            max_size=600,
        )
    )
    return np.sort(np.asarray(values, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(sorted_runs(), min_size=1, max_size=4))
def test_sorted_percentiles_equal_np_percentile(runs):
    got = sorted_percentiles(np.concatenate(runs), [run.size for run in runs])
    assert got.shape == (len(runs), len(_PERCENTILES))
    for row, run in zip(got, runs):
        expected = np.percentile(run, _PERCENTILES)
        assert row.tobytes() == expected.tobytes(), (run, row, expected)


def test_sorted_percentiles_read_zero_signs_as_numpy_does():
    """np.percentile partitions a copy of its input, which can move -0.0
    past +0.0; the sign of a zero percentile must follow it."""
    run = np.array([-1.0] + [0.0, -0.0] * 20 + [1.0])
    run.sort()
    got = sorted_percentiles(run, [run.size])[0]
    assert got.tobytes() == np.percentile(run, _PERCENTILES).tobytes()


def reference_slot_features(signature: np.ndarray) -> np.ndarray:
    """The one-signature slot-feature formula the batch map replaced."""
    index = np.arange(signature.shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = signature + index * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return 2.0 * (x.astype(np.float64) / float(2**64)) - 1.0


signature_matrices = arrays(
    np.uint64,
    st.tuples(st.integers(1, 8), st.integers(1, 64)),
    elements=st.one_of(st.integers(0, _U64_MAX), st.just(_U64_MAX)),
)


@settings(max_examples=100, deadline=None)
@given(signature_matrices)
def test_slot_feature_matrix_equals_one_signature_formula(signatures):
    features = slot_features(signatures)
    assert features.shape == signatures.shape
    for row, signature in zip(features, signatures):
        assert row.tobytes() == reference_slot_features(signature).tobytes()


statistics = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=0.0, max_value=1.0)
numerical_sketches = st.builds(
    NumericalSketch,
    unique_fraction=fractions,
    nan_fraction=fractions,
    avg_cell_width=st.floats(min_value=0.0, max_value=1e4),
    percentiles=st.tuples(*[statistics] * len(_PERCENTILES)),
    mean=statistics,
    std=st.floats(min_value=0.0, allow_infinity=False),
    min_value=statistics,
    max_value=statistics,
)


def squash(x: float) -> float:
    return float(np.arcsinh(x) * _ASINH_SCALE)


@settings(max_examples=100, deadline=None)
@given(st.lists(numerical_sketches, max_size=12))
def test_numeric_input_rows_equal_the_scalar_squash(sketches):
    rows = numeric_inputs(sketches)
    assert rows.shape == (len(sketches), 16)
    for row, sketch in zip(rows, sketches):
        expected = [
            sketch.unique_fraction,
            sketch.nan_fraction,
            squash(sketch.avg_cell_width),
            *[squash(p) for p in sketch.percentiles],
            squash(sketch.mean),
            squash(sketch.std),
            squash(sketch.min_value),
            squash(sketch.max_value),
        ]
        assert row.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()
        assert sketch.to_vector().tobytes() == row.tobytes()


# --------------------------------------------------------------------- #
# encode_tables
# --------------------------------------------------------------------- #
def build_encoder_edge_tables() -> list[Table]:
    blank_words = table_from_rows(
        "blank_words", ["empty", "n"], [["", "1"], ["nan", "2"], ["-", "3"]]
    )
    # An all-null column infers STRING and has no words at all.
    assert blank_words.columns[0].inferred_type == ColumnType.STRING
    wide = Table(
        "wide", [Column(f"c{i}", [str(i), f"w{i} x"]) for i in range(40)]
    )
    return [
        *build_edge_tables(),
        Table("zero_columns", [], description="no columns, a description"),
        blank_words,
        wide,  # more columns than the encoder's max_columns keeps
    ]


@pytest.fixture(scope="module")
def encoder_sketches(tiny_sketch_config):
    lake = list(iter_tables(generate_manifest(LakeSpec(columns=120, seed=7))))
    return sketch_corpus(lake + build_encoder_edge_tables(), tiny_sketch_config)


def assert_same_encoding(got, want) -> None:
    for field in dataclasses.fields(want):
        left, right = getattr(got, field.name), getattr(want, field.name)
        if isinstance(right, np.ndarray):
            assert left.dtype == right.dtype, field.name
            assert left.shape == right.shape, field.name
            assert left.tobytes() == right.tobytes(), field.name
        else:
            assert left == right, field.name


@pytest.fixture(
    scope="module",
    params=[
        SketchSelection(),
        SketchSelection(use_minhash=False),
        SketchSelection(use_numeric=False, use_snapshot=False),
    ],
    ids=["all", "no_minhash", "minhash_only"],
)
def encoder(request, tiny_config, tiny_tokenizer):
    return InputEncoder(tiny_config.with_selection(request.param), tiny_tokenizer)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encode_tables_equals_one_table_at_a_time(encoder, encoder_sketches, data):
    indices = data.draw(
        st.lists(st.integers(0, len(encoder_sketches) - 1), min_size=1, max_size=10)
    )
    batch = [encoder_sketches[i] for i in indices]
    encoded = encoder.encode_tables(batch)
    assert len(encoded) == len(batch)
    for got, sketch in zip(encoded, batch):
        assert_same_encoding(got, encoder.encode_table(sketch))


def reference_rows(sketch, config) -> tuple[np.ndarray, list]:
    """The snapshot row and the ``(minhash, numeric)`` row of each encoded
    column, by the per-column formulas the batch form replaced."""
    k = config.sketch.num_perm
    snapshot = np.zeros(2 * k)
    snapshot[:k] = reference_slot_features(sketch.snapshot.signature)
    columns = []
    for column in sketch.column_sketches[: config.max_columns - 1]:
        minhash = np.zeros(2 * k)
        minhash[:k] = reference_slot_features(column.values_minhash.signature)
        if column.ctype == ColumnType.STRING and not column.words_minhash.is_empty():
            minhash[k:] = reference_slot_features(column.words_minhash.signature)
        stats = column.numeric
        numeric = [
            stats.unique_fraction,
            stats.nan_fraction,
            *map(
                squash,
                (stats.avg_cell_width, *stats.percentiles, stats.mean,
                 stats.std, stats.min_value, stats.max_value),
            ),
        ]
        columns.append((minhash, np.asarray(numeric, dtype=np.float64)))
    return snapshot, columns


def test_encode_tables_covers_the_edge_tables(tiny_encoder, encoder_sketches):
    edge = encoder_sketches[-len(build_encoder_edge_tables()) :]
    encoded = tiny_encoder.encode_tables(edge)
    for got, sketch in zip(encoded, edge):
        assert_same_encoding(got, tiny_encoder.encode_table(sketch))
        snapshot, columns = reference_rows(sketch, tiny_encoder.config)
        for position in range(got.spans[0].start if got.spans else got.length):
            assert got.minhash[position].tobytes() == snapshot.tobytes()
        for span, (minhash, numeric) in zip(got.spans, columns):
            for position in range(span.start, span.stop + 1):  # the [SEP] too
                assert got.minhash[position].tobytes() == minhash.tobytes()
                assert got.numeric[position].tobytes() == numeric.tobytes()
    by_name = dict(zip([s.table_name for s in edge], encoded))
    num_perm = tiny_encoder.config.sketch.num_perm
    zero = by_name["zero_columns"]
    assert zero.spans == [] and zero.length == zero.description_span[1] + 1
    blank = by_name["blank_words"]
    # The all-null string column: values half is the empty signature's
    # features, the words half stays zero.
    assert np.all(blank.minhash[blank.spans[0].start, num_perm:] == 0)
    wide = by_name["wide"]
    assert len(wide.spans) == tiny_encoder.config.max_columns - 1
    assert tiny_encoder.encode_tables([]) == []

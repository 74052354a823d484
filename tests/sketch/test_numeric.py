"""Numerical sketch: the paper's 16-dim statistics vector."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sketch.numeric import (
    DISTINCT_CAP,
    NUMERICAL_SKETCH_DIM,
    RESERVOIR_CAP,
    numerical_profile,
    numerical_sketch,
)
from repro.table.schema import Column, ColumnType


def test_vector_dimension():
    sketch = numerical_sketch(Column("x", ["1", "2", "3"]))
    assert sketch.to_vector().shape == (NUMERICAL_SKETCH_DIM,)


def test_integer_statistics():
    sketch = numerical_sketch(Column("x", [str(v) for v in range(1, 11)]))
    assert sketch.mean == pytest.approx(5.5)
    assert sketch.min_value == 1.0
    assert sketch.max_value == 10.0
    assert sketch.unique_fraction == 1.0
    assert sketch.nan_fraction == 0.0
    assert sketch.avg_cell_width == 0.0  # numeric columns have no cell width
    assert len(sketch.percentiles) == 9


def test_percentiles_monotone():
    values = [str(v) for v in np.random.default_rng(0).normal(0, 100, 50)]
    sketch = numerical_sketch(Column("x", values))
    assert list(sketch.percentiles) == sorted(sketch.percentiles)


def test_nan_fraction():
    sketch = numerical_sketch(Column("x", ["1", "", "nan", "4"]))
    assert sketch.nan_fraction == pytest.approx(0.5)


def test_unique_fraction_counts_duplicates():
    sketch = numerical_sketch(Column("x", ["1", "1", "2", "2"]))
    assert sketch.unique_fraction == pytest.approx(0.5)


def test_string_column_has_width_not_distribution():
    sketch = numerical_sketch(Column("s", ["ab", "abcd", ""]))
    assert sketch.avg_cell_width == pytest.approx(3.0)
    assert sketch.mean == 0.0
    assert all(p == 0.0 for p in sketch.percentiles)


def test_string_width_in_bytes():
    sketch = numerical_sketch(Column("s", ["ü"]))  # two UTF-8 bytes
    assert sketch.avg_cell_width == pytest.approx(2.0)


def test_date_column_uses_timestamps():
    early = numerical_sketch(Column("d", ["2000-01-01", "2000-06-01"]))
    late = numerical_sketch(Column("d", ["2020-01-01", "2020-06-01"]))
    assert late.mean > early.mean


def test_empty_column():
    sketch = numerical_sketch(Column("x", []))
    assert sketch.to_vector().shape == (NUMERICAL_SKETCH_DIM,)
    assert sketch.unique_fraction == 0.0


def test_vector_is_bounded_for_huge_values():
    sketch = numerical_sketch(Column("x", ["1e30", "2e30"]))
    vector = sketch.to_vector()
    assert np.all(np.isfinite(vector))
    assert np.max(np.abs(vector)) < 10.0


def test_negative_values_preserved_in_sign():
    sketch = numerical_sketch(Column("x", ["-5", "-10"]))
    vector = sketch.to_vector()
    assert sketch.mean < 0
    assert vector[-2] < 0  # squashed min stays negative


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30))
def test_vector_always_finite(values):
    column = Column("x", [f"{v:.4f}" for v in values])
    assert np.all(np.isfinite(numerical_sketch(column).to_vector()))


def test_shifted_distributions_are_distinguishable():
    # The CKAN-subset discrimination signal: scale shifts move the sketch.
    small = numerical_sketch(Column("x", [str(v) for v in range(10, 20)]))
    big = numerical_sketch(Column("x", [str(v * 1000) for v in range(10, 20)]))
    assert not np.allclose(small.to_vector(), big.to_vector(), atol=1e-3)


# --------------------------------------------------------------------- #
# The merge's bounded summaries past their caps, as properties. Each
# draw builds two cold accumulators and merges them; ``derandomize``
# fixes the draws and nothing in the sketch is random, so a passing run
# passes every time.
# --------------------------------------------------------------------- #
def _accumulator(values):
    return numerical_profile(Column("x", values))[1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    size_a=st.integers(min_value=1, max_value=3 * DISTINCT_CAP),
    size_b=st.integers(min_value=0, max_value=3 * DISTINCT_CAP),
    overlap=st.integers(min_value=0, max_value=100),
    tag=st.integers(min_value=0, max_value=10**6),
)
def test_kmv_distinct_count_of_a_merge_within_its_bound(size_a, size_b, overlap, tag):
    """Past ``DISTINCT_CAP`` the merged count is the KMV estimate: within
    four of its relative standard errors, ``1 / sqrt(k - 2)``, of the true
    union, and inside its clamp ``[max(|A|, |B|), |A| + |B|]``."""
    shared = min(size_a, size_b) * overlap // 100
    assume(size_a + size_b - shared > DISTINCT_CAP)
    common = [f"s{tag}-{i}" for i in range(shared)]
    a = common + [f"a{tag}-{i}" for i in range(size_a - shared)]
    b = common + [f"b{tag}-{i}" for i in range(size_b - shared)]
    left, right = _accumulator(a), _accumulator(b)
    merged = left.merge(right)
    union = size_a + size_b - shared
    assert merged.n_distinct == right.merge(left).n_distinct
    assert max(size_a, size_b) <= merged.n_distinct <= size_a + size_b
    if left.distinct_exact and right.distinct_exact:
        assert merged.n_distinct == union
    else:
        bound = 4.0 / np.sqrt(DISTINCT_CAP - 2)
        assert abs(merged.n_distinct - union) <= bound * union


def _rank_error(values, percentiles):
    """How far, in rank, each percentile is from the rank it names: zero
    when the value's rank interval among ``values`` covers it."""
    ordered = np.sort(values)
    worst = 0.0
    for quantile, value in zip(np.arange(10, 100, 10) / 100, percentiles):
        low = np.searchsorted(ordered, value, "left") / ordered.size
        high = np.searchsorted(ordered, value, "right") / ordered.size
        worst = max(worst, low - quantile, quantile - high)
    return worst


def _draw_values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(0.0, 100.0, n)
    if kind == "ties":
        return rng.integers(0, 30, n).astype(np.float64)
    if kind == "heavy":
        return rng.lognormal(0.0, 3.0, n)
    return np.concatenate(
        [rng.normal(-50.0, 1.0, n // 2), rng.normal(80.0, 5.0, n - n // 2)]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["normal", "ties", "heavy", "bimodal"]),
    size_a=st.integers(min_value=1, max_value=6 * RESERVOIR_CAP),
    size_b=st.integers(min_value=1, max_value=6 * RESERVOIR_CAP),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_equi_depth_percentiles_within_a_sample_step(kind, size_a, size_b, seed):
    """Past ``RESERVOIR_CAP`` each percentile stays within one sample step,
    ``1 / (RESERVOIR_CAP - 1)``, of its rank per compression the sample
    went through (plus ``1 / n`` for reading between two values): one for
    a cold sketch, two for a merge of cold sketches."""
    assume(size_a + size_b > RESERVOIR_CAP)
    a = _draw_values(kind, size_a, seed)
    b = _draw_values(kind, size_b, seed + 1)
    left = _accumulator([repr(float(v)) for v in a])
    right = _accumulator([repr(float(v)) for v in b])
    step = 1.0 / (RESERVOIR_CAP - 1)
    if not left.sample_exact:
        error = _rank_error(a, left.to_sketch().percentiles)
        assert error <= step + 1.0 / size_a
    merged = left.merge(right)
    assert not merged.sample_exact
    assert merged.sample.size == RESERVOIR_CAP
    both = np.concatenate([a, b])
    assert _rank_error(both, merged.to_sketch().percentiles) <= 2 * step + 1.0 / both.size

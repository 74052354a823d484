"""Task metrics: weighted F1, multilabel F1, R2."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.eval.metrics import multilabel_weighted_f1, r2_score, weighted_f1


def test_weighted_f1_perfect():
    labels = np.array([0, 1, 1, 0, 2])
    assert weighted_f1(labels, labels) == pytest.approx(1.0)


def test_weighted_f1_majority_guess_on_skewed_data():
    """The paper's 0.43 CKAN-subset rows are majority-class collapse: with a
    50/50 split, all-one-class predictions score weighted F1 = 1/3."""
    labels = np.array([0, 1] * 10)
    predictions = np.ones(20, dtype=int)
    assert weighted_f1(labels, predictions) == pytest.approx(1 / 3)


def test_weighted_f1_weights_by_support():
    labels = np.array([0, 0, 0, 1])
    predictions = np.array([0, 0, 0, 0])
    # class 0: F1=6/7; class 1: F1=0 with weight 1/4.
    expected = 0.75 * (6 / 7)
    assert weighted_f1(labels, predictions) == pytest.approx(expected)


def test_weighted_f1_length_check():
    with pytest.raises(ValueError):
        weighted_f1(np.array([0, 1]), np.array([0]))


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
)
# Supports 4/3/2/1 of 10: summing support/total weights gave 1.0000000000000002.
@example([2, 0, 2, 0, 1, 1, 3, 2, 0, 0], [2, 0, 2, 0, 1, 1, 3, 2, 0, 0])
def test_weighted_f1_bounds_property(labels, predictions):
    n = min(len(labels), len(predictions))
    score = weighted_f1(np.array(labels[:n]), np.array(predictions[:n]))
    assert 0.0 <= score <= 1.0


def test_multilabel_weighted_f1_perfect():
    labels = np.array([[1, 0], [0, 1], [1, 1.0]])
    probabilities = labels * 0.9 + 0.05
    assert multilabel_weighted_f1(labels, probabilities) == pytest.approx(1.0)


def test_multilabel_weighted_f1_ignores_empty_columns():
    labels = np.array([[1, 0], [1, 0.0]])
    probabilities = np.array([[0.9, 0.9], [0.9, 0.9]])
    # Column 1 has no positives: only column 0 counts; its predictions are
    # perfect but column-1 false positives don't enter column-0's score.
    assert multilabel_weighted_f1(labels, probabilities) == pytest.approx(1.0)


def test_r2_perfect_fit():
    targets = np.array([1.0, 2.0, 3.0])
    assert r2_score(targets, targets) == pytest.approx(1.0)


def test_r2_mean_predictor_is_zero():
    targets = np.array([1.0, 2.0, 3.0])
    predictions = np.full(3, 2.0)
    assert r2_score(targets, predictions) == pytest.approx(0.0)


def test_r2_negative_for_bad_fit():
    targets = np.array([1.0, 2.0, 3.0])
    predictions = np.array([10.0, -10.0, 10.0])
    assert r2_score(targets, predictions) < 0.0


def test_r2_constant_targets():
    assert r2_score(np.ones(3), np.ones(3)) == 1.0
    assert r2_score(np.ones(3), np.zeros(3)) == 0.0


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
def test_r2_never_exceeds_one(values):
    targets = np.array(values)
    noisy = targets + 0.1
    assert r2_score(targets, noisy) <= 1.0 + 1e-12

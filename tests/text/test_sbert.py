"""Frozen hashed sentence encoder: determinism and neighborhood structure."""

import numpy as np
import pytest

from repro.table.schema import Column
from repro.text.sbert import HashedSentenceEncoder, column_sentence


@pytest.fixture(scope="module")
def encoder():
    return HashedSentenceEncoder(dim=96)


def test_deterministic(encoder):
    a = encoder.encode("vienna graz linz")
    b = HashedSentenceEncoder(dim=96).encode("vienna graz linz")
    assert np.allclose(a, b)


def test_normalized(encoder):
    assert np.linalg.norm(encoder.encode("hello world")) == pytest.approx(1.0)


def test_empty_text_is_zero(encoder):
    assert np.allclose(encoder.encode(""), 0.0)


def test_shared_words_increase_similarity(encoder):
    a = encoder.encode("vienna graz linz salzburg")
    b = encoder.encode("vienna linz salzburg wels")
    c = encoder.encode("101 202 303 404")
    assert a @ b > a @ c


def test_char_ngrams_capture_morphology(encoder):
    """Same-suffix pseudo-words embed closer than unrelated words — the
    domain-recognition signal for zero-overlap unionable columns (Fig. 5)."""
    a = encoder.encode("kastelburg marovburg telinburg")
    b = encoder.encode("velorburg sanitburg")
    c = encoder.encode("pinakos weliz tarmo")
    assert a @ b > a @ c


def test_word_order_invariant_by_default(encoder):
    a = encoder.encode("alpha beta gamma")
    b = encoder.encode("gamma alpha beta")
    assert a @ b == pytest.approx(1.0)


def test_positional_mode_is_order_sensitive():
    encoder = HashedSentenceEncoder(dim=96, positional=True)
    a = encoder.encode("alpha beta gamma delta")
    b = encoder.encode("delta gamma beta alpha")
    assert a @ b < 0.999


def test_column_sentence_top_unique_values():
    column = Column("c", ["b", "a", "b", "c", "a"])
    assert column_sentence(column, top_values=2) == "b a"


def test_encode_column(encoder):
    column = Column("city", ["vienna", "graz", ""])
    vector = encoder.encode_column(column)
    assert vector.shape == (96,)
    assert np.linalg.norm(vector) == pytest.approx(1.0)

"""Slot-feature model-input form: the agreement-preserving re-randomization."""

import numpy as np
import pytest

from repro.sketch.minhash import MinHasher, exact_jaccard, slot_features


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_perm=128, seed=1)


def test_range(hasher):
    features = slot_features(hasher.sketch([f"v{i}" for i in range(50)]).signature)
    assert features.shape == (128,)
    assert np.all(features >= -1.0) and np.all(features <= 1.0)


def test_deterministic(hasher):
    signature = hasher.sketch(["a", "b", "c"]).signature
    assert np.array_equal(slot_features(signature), slot_features(signature))


def test_equal_slots_give_equal_features(hasher):
    a = hasher.sketch([f"v{i}" for i in range(40)])
    b = hasher.sketch([f"v{i}" for i in range(40)])
    assert np.array_equal(slot_features(a.signature), slot_features(b.signature))


def test_same_value_different_slot_decorrelates(hasher):
    """The map mixes the slot *index*, so identical values in different
    slots do not produce identical features."""
    sketch = hasher.sketch(["only"])
    features = slot_features(sketch.signature)
    # All slots hold minima of a single item set; values differ per hash fn,
    # but even where raw values repeat, features should not be constant.
    assert np.std(features) > 0.1


def test_dot_product_tracks_jaccard(hasher):
    """cos(slot_features(a), slot_features(b)) ≈ Jaccard(a, b) — the whole
    point of the transform (model-input geometry)."""
    base = [f"item{i}" for i in range(200)]
    for overlap in (0.2, 0.5, 0.8):
        shared = int(200 * overlap)
        other = base[:shared] + [f"other{i}" for i in range(200 - shared)]
        fa = slot_features(hasher.sketch(base).signature)
        fb = slot_features(hasher.sketch(other).signature)
        cosine = float(fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb)))
        true_j = exact_jaccard(set(base), set(other))
        assert abs(cosine - true_j) < 0.15, (overlap, cosine, true_j)


def test_disjoint_sets_near_orthogonal(hasher):
    fa = slot_features(hasher.sketch([f"a{i}" for i in range(100)]).signature)
    fb = slot_features(hasher.sketch([f"b{i}" for i in range(100)]).signature)
    cosine = float(fa @ fb / (np.linalg.norm(fa) * np.linalg.norm(fb)))
    assert abs(cosine) < 0.2

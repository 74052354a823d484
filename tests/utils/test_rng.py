"""Reproducibility and independence of RNG streams."""

import numpy as np

from repro.utils.rng import spawn_rng


def test_same_seed_same_stream():
    a = spawn_rng(7, "x").random(5)
    b = spawn_rng(7, "x").random(5)
    assert np.allclose(a, b)


def test_different_tags_differ():
    a = spawn_rng(7, "x").random(5)
    b = spawn_rng(7, "y").random(5)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = spawn_rng(7, "x").random(5)
    b = spawn_rng(8, "x").random(5)
    assert not np.allclose(a, b)

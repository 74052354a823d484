"""Seeded RNG streams.

Every stochastic component (data generators, masking, weight init, dropout)
receives an explicit ``numpy.random.Generator``. ``spawn_rng`` derives child
generators from a parent seed plus a string tag, so that independent
components get independent, reproducible streams.
"""

from __future__ import annotations

import numpy as np

from repro.utils.hashing import hash_string


def spawn_rng(seed: int, tag: str = "") -> np.random.Generator:
    """Create a generator keyed by ``(seed, tag)``.

    Different tags under the same seed give statistically independent streams;
    the same (seed, tag) always gives the same stream.
    """
    mixed = (int(seed) & 0xFFFFFFFF) ^ (hash_string(tag) & 0xFFFFFFFF)
    return np.random.default_rng(mixed)

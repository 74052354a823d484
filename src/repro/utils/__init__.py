"""Shared utilities: stable hashing, seeded RNG management, small I/O helpers.

These utilities underpin the sketching stack (which needs *stable* 64-bit
hashes so that sketches are reproducible across processes) and every
stochastic component (which needs explicit, seedable RNG streams).
"""

from repro.utils.hashing import (
    hash_bytes,
    hash_string,
    hash_strings,
)
from repro.utils.rng import spawn_rng
from repro.utils.io import ensure_dir, read_json, write_json

__all__ = [
    "hash_bytes",
    "hash_string",
    "hash_strings",
    "spawn_rng",
    "ensure_dir",
    "read_json",
    "write_json",
]

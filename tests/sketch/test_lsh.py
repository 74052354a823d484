"""LSH Forest top-k retrieval over MinHash signatures."""

import pytest

from repro.sketch.lsh import LshForest
from repro.sketch.minhash import MinHasher


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_perm=64, seed=1)


def _sets(n_groups=4, size=40):
    """Groups of highly-overlapping sets plus cross-group noise."""
    out = {}
    for g in range(n_groups):
        base = {f"g{g}_v{i}" for i in range(size)}
        out[f"g{g}_full"] = base
        out[f"g{g}_most"] = set(list(base)[: int(size * 0.8)])
        out[f"g{g}_half"] = set(list(base)[: size // 2])
    return out


def test_lsh_forest_topk(hasher):
    forest = LshForest(num_perm=64, num_trees=8)
    sets = _sets()
    sketches = {k: hasher.sketch(v) for k, v in sets.items()}
    for key, sketch in sketches.items():
        forest.insert(key, sketch)
    top = forest.query(sketches["g1_full"], k=3)
    assert top[0] == "g1_full"  # exact self-match first
    assert "g1_most" in top[:3]


def test_lsh_forest_empty():
    forest = LshForest(num_perm=16, num_trees=4)
    assert forest.query(MinHasher(num_perm=16).sketch(["x"]), k=5) == []


def test_lsh_forest_tree_divisibility():
    with pytest.raises(ValueError, match="divide"):
        LshForest(num_perm=64, num_trees=7)

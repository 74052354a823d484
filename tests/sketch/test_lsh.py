"""LSH Forest top-k retrieval over MinHash signatures."""

import numpy as np
import pytest

from repro.sketch.lsh import LshForest
from repro.sketch.minhash import MinHasher, exact_jaccard


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


def test_lsh_forest_recall_against_brute_force(hasher):
    """Recall@10 against an exact-Jaccard ranking over 12 groups of 13
    nested sets: each group is large enough that a member's true top 10 is
    all same-group, so no zero-Jaccard tie decides the truth."""
    corpus = {}
    for g in range(12):
        base = [f"g{g}v{i}" for i in range(100)]
        for m in range(13):
            corpus[f"g{g}m{m}"] = set(base[: int(100 * (0.5 + 0.035 * m))])
    sketches = {key: hasher.sketch(values) for key, values in corpus.items()}
    forest = LshForest(num_perm=64, num_trees=8)
    for key, sketch in sketches.items():
        forest.insert(key, sketch)
    recalls = []
    for key in list(corpus)[:24]:
        truth = sorted(
            (other for other in corpus if other != key),
            key=lambda other: -exact_jaccard(corpus[key], corpus[other]),
        )[:10]
        got = [other for other in forest.query(sketches[key], 11) if other != key]
        recalls.append(len(set(truth) & set(got[:10])) / 10)
    assert np.mean(recalls) > 0.8


def test_lsh_forest_empty():
    forest = LshForest(num_perm=16, num_trees=4)
    assert forest.query(MinHasher(num_perm=16).sketch(["x"]), k=5) == []


def test_lsh_forest_tree_divisibility():
    with pytest.raises(ValueError, match="divide"):
        LshForest(num_perm=64, num_trees=7)

"""Ablation micro-bench — sketch accuracy/cost trade-offs (the MinHash
width behind README "Scale-down substitutions").

Not a paper table, but the design-choice evidence behind §III-A: MinHash
signature width vs Jaccard estimation error, sketching throughput, and
LSH-Forest candidate quality vs brute force.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import emit
from repro.sketch.lsh import LshForest
from repro.sketch.minhash import MinHasher, estimate_jaccard, exact_jaccard


def _set_pairs(rng, n_pairs=40, size=200):
    pairs = []
    for _ in range(n_pairs):
        overlap = rng.uniform(0.0, 1.0)
        shared = int(size * overlap)
        base = [f"s{i}" for i in range(shared)]
        a = set(base + [f"a{i}" for i in range(size - shared)])
        b = set(base + [f"b{i}" for i in range(size - shared)])
        pairs.append((a, b))
    return pairs


@pytest.fixture(scope="module")
def experiment():
    rng = np.random.default_rng(0)
    pairs = _set_pairs(rng)
    rows = []
    for num_perm in (16, 32, 64, 128, 256):
        hasher = MinHasher(num_perm=num_perm, seed=1)
        errors = [
            abs(
                estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
                - exact_jaccard(a, b)
            )
            for a, b in pairs
        ]
        theoretical = 1.0 / np.sqrt(num_perm)  # O(1/sqrt(k)) standard error
        rows.append(
            {
                "num_perm": num_perm,
                "mean_abs_error": round(float(np.mean(errors)), 4),
                "max_abs_error": round(float(np.max(errors)), 4),
                "theory_1/sqrt(k)": round(theoretical, 4),
            }
        )

    # LSH-Forest recall@10 against brute force. Groups are large enough (13
    # members) that the true top-10 is entirely same-group — no zero-Jaccard
    # tie-breaking ambiguity.
    hasher = MinHasher(num_perm=64, seed=1)
    corpus = {}
    for g in range(12):
        base = [f"g{g}v{i}" for i in range(100)]
        for m in range(13):
            keep = int(100 * (0.5 + 0.035 * m))
            corpus[f"g{g}m{m}"] = set(base[:keep])
    sketches = {k: hasher.sketch(v) for k, v in corpus.items()}
    forest = LshForest(num_perm=64, num_trees=8)
    for key, sketch in sketches.items():
        forest.insert(key, sketch)
    recalls = []
    for key in list(corpus)[:24]:
        truth = sorted(
            (k for k in corpus if k != key),
            key=lambda other: -exact_jaccard(corpus[key], corpus[other]),
        )[:10]
        got = [k for k in forest.query(sketches[key], 11) if k != key][:10]
        recalls.append(len(set(truth) & set(got)) / 10)
    lsh_row = {"lsh_forest_recall@10_vs_bruteforce": round(float(np.mean(recalls)), 3)}
    return rows, lsh_row


def bench_minhash_accuracy_vs_width(benchmark, experiment):
    rows, lsh_row = experiment
    emit(
        "sketch_micro",
        "Micro — MinHash width vs Jaccard error; LSH-Forest recall",
        rows,
        extra=lsh_row,
    )
    print(f"  {lsh_row}")
    hasher = MinHasher(num_perm=128, seed=1)
    values = [f"value{i}" for i in range(1000)]
    benchmark.pedantic(lambda: hasher.sketch(values), rounds=10, iterations=3)

    # Error shrinks with signature width (within noise of O(1/sqrt k)).
    assert rows[0]["mean_abs_error"] > rows[-1]["mean_abs_error"]
    for row in rows:
        assert row["mean_abs_error"] < 2.5 * row["theory_1/sqrt(k)"]
    assert lsh_row["lsh_forest_recall@10_vs_bruteforce"] > 0.8

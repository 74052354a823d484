"""MinHash correctness: estimation accuracy, invariances, containment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sketch.minhash import (
    MinHasher,
    estimate_containment,
    estimate_jaccard,
    exact_containment,
    exact_jaccard,
)


@pytest.fixture(scope="module")
def hasher():
    return MinHasher(num_perm=128, seed=1)


def test_identical_sets_have_jaccard_one(hasher):
    items = {f"v{i}" for i in range(50)}
    assert estimate_jaccard(hasher.sketch(items), hasher.sketch(items)) == 1.0


def test_disjoint_sets_have_jaccard_near_zero(hasher):
    a = hasher.sketch({f"a{i}" for i in range(100)})
    b = hasher.sketch({f"b{i}" for i in range(100)})
    assert estimate_jaccard(a, b) < 0.05


def test_estimate_tracks_exact_overlap(hasher):
    a = {f"item{i}" for i in range(300)}
    b = {f"item{i}" for i in range(150, 450)}
    estimate = estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
    exact = exact_jaccard(a, b)
    assert abs(estimate - exact) < 0.12  # ~3 sigma at num_perm=128


def test_duplicates_ignored(hasher):
    with_dups = hasher.sketch(["a", "a", "b", "b", "b"])
    without = hasher.sketch(["a", "b"])
    assert np.array_equal(with_dups.signature, without.signature)


def test_order_invariance(hasher):
    forward = hasher.sketch([f"v{i}" for i in range(40)])
    backward = hasher.sketch([f"v{i}" for i in reversed(range(40))])
    assert np.array_equal(forward.signature, backward.signature)


def test_empty_sets(hasher):
    empty = hasher.sketch([])
    assert empty.is_empty()
    assert estimate_jaccard(empty, empty) == 0.0
    non_empty = hasher.sketch(["a"])
    assert estimate_jaccard(empty, non_empty) == 0.0


def test_signature_width_mismatch_raises(hasher):
    other = MinHasher(num_perm=64, seed=1)
    with pytest.raises(ValueError, match="lengths differ"):
        estimate_jaccard(hasher.sketch(["a"]), other.sketch(["a"]))


def test_different_seeds_give_different_families():
    a = MinHasher(num_perm=32, seed=1).sketch(["x", "y"])
    b = MinHasher(num_perm=32, seed=2).sketch(["x", "y"])
    assert not np.array_equal(a.signature, b.signature)


def test_normalized_in_unit_interval(hasher):
    normalized = hasher.sketch([f"v{i}" for i in range(20)]).normalized()
    assert np.all(normalized >= 0.0) and np.all(normalized <= 1.0)


def test_containment_estimation(hasher):
    query = {f"q{i}" for i in range(100)}
    superset = query | {f"extra{i}" for i in range(300)}
    estimate = estimate_containment(
        hasher.sketch(query), hasher.sketch(superset), len(query), len(superset)
    )
    assert estimate > 0.7  # true containment is 1.0


def test_containment_zero_query():
    hasher = MinHasher(num_perm=16)
    assert estimate_containment(hasher.sketch([]), hasher.sketch(["a"]), 0, 1) == 0.0


def test_exact_helpers():
    assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert exact_containment({"a", "b"}, {"b", "c"}) == 0.5
    assert exact_jaccard(set(), set()) == 0.0
    assert exact_containment(set(), {"a"}) == 0.0


def test_sketch_tokens_splits_words():
    hasher = MinHasher(num_perm=64, seed=1)
    by_tokens = hasher.sketch_tokens(["main street", "oak street"])
    by_words = hasher.sketch(["main", "street", "oak"])
    assert np.array_equal(by_tokens.signature, by_words.signature)


def test_rejects_zero_perm():
    with pytest.raises(ValueError):
        MinHasher(num_perm=0)


@settings(max_examples=25, deadline=None)
@given(
    shared=st.integers(min_value=0, max_value=60),
    only_a=st.integers(min_value=0, max_value=60),
    only_b=st.integers(min_value=0, max_value=60),
)
def test_estimate_within_tolerance_property(shared, only_a, only_b):
    """|estimate - exact| stays within ~4 standard errors for any overlap."""
    if shared + only_a == 0 or shared + only_b == 0:
        return
    hasher = MinHasher(num_perm=128, seed=3)
    a = {f"s{i}" for i in range(shared)} | {f"a{i}" for i in range(only_a)}
    b = {f"s{i}" for i in range(shared)} | {f"b{i}" for i in range(only_b)}
    estimate = estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
    exact = exact_jaccard(a, b)
    sigma = np.sqrt(max(exact * (1 - exact), 0.25 / 128) / 128)
    assert abs(estimate - exact) <= max(4 * sigma, 0.08)


# --------------------------------------------------------------------- #
# The hash family is part of every stored lake: pin it.
# --------------------------------------------------------------------- #
GOLDEN_32_SEED_1 = [
    333307821777200349, 6085187625009016741, 4059725372488361054,
    6205481422040027024, 720535985356325348, 4374618135846533735,
    5409663700654400598, 5565406634320488949, 2046633871099466449,
    7065479673768581030, 1626665771460512226, 13137941317498442893,
    2811779300240188389, 570175427107873061, 405206466278141762,
    1825923331264082604, 221526381171868580, 258428420358876580,
    3685604282255735711, 5886442790349129729, 9987917990690321671,
    8863292865443060977, 4670377114797059101, 1958663361266658387,
    139728636692980666, 5645376455296232503, 9572546966581890574,
    3220902255145931754, 6608943189789542626, 4294840050457628974,
    6500443169906027317, 73932227700805711,
]


def test_golden_signature_pins_the_hash_family():
    """FNV-1a, the seeded (a, b) draw, or the min-reduction drifting would
    silently orphan every persisted signature; this literal fails first."""
    sketch = MinHasher(num_perm=32, seed=1).sketch(["vienna", "graz", "linz"])
    assert sketch.signature.dtype == np.uint64
    assert sketch.signature.tolist() == GOLDEN_32_SEED_1


def test_signatures_of_many_sets_equal_single_sketches(hasher, monkeypatch):
    from repro.sketch import minhash
    from repro.utils.hashing import hash_strings

    sets = [["a", "b", "c"], [], ["b"], [], ["x", "y", "a", "a"], []]
    raw = hash_strings([item for items in sets for item in items])
    expected = np.stack([hasher.sketch(items).signature for items in sets])
    batched = hasher.signatures(raw, [len(items) for items in sets])
    assert np.array_equal(batched, expected)
    assert hasher.sketch([]).is_empty() and hasher.sketch(sets[1]).is_empty()
    # A batch wider than the scratch budget is hashed a few permutations at
    # a time; the result must not depend on where the budget falls.
    monkeypatch.setattr(minhash, "_MATRIX_ELEMENTS", 3 * raw.size)
    assert np.array_equal(
        hasher.signatures(raw, [len(items) for items in sets]), expected
    )


def test_signatures_rejects_sizes_that_do_not_cover_the_hashes(hasher):
    with pytest.raises(ValueError, match="sizes sum"):
        hasher.signatures(np.zeros(3, dtype=np.uint64), [1, 1])

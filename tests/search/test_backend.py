"""The index layer: the persisted index spec, `query_many` ≡ `query`,
remove → re-add round trips, in-place replacement, restore round trips and
the shard hash — under both metrics a spec can name."""

import numpy as np
import pytest

from repro.search.backend import IndexSpec, make_index, stable_shard
from repro.search.index import KnnIndex

DIM = 16
METRICS = ("cosine", "euclidean")


@pytest.fixture(scope="module")
def corpus():
    """A seeded 500-vector corpus with mild cluster structure."""
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=4.0, size=(10, DIM))
    vectors = np.stack(
        [centers[i % 10] + rng.normal(scale=0.8, size=DIM) for i in range(500)]
    )
    queries = vectors[::37] + rng.normal(scale=0.1, size=(len(vectors[::37]), DIM))
    return vectors, queries


def _spec(metric: str = "cosine") -> IndexSpec:
    return IndexSpec(params={"metric": metric})


def _build(vectors: np.ndarray, metric: str = "cosine") -> KnnIndex:
    index = make_index(_spec(metric), DIM)
    index.add_many([(i, vector) for i, vector in enumerate(vectors)])
    return index


def _keys(hits):
    return [key for key, _ in hits]


# --------------------------------------------------------------------- #
# The index spec
# --------------------------------------------------------------------- #
def test_spec_dict_roundtrip():
    """`to_dict` is what manifests store and fingerprints hash: literal,
    sorted, and read back as an equal spec."""
    spec = IndexSpec(params={"metric": "euclidean"})
    assert spec.to_dict() == {"backend": "exact", "params": {"metric": "euclidean"}}
    assert IndexSpec.from_dict(spec.to_dict()) == spec
    assert IndexSpec().to_dict() == {"backend": "exact", "params": {}}
    assert IndexSpec().canonical() == "exact"
    assert spec.canonical() == "exact:metric=euclidean"


def test_spec_is_hashable():
    cosine = {"metric": "cosine"}
    specs = {IndexSpec(params=cosine), IndexSpec(params=dict(cosine)), IndexSpec()}
    assert len(specs) == 2


def test_make_index_builds_the_exact_index():
    index = make_index(IndexSpec(), DIM)
    assert isinstance(index, KnnIndex)
    assert index.metric == "cosine"
    assert make_index(None, DIM).metric == "cosine"
    euclidean = make_index(IndexSpec(params={"metric": "euclidean"}), DIM)
    assert euclidean.metric == "euclidean"


# --------------------------------------------------------------------- #
# query_many ≡ query
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRICS)
def test_query_many_matches_per_query_calls(metric, corpus):
    vectors, queries = corpus
    index = _build(vectors, metric)
    batched = index.query_many(queries, 10)
    assert len(batched) == len(queries)
    for row, hits in zip(queries, batched):
        single = index.query(row, 10)
        assert _keys(hits) == _keys(single)
        # Distances agree to float tolerance (the batched matmul may round
        # differently in the last ulp).
        for (_, batch_d), (_, single_d) in zip(hits, single):
            assert batch_d == pytest.approx(single_d, abs=1e-9)


@pytest.mark.parametrize("metric", METRICS)
def test_query_many_empty_and_oversized(metric, corpus):
    vectors, _ = corpus
    empty = make_index(_spec(metric), DIM)
    assert empty.query_many(vectors[:3], 5) == [[], [], []]
    small = make_index(_spec(metric), DIM)
    small.add_many([(i, vector) for i, vector in enumerate(vectors[:4])])
    for hits in small.query_many(vectors[:2], 10):
        assert len(hits) == 4  # k capped at corpus size


# --------------------------------------------------------------------- #
# remove → re-add round trips
# --------------------------------------------------------------------- #
def test_remove_then_readd_round_trip(corpus):
    vectors, queries = corpus
    index = _build(vectors)
    doomed = list(range(0, 200))
    assert index.remove_many(doomed) == len(doomed)
    assert len(index) == len(vectors) - len(doomed)
    assert 0 not in index and 250 in index
    for hits in index.query_many(queries, 10):
        assert all(key >= 200 for key in _keys(hits))

    index.add_many([(i, vectors[i]) for i in doomed])
    assert len(index) == len(vectors)
    assert sorted(index.keys()) == sorted(range(len(vectors)))
    # Re-added vectors are retrievable as their own nearest neighbour.
    for probe in (0, 57, 199):
        key, distance = index.query(vectors[probe], 1)[0]
        assert key == probe
        assert distance == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("metric", METRICS)
def test_remove_many_missing_keys_is_noop(metric, corpus):
    vectors, _ = corpus
    index = _build(vectors[:20], metric)
    keys_before = index.keys()
    assert index.remove_many(["ghost", 10_000]) == 0
    assert index.keys() == keys_before


# --------------------------------------------------------------------- #
# In-place replacement
# --------------------------------------------------------------------- #
def test_replace_many_keeps_every_other_row_in_place(corpus):
    """Replacing rows puts the new ones where the first old one stood and
    leaves every other row where it was, so the index equals a fresh
    restore in that order, bit for bit; with none to replace, it appends."""
    vectors, queries = corpus
    index = _build(vectors[:30])
    new = [(key, vectors[100 + key]) for key in (5, 6, 7, 32)]
    assert index.replace_many([6, 5, 7, 9, 999], new) == 4
    assert index.replace_many([], [(40, vectors[140])]) == 0
    rows = {key: vector for key, vector in enumerate(vectors[:30]) if key != 9}
    rows.update(new)
    rows[40] = vectors[140]
    order = index.keys()
    assert order == [*range(5), 5, 6, 7, 32, 8, *range(10, 30), 40]
    rebuilt = KnnIndex.restore(
        DIM, {}, order, {"vectors": np.array([rows[key] for key in order])}, {}
    )
    assert (
        index.state_arrays()[0]["vectors"].tobytes()
        == rebuilt.state_arrays()[0]["vectors"].tobytes()
    )
    assert index.query_many(queries, 8) == rebuilt.query_many(queries, 8)


# --------------------------------------------------------------------- #
# Restore round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRICS)
def test_state_arrays_restore_round_trip(metric, corpus):
    vectors, queries = corpus
    index = _build(vectors, metric)
    arrays, meta = index.state_arrays()
    restored = KnnIndex.restore(
        DIM, _spec(metric).params, index.state_keys(), arrays, meta
    )
    assert restored.metric == metric
    assert len(restored) == len(index)
    assert restored.keys() == index.keys()
    for original, round_tripped in zip(
        index.query_many(queries, 10), restored.query_many(queries, 10)
    ):
        assert _keys(original) == _keys(round_tripped)


@pytest.mark.parametrize("metric", METRICS)
def test_restore_rejects_key_count_mismatch(metric, corpus):
    vectors, _ = corpus
    index = _build(vectors[:10], metric)
    arrays, meta = index.state_arrays()
    with pytest.raises(ValueError, match="keys"):
        KnnIndex.restore(
            DIM, _spec(metric).params, index.state_keys()[:-1], arrays, meta
        )


def _read_only(block: np.ndarray) -> np.ndarray:
    block.flags.writeable = False
    return block


#: name -> (the block ``restore`` is given, made from a C-contiguous
#: float64 copy of the rows; whether the index keeps it as its buffer).
RESTORE_BLOCKS = {
    "owned": (lambda rows: rows, True),
    "float32": (lambda rows: rows.astype(np.float32), False),
    "fortran": (np.asfortranarray, False),
    "read-only": (_read_only, False),
    "strided": (lambda rows: np.repeat(rows, 2, axis=0)[::2], False),
}


@pytest.mark.parametrize("block", sorted(RESTORE_BLOCKS))
def test_restore_adopts_an_owned_block_and_copies_any_other(block, corpus):
    """A writable C-contiguous float64 block becomes the row buffer as it
    is; any other block is copied once, so a later in-place write leaves
    the caller's array untouched. Either way the index answers as one
    restored from a private copy."""
    vectors, queries = corpus
    make, adopted = RESTORE_BLOCKS[block]
    given = make(np.array(vectors[:40], dtype=np.float64))
    before = given.copy()
    keys = list(range(40))
    index = KnnIndex.restore(DIM, {}, keys, {"vectors": given}, {})
    reference = KnnIndex.restore(
        DIM, {}, keys, {"vectors": np.array(before, dtype=np.float64)}, {}
    )
    assert np.shares_memory(index._data, given) == adopted
    assert index.query_many(queries, 8) == reference.query_many(queries, 8)

    assert index.replace_many([3], [(3, vectors[300])]) == 1
    reference.replace_many([3], [(3, vectors[300])])
    assert index.query_many(queries, 8) == reference.query_many(queries, 8)
    if adopted:
        assert np.array_equal(given[3], vectors[300])
    else:
        assert given.tobytes() == before.tobytes()


def test_subs_is_the_index_itself(corpus):
    """The one-element ``subs`` view the benchmark replay reads: its rows
    are the index's rows and its answers the index's answers."""
    vectors, queries = corpus
    index = _build(vectors[:50])
    assert index.subs == (index,)
    assert sum(len(sub) for sub in index.subs) == len(index)
    assert index.subs[0].query_many(queries, 5) == index.query_many(queries, 5)


# --------------------------------------------------------------------- #
# The shard hash
# --------------------------------------------------------------------- #
def test_stable_shard_is_deterministic_and_spread():
    names = [f"table{i:04d}" for i in range(200)]
    first = [stable_shard(name, 8) for name in names]
    assert first == [stable_shard(name, 8) for name in names]
    assert all(0 <= shard < 8 for shard in first)
    # Every shard of 8 gets a healthy share of 200 uniform-ish keys.
    counts = [first.count(shard) for shard in range(8)]
    assert min(counts) > 0
    assert {stable_shard(name, 1) for name in names} == {0}
    with pytest.raises(ValueError, match="n_shards"):
        stable_shard("x", 0)

"""The `VectorIndex` protocol layer: the persisted index spec, `query_many`
≡ `query`, remove → re-add round trips, state persistence round trips, and
the sharded multi-index merge path — under both metrics a spec can name."""

import numpy as np
import pytest

from repro.search.backend import (
    IndexSpec,
    ShardedIndex,
    VectorIndex,
    make_index,
    make_sharded_index,
    restore_index,
    stable_shard,
)
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


def _build(vectors: np.ndarray, metric: str = "cosine") -> VectorIndex:
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


def test_factories_produce_protocol_instances():
    index = make_index(IndexSpec(), DIM)
    assert isinstance(index, KnnIndex) and isinstance(index, VectorIndex)
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
# Persistence round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRICS)
def test_state_arrays_restore_round_trip(metric, corpus):
    vectors, queries = corpus
    index = _build(vectors, metric)
    arrays, meta = index.state_arrays()
    restored = restore_index(_spec(metric), DIM, index.state_keys(), arrays, meta)
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
        restore_index(_spec(metric), DIM, index.state_keys()[:-1], arrays, meta)


# --------------------------------------------------------------------- #
# Sharded multi-index merge path
# --------------------------------------------------------------------- #
def _build_sharded(
    n_shards: int, vectors: np.ndarray, metric: str = "cosine"
) -> ShardedIndex:
    index = make_sharded_index(
        _spec(metric), DIM, n_shards, router=lambda key: key % n_shards
    )
    index.add_many([(i, vector) for i, vector in enumerate(vectors)])
    return index


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n_shards", [1, 2, 5])
def test_sharded_merge_matches_flat_exact(n_shards, metric, corpus):
    """The k-way merged top-k over N shards is the flat index's top-k —
    same keys, same distances, same order."""
    vectors, queries = corpus
    flat = _build(vectors, metric)
    sharded = _build_sharded(n_shards, vectors, metric)
    assert sharded.metric == metric
    assert len(sharded) == len(flat)
    for flat_hits, merged_hits in zip(
        flat.query_many(queries, 12), sharded.query_many(queries, 12)
    ):
        assert _keys(flat_hits) == _keys(merged_hits)
        assert [d for _, d in flat_hits] == [d for _, d in merged_hits]
    one = flat.query(queries[0], 7)
    assert sharded.query(queries[0], 7) == one


def test_sharded_routing_membership_and_removal(corpus):
    vectors, queries = corpus
    sharded = _build_sharded(4, vectors[:100])
    # Keys live in exactly their routed shard.
    assert 17 in sharded and 17 in sharded.subs[17 % 4]
    assert all(17 not in sharded.subs[s] for s in range(4) if s != 17 % 4)
    sharded.mark_clean()
    assert sharded.remove_many([17, 21, 999]) == 2
    assert 17 not in sharded and 21 not in sharded
    # Only the touched shards are dirty — the incremental-save contract.
    assert sharded.dirty_shards() == {17 % 4, 21 % 4}
    for hits in sharded.query_many(queries, 50):
        assert 17 not in _keys(hits) and 21 not in _keys(hits)


def test_sharded_reset_shard_and_state_guard(corpus):
    vectors, _ = corpus
    sharded = _build_sharded(3, vectors[:30])
    sharded.mark_clean()
    sharded.reset_shard(1)
    # A reset shard no longer matches whatever was persisted for it, even
    # if nothing is re-added: it must ride the next save.
    assert sharded.dirty_shards() == {1}
    assert len(sharded) == 30 - sum(1 for i in range(30) if i % 3 == 1)
    assert all(key % 3 != 1 for key in sharded.keys())
    # Monolithic state export is a contract violation, loudly.
    with pytest.raises(NotImplementedError, match="per shard"):
        sharded.state_arrays()
    with pytest.raises(NotImplementedError, match="per shard"):
        sharded.state_keys()


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

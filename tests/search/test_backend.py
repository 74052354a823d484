"""The `VectorIndex` protocol layer: spec parsing, the backend registry,
exact/HNSW parity (`query_many` ≡ `query`), HNSW recall floor, remove →
re-add round trips, state persistence round trips, and the sharded
multi-index merge path."""

import numpy as np
import pytest

from repro.search.backend import (
    IndexSpec,
    ShardedIndex,
    VectorIndex,
    available_backends,
    make_index,
    make_sharded_index,
    normalize_index_spec,
    restore_index,
    stable_shard,
    validate_index_spec,
)
from repro.search.hnsw import HnswIndex
from repro.search.index import KnnIndex

DIM = 16

#: The two built-in backends, as CLI-style spec strings. HNSW gets a wider
#: beam than its defaults so parity/recall checks are not flaky.
SPECS = ["exact", "hnsw:m=12,ef_construction=64,ef_search=64"]


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


def _build(spec: str, vectors: np.ndarray) -> VectorIndex:
    index = make_index(spec, DIM)
    index.add_many([(i, vector) for i, vector in enumerate(vectors)])
    return index


def _keys(hits):
    return [key for key, _ in hits]


# --------------------------------------------------------------------- #
# Spec parsing + registry
# --------------------------------------------------------------------- #
def test_spec_parse_roundtrip():
    spec = IndexSpec.parse("hnsw:m=16,ef_search=48")
    assert spec.backend == "hnsw"
    assert spec.params == {"m": 16, "ef_search": 48}
    assert IndexSpec.parse(spec.canonical()) == spec
    assert IndexSpec.from_dict(spec.to_dict()) == spec


def test_spec_parse_rejects_garbage():
    with pytest.raises(ValueError, match="key=value"):
        IndexSpec.parse("hnsw:m16")
    with pytest.raises(ValueError, match="empty"):
        IndexSpec.parse("   ")


def test_normalize_defaults_do_not_override_explicit():
    spec = normalize_index_spec("exact:metric=euclidean", metric="cosine")
    assert spec.params["metric"] == "euclidean"
    assert normalize_index_spec(None, metric="cosine").params["metric"] == "cosine"


def test_registry_knows_builtins_and_rejects_unknown():
    assert {"exact", "hnsw"} <= set(available_backends())
    with pytest.raises(ValueError, match="unknown index backend"):
        make_index("faiss", DIM)


def test_spec_params_validated_with_clean_errors():
    """Typo'd hyperparameters fail as ValueError at validation time, never
    as a TypeError after expensive setup work."""
    with pytest.raises(ValueError, match="no parameter 'ef'"):
        validate_index_spec("hnsw:ef=64")
    with pytest.raises(ValueError, match="must be int"):
        validate_index_spec("hnsw:m=abc")
    with pytest.raises(ValueError, match="no parameter"):
        make_index("exact:m=4", DIM)
    assert validate_index_spec("hnsw:m=12,compact_ratio=0.3").params["m"] == 12


def test_spec_is_hashable():
    specs = {IndexSpec.parse("hnsw:m=12"), IndexSpec.parse("hnsw:m=12"), IndexSpec()}
    assert len(specs) == 2


def test_custom_backend_without_metric_param_plugs_in():
    """Caller-side defaults (TableSearcher's metric knob) must be dropped
    for backends that don't declare them, not forced through
    validation."""
    from repro.search.backend import register_backend, _REGISTRY
    from repro.search.tables import TableSearcher

    register_backend(
        "flat-test", lambda dim, **p: KnnIndex(dim), KnnIndex.restore, params={}
    )
    try:
        searcher = TableSearcher(DIM, backend="flat-test")
        assert searcher.backend_spec.params == {}
        searcher.add_table("t", ["c"], np.ones((1, DIM)))
        assert searcher.search_by_column(np.ones(DIM), 1) == ["t"]
    finally:
        del _REGISTRY["flat-test"]


def test_factories_produce_protocol_instances():
    assert isinstance(make_index("exact", DIM), KnnIndex)
    hnsw = make_index("hnsw", DIM)
    assert isinstance(hnsw, HnswIndex)
    # Parity default: both backends measure cosine unless overridden.
    assert hnsw.metric == "cosine"
    assert make_index("exact", DIM).metric == "cosine"
    assert isinstance(hnsw, VectorIndex)


# --------------------------------------------------------------------- #
# query_many ≡ query
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", SPECS)
def test_query_many_matches_per_query_calls(spec, corpus):
    vectors, queries = corpus
    index = _build(spec, vectors)
    batched = index.query_many(queries, 10)
    assert len(batched) == len(queries)
    for row, hits in zip(queries, batched):
        single = index.query(row, 10)
        assert _keys(hits) == _keys(single)
        # Distances agree to float tolerance (the batched matmul may round
        # differently in the last ulp).
        for (_, batch_d), (_, single_d) in zip(hits, single):
            assert batch_d == pytest.approx(single_d, abs=1e-9)


@pytest.mark.parametrize("spec", SPECS)
def test_query_many_empty_and_oversized(spec, corpus):
    vectors, _ = corpus
    empty = make_index(spec, DIM)
    assert empty.query_many(vectors[:3], 5) == [[], [], []]
    small = make_index(spec, DIM)
    small.add_many([(i, vector) for i, vector in enumerate(vectors[:4])])
    for hits in small.query_many(vectors[:2], 10):
        assert len(hits) == 4  # k capped at corpus size


# --------------------------------------------------------------------- #
# HNSW recall floor vs exact ground truth
# --------------------------------------------------------------------- #
def test_hnsw_recall_at_10_floor(corpus):
    vectors, queries = corpus
    exact = _build("exact", vectors)
    hnsw = _build(SPECS[1], vectors)
    recalls = []
    for truth_hits, hnsw_hits in zip(
        exact.query_many(queries, 10), hnsw.query_many(queries, 10)
    ):
        # Tie-robust recall: an approximate hit counts when its distance is
        # within the exact 10th-best distance.
        radius = truth_hits[-1][1] + 1e-9
        recalls.append(sum(d <= radius for _, d in hnsw_hits) / 10)
    assert float(np.mean(recalls)) >= 0.9


# --------------------------------------------------------------------- #
# remove → re-add round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", SPECS)
def test_remove_then_readd_round_trip(spec, corpus):
    vectors, queries = corpus
    index = _build(spec, vectors)
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


@pytest.mark.parametrize("spec", SPECS)
def test_remove_many_missing_keys_is_noop(spec, corpus):
    vectors, _ = corpus
    index = _build(spec, vectors[:20])
    keys_before = index.keys()
    assert index.remove_many(["ghost", 10_000]) == 0
    assert index.keys() == keys_before


def test_hnsw_compaction_reclaims_tombstones(corpus):
    vectors, queries = corpus
    index = make_index("hnsw:compact_min=16,compact_ratio=0.25", DIM)
    index.add_many([(i, vector) for i, vector in enumerate(vectors[:80])])
    index.remove_many(range(40))  # 50% dead >> ratio -> compaction
    assert index._deleted == set()
    assert len(index._keys) == 40  # graph holds live nodes only
    assert sorted(index.keys()) == list(range(40, 80))
    hits = index.query(vectors[63], 1)
    assert hits[0][0] == 63


# --------------------------------------------------------------------- #
# Persistence round trips
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", SPECS)
def test_state_arrays_restore_round_trip(spec, corpus):
    vectors, queries = corpus
    index = _build(spec, vectors)
    arrays, meta = index.state_arrays()
    restored = restore_index(
        IndexSpec.parse(spec), DIM, index.state_keys(), arrays, meta
    )
    assert len(restored) == len(index)
    assert restored.keys() == index.keys()
    for original, round_tripped in zip(
        index.query_many(queries, 10), restored.query_many(queries, 10)
    ):
        assert _keys(original) == _keys(round_tripped)


def test_hnsw_persists_tombstones_without_compacting(corpus):
    """A save below the compaction threshold must neither rebuild the
    graph nor resurrect deleted keys after a restore."""
    vectors, queries = corpus
    index = _build(SPECS[1], vectors[:100])
    index.remove_many(range(5))  # below compact_min -> tombstones stay
    assert len(index._deleted) == 5
    arrays, meta = index.state_arrays()
    assert len(index._deleted) == 5, "state export must not compact"
    restored = restore_index(
        IndexSpec.parse(SPECS[1]), DIM, index.state_keys(), arrays, meta
    )
    assert len(restored) == 95
    assert restored.keys() == index.keys()
    assert 3 not in restored and 50 in restored
    for hits in restored.query_many(queries, 10):
        assert all(key >= 5 for key in _keys(hits))


def test_hnsw_restore_preserves_rng_stream(corpus):
    """Inserting after a restore draws the same level sequence a
    never-persisted index would — incremental adds stay deterministic."""
    vectors, _ = corpus
    live = _build(SPECS[1], vectors[:100])
    arrays, meta = live.state_arrays()
    restored = restore_index(
        IndexSpec.parse(SPECS[1]), DIM, live.state_keys(), arrays, meta
    )
    for i in range(100, 120):
        live.add(i, vectors[i])
        restored.add(i, vectors[i])
    query = vectors[5]
    assert live.query(query, 10) == restored.query(query, 10)


@pytest.mark.parametrize("spec", SPECS)
def test_restore_rejects_key_count_mismatch(spec, corpus):
    vectors, _ = corpus
    index = _build(spec, vectors[:10])
    arrays, meta = index.state_arrays()
    with pytest.raises(ValueError, match="keys"):
        restore_index(
            IndexSpec.parse(spec), DIM, index.state_keys()[:-1], arrays, meta
        )


# --------------------------------------------------------------------- #
# Sharded multi-index merge path
# --------------------------------------------------------------------- #
def _build_sharded(n_shards: int, vectors: np.ndarray) -> ShardedIndex:
    index = make_sharded_index(
        "exact", DIM, n_shards, router=lambda key: key % n_shards
    )
    index.add_many([(i, vector) for i, vector in enumerate(vectors)])
    return index


@pytest.mark.parametrize("n_shards", [1, 2, 5])
def test_sharded_merge_matches_flat_exact(n_shards, corpus):
    """The k-way merged top-k over N shards is the flat index's top-k —
    same keys, same distances, same order."""
    vectors, queries = corpus
    flat = _build("exact", vectors)
    sharded = _build_sharded(n_shards, vectors)
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

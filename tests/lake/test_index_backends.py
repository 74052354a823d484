"""The vector index through the lake: persisted-index warm loads (zero
insertions), incremental persistence, stale-artifact detection, and the
index spec a lake records and fingerprints."""

import numpy as np
import pytest

from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import UnsupportedIndexBackendError, config_fingerprint
from repro.lake.store import LakeStore
from repro.search.backend import IndexSpec, ShardedIndex
from repro.search.index import KnnIndex


def _build(lake_embedder, lake_tables, tmp_path):
    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(lake_tables)
    return catalog


def _assert_backend_class(catalog, cls):
    """Every shard of the live index is a `cls`."""
    index = catalog.searcher.index
    assert isinstance(index, ShardedIndex)
    assert index.n_shards == catalog.n_shards
    assert all(isinstance(sub, cls) for sub in index.subs)


# --------------------------------------------------------------------- #
# Persisted index
# --------------------------------------------------------------------- #
def test_warm_load_restores_persisted_index_zero_insertions(
    lake_embedder, lake_tables, tmp_path
):
    cold = _build(lake_embedder, lake_tables, tmp_path)
    assert cold.searcher.insertions == sum(
        t.n_cols for t in lake_tables.values()
    )

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.embed_calls == 0
    assert warm.searcher.insertions == 0, "warm open must deserialize the index"
    assert warm.index_spec == cold.index_spec
    assert len(warm.searcher.index) == len(cold.searcher.index)
    assert warm.searcher.index.keys() == cold.searcher.index.keys()

    # Warm answers match the cold build exactly.
    for name in list(lake_tables)[:4]:
        vectors = cold.query_vectors(name)
        assert cold.searcher.search_tables(
            vectors, 3, exclude_table=name
        ) == warm.searcher.search_tables(vectors, 3, exclude_table=name)


def test_mutations_update_persisted_index(lake_embedder, lake_tables, tmp_path):
    catalog = _build(lake_embedder, lake_tables, tmp_path)
    extra = next(iter(lake_tables.values()))
    catalog.add_table(extra.with_columns(extra.columns, name="fresh"))
    catalog.remove_table("g0t0")

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions == 0
    assert warm.searcher.has_table("fresh")
    assert not warm.searcher.has_table("g0t0")
    assert sorted(warm.searcher.table_names()) == sorted(
        catalog.searcher.table_names()
    )
    vectors = warm.query_vectors("fresh")
    assert warm.searcher.search_tables(vectors, 3, exclude_table="fresh")


def test_missing_persisted_index_falls_back_and_heals(
    lake_embedder, lake_tables, tmp_path
):
    """Pre-upgrade stores (no index artifact) rebuild from records, then
    persist the result so the next open is warm."""
    _build(lake_embedder, lake_tables, tmp_path)
    store = LakeStore.open(tmp_path)
    assert store.drop_index()

    rebuilt = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert rebuilt.searcher.insertions > 0  # fallback rebuilt the index

    healed = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert healed.searcher.insertions == 0  # ... and re-persisted it


def test_stale_persisted_index_detected_and_rebuilt(
    lake_embedder, lake_tables, tmp_path
):
    """A crash between the table flush and the index flush leaves the two
    out of step; warm open must detect the drift and rebuild instead of
    serving ghost columns."""
    catalog = _build(lake_embedder, lake_tables, tmp_path)
    # Simulate the torn write: mutate the table manifest *without* the
    # catalog's matching index re-save.
    LakeStore.open(tmp_path).remove_table("g0t0")

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions > 0, "stale index must not be adopted"
    assert not warm.searcher.has_table("g0t0")
    for name in list(lake_tables)[1:4]:
        hits = warm.searcher.search_tables(
            warm.query_vectors(name), 5, exclude_table=name
        )
        assert "g0t0" not in hits

    # The rebuild re-persisted a consistent index: next open is warm again.
    healed = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert healed.searcher.insertions == 0


def test_same_schema_vector_drift_detected(lake_embedder, lake_tables, tmp_path):
    """A crash inside update_table can leave the manifest with re-embedded
    vectors while index.npz still holds the old ones — identical
    (table, column) keys, different data. The mutation-counter handshake
    must refuse the stale index."""
    catalog = _build(lake_embedder, lake_tables, tmp_path)
    record = catalog.records["g1t1"]
    drifted = LakeStore.open(tmp_path)
    record.column_vectors = record.column_vectors + 0.25
    drifted.save_table(record)  # table flush only — no index re-save

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions > 0, "counter drift must force a rebuild"
    assert np.array_equal(
        warm.query_vectors("g1t1"), record.column_vectors
    ), "the rebuilt index serves the manifest's (newer) vectors"


def test_interrupted_first_ingest_records_backend(lake_embedder, tmp_path):
    """The index spec is written when the catalog attaches — before any
    embedding — so a first ingest killed mid-way still reopens under the
    spec (and so the fingerprint) it was started with."""
    store = LakeStore(tmp_path, "fp")
    LakeCatalog(lake_embedder, store=store)
    # No table was ever added (simulated Ctrl-C), yet the spec is durable.
    assert LakeStore.peek_index_spec(tmp_path) == IndexSpec()
    reopened = LakeCatalog(lake_embedder, store=LakeStore.open(tmp_path))
    assert reopened.index_spec == IndexSpec()


def test_persisted_index_state_version_guard(lake_embedder, lake_tables, tmp_path):
    _build(lake_embedder, lake_tables, tmp_path)
    store = LakeStore.open(tmp_path)
    for shard in store.shards:
        shard._manifest["index"]["state_version"] = -1
    # Loads degrade per shard: nothing restored, fresh empty sub-indexes.
    index = store.load_index(lake_embedder.dim)
    assert index.restored_shards == set() and len(index) == 0


# --------------------------------------------------------------------- #
# The recorded spec and the fingerprint
# --------------------------------------------------------------------- #
def test_fingerprint_hashes_the_recorded_spec(lake_embedder):
    config = lake_embedder.model.config
    base = config_fingerprint(config, model=lake_embedder.model)
    assert base == config_fingerprint(
        config, model=lake_embedder.model, index_spec=IndexSpec()
    ), "None is the default spec every CLI lake records"


@pytest.mark.parametrize(
    "n_shards, params, sbert_dim, expected",
    [
        (1, None, None, "e5f4fd19441f8aa9"),
        (2, None, None, "3bf8643446784d5f"),
        (4, None, None, "69efb6aaefe8f23c"),
        (1, None, 32, "6884d75e3068bf17"),
        (1, {"metric": "cosine"}, None, "f683c21b27ad5fc9"),
        (4, {"metric": "euclidean"}, None, "daf977b3b4d54e1d"),
    ],
    ids=["1", "2", "4", "1-sbert", "1-cosine", "4-euclidean"],
)
def test_recorded_spec_keeps_its_fingerprint(
    tiny_config, tiny_model, n_shards, params, sbert_dim, expected
):
    """Pinned digests of the test model under each recorded configuration.
    A lake reopens only under the fingerprint it was written with, so these
    values may never drift: a change here orphans every existing lake."""
    from repro.text.sbert import HashedSentenceEncoder

    spec = None if params is None else IndexSpec(params=params)
    sbert = None if sbert_dim is None else HashedSentenceEncoder(dim=sbert_dim)
    assert config_fingerprint(
        tiny_config, sbert=sbert, model=tiny_model, index_spec=spec,
        n_shards=n_shards,
    ) == expected


_READERS = {
    "open": lambda root: LakeStore.open(root),
    "construct": lambda root: LakeStore(root, "fp"),
    "peek_n_shards": LakeStore.peek_n_shards,
    "peek_index_spec": LakeStore.peek_index_spec,
    "needs_conversion": LakeStore.needs_conversion,
}


@pytest.mark.parametrize("reader", list(_READERS))
def test_store_readers_refuse_a_non_exact_index(tmp_path, reader):
    """Every reader of the root manifest refuses a lake recorded under any
    index but ``exact``, names it, and leaves every byte where it was."""
    for backend in ("hnsw", "ivf"):
        root = tmp_path / backend
        LakeStore(root, "fp").record_index_spec(IndexSpec(backend, {"m": 12}))
        before = {
            path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()
        }
        with pytest.raises(UnsupportedIndexBackendError, match=f"'{backend}'"):
            _READERS[reader](root)
        after = {
            path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()
        }
        assert after == before


def test_catalog_keeps_the_spec_a_store_recorded(lake_embedder, tmp_path):
    """A lake keeps the spec it was written under — its manifests are never
    rewritten to another spelling — and a metric it recorded still rules."""
    spec = IndexSpec(params={"metric": "euclidean"})
    store = LakeStore(tmp_path, "fp")
    store.record_index_spec(spec)
    catalog = LakeCatalog(lake_embedder, store=LakeStore.open(tmp_path))
    assert catalog.index_spec == spec
    assert all(sub.metric == "euclidean" for sub in catalog.searcher.index.subs)
    assert LakeStore.peek_index_spec(tmp_path) == spec


def test_default_backend_is_exact(lake_embedder):
    catalog = LakeCatalog(lake_embedder)
    assert catalog.index_spec == IndexSpec("exact", {})
    _assert_backend_class(catalog, KnnIndex)
    assert catalog.stats()["index_backend"] == "exact"

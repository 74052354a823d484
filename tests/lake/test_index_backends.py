"""Pluggable index backends through the lake: persisted-index warm loads
(zero insertions), incremental persistence, exact/HNSW catalog parity, and
the backend-spec fingerprint guard."""

import numpy as np
import pytest

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import FingerprintMismatchError, config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.search.backend import IndexSpec, ShardedIndex
from repro.search.hnsw import HnswIndex
from repro.search.index import KnnIndex

HNSW_SPEC = "hnsw:m=12,ef_construction=64,ef_search=64"


def _build(lake_embedder, lake_tables, tmp_path, backend=None):
    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store, index_backend=backend)
    catalog.add_tables(lake_tables)
    return catalog


def _ranked(service, name, mode="union", k=10) -> list[str]:
    request = DiscoveryRequest(mode=mode, k=k, table=name)
    return service.discover(request).tables()


def _assert_backend_class(catalog, cls):
    """Every shard of the live index is a `cls`."""
    index = catalog.searcher.index
    assert isinstance(index, ShardedIndex)
    assert index.n_shards == catalog.n_shards
    assert all(isinstance(sub, cls) for sub in index.subs)


# --------------------------------------------------------------------- #
# Backend parity through the catalog/service
# --------------------------------------------------------------------- #
def test_catalog_runs_unmodified_on_hnsw(lake_embedder, lake_tables, tmp_path):
    catalog = _build(lake_embedder, lake_tables, tmp_path, backend=HNSW_SPEC)
    _assert_backend_class(catalog, HnswIndex)
    service = LakeService(catalog)
    for mode in ("join", "union", "subset"):
        results = _ranked(service, "g1t1", mode=mode, k=3)
        assert results and "g1t1" not in results

    # Incremental add/remove work against the approximate index too.
    extra = next(iter(lake_tables.values()))
    renamed = extra.with_columns(extra.columns, name="fresh")
    service.add_table(renamed)
    assert "fresh" in catalog
    assert _ranked(service, "fresh", mode="union", k=3)
    assert service.remove_table("fresh")
    assert not catalog.searcher.has_table("fresh")


def test_exact_and_hnsw_agree_on_top_results(lake_embedder, lake_tables, tmp_path):
    exact = _build(lake_embedder, lake_tables, tmp_path / "exact")
    hnsw = _build(lake_embedder, lake_tables, tmp_path / "hnsw", backend=HNSW_SPEC)
    for name in list(lake_tables)[:4]:
        top_exact = _ranked(LakeService(exact), name, mode="union", k=1)
        top_hnsw = _ranked(LakeService(hnsw), name, mode="union", k=1)
        assert top_exact == top_hnsw


# --------------------------------------------------------------------- #
# Persisted index
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", [None, HNSW_SPEC])
def test_warm_load_restores_persisted_index_zero_insertions(
    lake_embedder, lake_tables, tmp_path, backend
):
    cold = _build(lake_embedder, lake_tables, tmp_path, backend=backend)
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


@pytest.mark.parametrize("backend", [None, HNSW_SPEC])
def test_mutations_update_persisted_index(
    lake_embedder, lake_tables, tmp_path, backend
):
    catalog = _build(lake_embedder, lake_tables, tmp_path, backend=backend)
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
    """The backend spec is written when the catalog attaches — before any
    embedding — so a first ingest killed mid-way still reopens under the
    spec it was started with."""
    store = LakeStore(tmp_path, "fp")
    LakeCatalog(lake_embedder, store=store, index_backend=HNSW_SPEC)
    # No table was ever added (simulated Ctrl-C), yet the spec is durable.
    assert LakeStore.peek_index_spec(tmp_path) == IndexSpec.parse(HNSW_SPEC)
    with pytest.raises(FingerprintMismatchError, match="index backend"):
        LakeCatalog(lake_embedder, store=LakeStore.open(tmp_path))  # exact default


def test_persisted_index_state_version_guard(lake_embedder, lake_tables, tmp_path):
    _build(lake_embedder, lake_tables, tmp_path)
    store = LakeStore.open(tmp_path)
    for shard in store.shards:
        shard._manifest["index"]["state_version"] = -1
    # Loads degrade per shard: nothing restored, fresh empty sub-indexes.
    index = store.load_index(lake_embedder.dim)
    assert index.restored_shards == set() and len(index) == 0


# --------------------------------------------------------------------- #
# Fingerprint guard on backend-spec change
# --------------------------------------------------------------------- #
def test_fingerprint_changes_with_backend_spec(lake_embedder):
    config = lake_embedder.model.config
    base = config_fingerprint(config, model=lake_embedder.model)
    assert base == config_fingerprint(
        config, model=lake_embedder.model, index_spec="exact"
    ), "None normalizes to the default exact spec"
    hnsw = config_fingerprint(config, model=lake_embedder.model, index_spec="hnsw")
    tuned = config_fingerprint(
        config, model=lake_embedder.model, index_spec="hnsw:m=16"
    )
    assert len({base, hnsw, tuned}) == 3


def test_store_built_exact_refuses_hnsw_open(lake_embedder, lake_tables, tmp_path):
    config = lake_embedder.model.config
    exact_fp = config_fingerprint(config, model=lake_embedder.model)
    store = LakeStore(tmp_path, exact_fp)
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(lake_tables)

    hnsw_fp = config_fingerprint(config, model=lake_embedder.model, index_spec="hnsw")
    with pytest.raises(FingerprintMismatchError):
        LakeStore.open(tmp_path, expected_fingerprint=hnsw_fp)
    # The matching spec still opens.
    LakeStore.open(tmp_path, expected_fingerprint=exact_fp)


def test_from_store_rejects_conflicting_backend(lake_embedder, lake_tables, tmp_path):
    _build(lake_embedder, lake_tables, tmp_path, backend=HNSW_SPEC)
    with pytest.raises(FingerprintMismatchError, match="index backend"):
        LakeCatalog.from_store(
            lake_embedder, LakeStore.open(tmp_path), index_backend="exact"
        )
    # Explicitly naming the matching spec works.
    warm = LakeCatalog.from_store(
        lake_embedder, LakeStore.open(tmp_path), index_backend=HNSW_SPEC
    )
    _assert_backend_class(warm, HnswIndex)


def test_default_backend_is_exact(lake_embedder):
    catalog = LakeCatalog(lake_embedder)
    assert catalog.index_spec == IndexSpec("exact", {})
    _assert_backend_class(catalog, KnnIndex)
    assert catalog.stats()["index_backend"] == "exact"

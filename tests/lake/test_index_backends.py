"""The vector index through the lake: warm loads that assemble the index
from the stored vectors (zero insertions), mutations the next open serves,
and the index spec a lake records and fingerprints."""

import json

import numpy as np
import pytest

from repro.lake.catalog import LakeCatalog
from repro.lake.legacy import migrate
from repro.lake.serialization import (
    StoreLayoutError,
    UnsupportedIndexBackendError,
    config_fingerprint,
)
from repro.lake.store import LakeStore
from repro.search.backend import IndexSpec
from repro.search.index import KnnIndex


def _build(lake_embedder, lake_tables, tmp_path):
    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(lake_tables)
    return catalog


# --------------------------------------------------------------------- #
# The index a warm open assembles
# --------------------------------------------------------------------- #
def test_warm_load_assembles_the_index_zero_insertions(
    lake_embedder, lake_tables, tmp_path
):
    cold = _build(lake_embedder, lake_tables, tmp_path)
    assert cold.searcher.insertions == sum(
        t.n_cols for t in lake_tables.values()
    )

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.embed_calls == 0
    assert warm.searcher.insertions == 0, "warm open must assemble the index"
    assert warm.index_spec == cold.index_spec
    assert len(warm.searcher.index) == len(cold.searcher.index)
    assert warm.searcher.index.keys() == cold.searcher.index.keys()

    # Warm answers match the cold build exactly.
    for name in list(lake_tables)[:4]:
        pairs = cold.records[name].vector_pairs()
        assert cold.searcher.rank(
            pairs, 3, exclude_table=name
        ) == warm.searcher.rank(pairs, 3, exclude_table=name)


def test_mutations_update_persisted_index(lake_embedder, lake_tables, tmp_path):
    catalog = _build(lake_embedder, lake_tables, tmp_path)
    extra = next(iter(lake_tables.values()))
    catalog.add_table(extra.with_columns(extra.columns, name="fresh"))
    catalog.remove_table("g0t0")

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions == 0
    assert "fresh" in warm.searcher.table_names()
    assert "g0t0" not in warm.searcher.table_names()
    assert sorted(warm.searcher.table_names()) == sorted(
        catalog.searcher.table_names()
    )
    pairs = warm.records["fresh"].vector_pairs()
    assert warm.searcher.rank(pairs, 3, exclude_table="fresh")


def test_a_store_write_without_the_catalog_is_what_the_next_open_serves(
    lake_embedder, lake_tables, tmp_path
):
    """The index is derived from the table archives, so there is nothing to
    fall out of step with them: a remove made on the store alone — no live
    index handed over — is exactly what the next warm open serves, with no
    rebuild and no ghost columns."""
    _build(lake_embedder, lake_tables, tmp_path)
    LakeStore.open(tmp_path).remove_table("g0t0")

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions == 0 and warm.embed_calls == 0
    assert "g0t0" not in warm.searcher.table_names()
    for name in list(lake_tables)[1:4]:
        hits = warm.searcher.rank(
            warm.records[name].vector_pairs(), 5, exclude_table=name
        )
        assert "g0t0" not in {hit.table for hit in hits}


def test_same_schema_vector_drift_detected(lake_embedder, lake_tables, tmp_path):
    """A table re-saved with new vectors under the same (table, column)
    keys — identical keys, different data — is served with the archive's
    newer vectors: the warm index is assembled from those archives, so a
    drift has nowhere to hide and needs no rebuild to be picked up."""
    catalog = _build(lake_embedder, lake_tables, tmp_path)
    record = catalog.records["g1t1"]
    record.column_vectors = record.column_vectors + 0.25
    LakeStore.open(tmp_path).save_table(record)  # table flush only

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions == 0 and warm.embed_calls == 0
    assert np.array_equal(
        warm.records["g1t1"].column_vectors, record.column_vectors
    )
    index = warm.searcher.index
    rows = [i for i, key in enumerate(index.keys()) if key.table == "g1t1"]
    assert np.array_equal(
        index._matrix()[rows], record.column_vectors
    ), "the warm index serves the archive's (newer) vectors"


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
}


@pytest.mark.parametrize("reader", [*_READERS, "migrate"])
def test_store_readers_refuse_a_non_exact_index(tmp_path, reader, unmigrated):
    """A lake recorded under any index but ``exact`` was written before
    layout versions. Every reader of the root manifest refuses it as an
    older layout, and ``migrate`` refuses it naming the index; each leaves
    every byte where it was."""
    for backend in ("hnsw", "ivf"):
        root = tmp_path / backend
        LakeStore(root, "fp")
        top = json.loads((root / "manifest.json").read_text())
        top["index_spec"] = IndexSpec(backend, {"m": 12}).to_dict()
        (root / "manifest.json").write_text(json.dumps(top))
        unmigrated(root)
        before = {
            path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()
        }
        if reader == "migrate":
            with pytest.raises(UnsupportedIndexBackendError, match=f"'{backend}'"):
                migrate(root)
        else:
            with pytest.raises(StoreLayoutError, match="migrate --lake"):
                _READERS[reader](root)
        after = {
            path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()
        }
        assert after == before


def test_a_store_records_no_index_but_exact(tmp_path):
    store = LakeStore(tmp_path, "fp")
    before = (tmp_path / "manifest.json").read_bytes()
    with pytest.raises(UnsupportedIndexBackendError, match="'hnsw'"):
        store.record_index_spec(IndexSpec("hnsw", {"m": 12}))
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert store.index_spec() is None


def test_catalog_keeps_the_spec_a_store_recorded(lake_embedder, tmp_path):
    """A lake keeps the spec it was written under — its manifests are never
    rewritten to another spelling — and a metric it recorded still rules."""
    spec = IndexSpec(params={"metric": "euclidean"})
    store = LakeStore(tmp_path, "fp")
    store.record_index_spec(spec)
    catalog = LakeCatalog(lake_embedder, store=LakeStore.open(tmp_path))
    assert catalog.index_spec == spec
    assert catalog.searcher.index.metric == "euclidean"
    assert LakeStore.peek_index_spec(tmp_path) == spec


def test_default_backend_is_exact(lake_embedder):
    catalog = LakeCatalog(lake_embedder)
    assert catalog.index_spec == IndexSpec("exact", {})
    assert isinstance(catalog.searcher.index, KnnIndex)
    assert catalog.stats()["index_backend"] == "exact"

"""On-disk `LakeStore` persistence: exact round-trips, replacement, removal,
manifest-order determinism, manifest-recorded sizes, the persisted vector
index, and per-shard crash/corruption degradation.

Stores created without a shard count run at 1 shard and at 4 (the
directory's ``lake_layout_shards`` fixture).
"""

import gc

import numpy as np
import pytest

from repro.lake import store as store_module
from repro.lake.catalog import LakeCatalog
from repro.lake.store import LakeStore, LakeTableRecord
from repro.search.backend import (
    IndexSpec,
    make_index,
    make_sharded_index,
    stable_shard,
)
from repro.search.tables import ColumnEntry
from repro.sketch.pipeline import sketch_table


def _all_entries(store: LakeStore) -> list[dict]:
    """Every manifest entry across shards (layout-agnostic)."""
    return [entry for shard in store.shards for entry in shard.entries()]


def _table_archives(root) -> list:
    """Every table npz, whichever shard holds it."""
    return sorted(root.rglob("tables/*.npz"))


def _record(table, config, seed=0):
    sketch = sketch_table(table, config)
    rng = np.random.default_rng(seed)
    return LakeTableRecord(
        sketch=sketch,
        column_vectors=rng.normal(size=(sketch.n_cols, 8)),
        table_embedding=rng.normal(size=8),
        n_rows=table.n_rows,
        metadata={"source": "test"},
    )


def test_save_load_roundtrip_bit_exact(tmp_path, city_table, tiny_sketch_config):
    store = LakeStore(tmp_path, "fp")
    record = _record(city_table, tiny_sketch_config)
    store.save_table(record)

    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    loaded = reopened.load_table("cities")
    assert np.array_equal(loaded.column_vectors, record.column_vectors)
    assert np.array_equal(loaded.table_embedding, record.table_embedding)
    assert loaded.n_rows == record.n_rows
    assert loaded.metadata == {"source": "test"}
    assert loaded.column_names == record.column_names
    assert np.array_equal(
        loaded.sketch.snapshot.signature, record.sketch.snapshot.signature
    )


def test_save_replaces_existing_entry(tmp_path, city_table, tiny_sketch_config):
    store = LakeStore(tmp_path, "fp")
    first = _record(city_table, tiny_sketch_config, seed=1)
    second = _record(city_table, tiny_sketch_config, seed=2)
    store.save_table(first)
    store.save_table(second)
    assert len(store) == 1
    loaded = store.load_table("cities")
    assert np.array_equal(loaded.column_vectors, second.column_vectors)


def test_remove_table_deletes_artifact(tmp_path, city_table, tiny_sketch_config):
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    npz_files = _table_archives(tmp_path)
    assert len(npz_files) == 1
    assert store.remove_table("cities")
    assert not store.remove_table("cities")
    assert "cities" not in store
    assert not npz_files[0].exists()


def test_load_all_preserves_insertion_order(
    tmp_path, city_table, product_table, mixed_table, tiny_sketch_config
):
    store = LakeStore(tmp_path, "fp")
    for table in (product_table, city_table, mixed_table):
        store.save_table(_record(table, tiny_sketch_config))
    names = [record.name for record in store.load_all()]
    assert names == ["products", "cities", "mixed"]
    # Order survives a reopen too (insertion order, not alphabetical).
    reopened = LakeStore.open(tmp_path)
    assert reopened.table_names() == names


def test_missing_table_and_manifest_errors(tmp_path, tiny_sketch_config):
    with pytest.raises(FileNotFoundError, match="manifest"):
        LakeStore.open(tmp_path / "nowhere")
    store = LakeStore(tmp_path, "fp")
    with pytest.raises(KeyError, match="ghost"):
        store.load_table("ghost")


def test_stats_counts(tmp_path, city_table, product_table, tiny_sketch_config):
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    store.save_table(_record(product_table, tiny_sketch_config))
    stats = store.stats()
    assert stats["n_tables"] == 2
    assert stats["n_columns"] == city_table.n_cols + product_table.n_cols
    assert stats["n_rows"] == city_table.n_rows + product_table.n_rows
    assert stats["disk_bytes"] > 0
    assert stats["fingerprint"] == "fp"


def test_stats_sums_manifest_recorded_sizes(
    tmp_path, city_table, product_table, tiny_sketch_config, monkeypatch
):
    """`disk_bytes` is recorded per entry at write time; stats() must sum
    the manifests, not stat every archive on disk."""
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    store.save_table(_record(product_table, tiny_sketch_config))
    expected = sum(
        (shard.root / entry["file"]).stat().st_size
        for shard in store.shards
        for entry in shard.entries()
    )
    for shard in store.shards:
        for entry in shard.entries():
            assert entry["disk_bytes"] == (shard.root / entry["file"]).stat().st_size

    import pathlib

    def no_stat(self, *args, **kwargs):
        raise AssertionError("stats() must not stat table archives")

    monkeypatch.setattr(pathlib.Path, "stat", no_stat)
    assert store.stats()["disk_bytes"] == expected


# --------------------------------------------------------------------- #
# Persisted vector index
# --------------------------------------------------------------------- #
def _column_index(n_shards, n=12, dim=8, seed=0):
    """A populated index with the shape a `TableSearcher` builds."""
    rng = np.random.default_rng(seed)
    index = make_sharded_index(
        IndexSpec(), dim, n_shards,
        router=lambda entry: stable_shard(entry.table, n_shards),
    )
    index.add_many(
        [
            (ColumnEntry(f"t{i % 4}", f"c{i}"), rng.normal(size=dim))
            for i in range(n)
        ]
    )
    return index


def _every_shard(store: LakeStore) -> set[int]:
    return set(range(store.n_shards))


def test_save_load_index_round_trip(tmp_path):
    store = LakeStore(tmp_path, "fp")
    assert store.load_index(8).restored_shards == set()
    assert store.index_spec() is None
    index = _column_index(store.n_shards)
    store.save_index(index, IndexSpec())

    reopened = LakeStore.open(tmp_path)
    assert reopened.index_spec() == IndexSpec()
    assert LakeStore.peek_index_spec(tmp_path) == IndexSpec()
    restored = reopened.load_index(8)
    assert restored.restored_shards == _every_shard(store)
    assert restored.keys() == index.keys()
    query = np.ones(8)
    assert [k for k, _ in restored.query(query, 5)] == [
        k for k, _ in index.query(query, 5)
    ]
    assert reopened.stats()["index_backend"] == "exact"
    assert reopened.stats()["index_disk_bytes"] > 0


def test_save_empty_index_round_trip(tmp_path):
    """Saving persists an artifact for every shard, populated or not, so
    the next open restores all of them."""
    store = LakeStore(tmp_path, "fp")
    store.save_index(_column_index(store.n_shards, n=0), IndexSpec("exact", {}))
    restored = LakeStore.open(tmp_path).load_index(8)
    assert restored.restored_shards == _every_shard(store) and len(restored) == 0


def test_save_index_refuses_an_index_of_another_shape(tmp_path):
    store = LakeStore(tmp_path, "fp")
    with pytest.raises(ValueError, match="ShardedIndex"):
        store.save_index(make_index(IndexSpec(), 8), IndexSpec("exact", {}))
    with pytest.raises(ValueError, match="ShardedIndex"):
        store.save_index(
            _column_index(store.n_shards + 1), IndexSpec("exact", {})
        )


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize(
    "damage",
    [lambda data: b"not a zip archive", lambda data: data[: len(data) // 2]],
    ids=["not-a-zip", "torn"],
)
def test_corrupt_index_archive_degrades_to_rebuild(tmp_path, damage):
    """A garbage or torn index.npz must make load_index hand that shard
    back unrestored — the rebuild fallback — not raise, and must not leave
    the archive's file handle to the GC: an unclosed file is an error here."""
    store = LakeStore(tmp_path, "fp")
    store.save_index(_column_index(store.n_shards), IndexSpec("exact", {}))
    for shard in store.shards:
        path = shard.root / "index.npz"
        path.write_bytes(damage(path.read_bytes()))
    with pytest.warns(RuntimeWarning, match="could not be restored"):
        restored = LakeStore.open(tmp_path).load_index(8)
        gc.collect()
    assert restored.restored_shards == set() and len(restored) == 0


def test_drop_index_keeps_spec(tmp_path):
    store = LakeStore(tmp_path, "fp")
    assert not store.drop_index()
    spec = IndexSpec(params={"metric": "cosine"})
    store.save_index(_column_index(store.n_shards), spec)
    assert store.drop_index()
    assert store.load_index(8).restored_shards == set()
    # The index spec is configuration, not artifact: it survives the
    # drop so a rebuild happens under the same spec (and fingerprint) ...
    assert LakeStore.peek_index_spec(tmp_path) == spec
    assert LakeStore.open(tmp_path).index_spec() == spec
    # ... and a reshard carries it into the new layout.
    store.reshard(store.n_shards + 1, "fp", lambda staged: None)
    assert LakeStore.peek_index_spec(tmp_path) == spec


def test_save_index_heals_a_shard_whose_table_manifest_moved_on(
    tmp_path, city_table, product_table, tiny_sketch_config
):
    """`save_table` without the live index, then `save_index` with an index
    nobody touched: the table write bumped that shard's mutation counter,
    so its persisted index would be rejected at the next open unless
    `save_index` re-saves it, dirty or not."""
    store = LakeStore(tmp_path, "fp")
    records = [_record(t, tiny_sketch_config) for t in (city_table, product_table)]
    store.save_tables(records)
    index = _column_index(store.n_shards)
    store.save_index(index, IndexSpec("exact", {}))
    assert index.dirty_shards() == set()

    store.save_table(records[0])  # replace: a new version of the same table
    owner = store.shard_id(records[0].name)
    assert not store.shards[owner].index_in_step()
    store.save_index(index, IndexSpec("exact", {}))

    reopened = LakeStore.open(tmp_path)
    assert reopened.load_index(8).restored_shards == _every_shard(store)


def test_failed_array_write_leaves_manifest_clean(
    tmp_path, city_table, product_table, tiny_sketch_config, monkeypatch
):
    """An archive-write failure mid-save must not leave a half-built
    manifest entry that a later flush would persist."""
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    monkeypatch.setattr(
        store_module, "write_archive",
        lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
    )
    with pytest.raises(OSError, match="disk full"):
        store.save_table(_record(product_table, tiny_sketch_config))
    monkeypatch.undo()
    # The failed table never entered the manifest, in memory or on disk.
    assert store.table_names() == ["cities"]
    store.save_table(_record(product_table, tiny_sketch_config))
    reopened = LakeStore.open(tmp_path)
    assert reopened.table_names() == ["cities", "products"]
    for record in reopened.load_all():  # every entry fully loadable
        assert record.column_vectors.shape[0] == record.sketch.n_cols


def test_save_tables_batch_single_flush(
    tmp_path, city_table, product_table, mixed_table, tiny_sketch_config
):
    store = LakeStore(tmp_path, "fp")
    records = [
        _record(t, tiny_sketch_config)
        for t in (city_table, product_table, mixed_table)
    ]
    store.save_tables(records)
    assert store.table_names() == ["cities", "products", "mixed"]
    reopened = LakeStore.open(tmp_path)
    assert reopened.table_names() == ["cities", "products", "mixed"]


# --------------------------------------------------------------------- #
# Sharded layout: routing, global order, crash/corruption degradation
# --------------------------------------------------------------------- #
def _many_records(config, n=12, prefix="tab"):
    from repro.table.schema import table_from_rows

    records = []
    for i in range(n):
        table = table_from_rows(
            f"{prefix}{i:03d}",
            ["alpha", "beta"],
            [[f"v{i}r{r}", str(i * r)] for r in range(6)],
            description=f"synthetic {i}",
        )
        records.append(_record(table, config, seed=i))
    return records


def test_sharded_store_routes_and_preserves_global_order(
    tmp_path, tiny_sketch_config
):
    records = _many_records(tiny_sketch_config)
    store = LakeStore(tmp_path, "fp", n_shards=4)
    store.save_tables(records)
    names = [record.name for record in records]
    # Every shard holds a subset; together they hold everything, and the
    # cross-shard order is the global insertion order, not shard-major.
    assert store.table_names() == names
    assert sum(len(shard) for shard in store.shards) == len(records)
    assert sum(1 for shard in store.shards if len(shard)) > 1
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    assert reopened.n_shards == 4
    assert reopened.table_names() == names
    assert [record.name for record in reopened.load_all()] == names
    # Interleaved incremental adds keep extending the global order.
    extra = _many_records(tiny_sketch_config, n=3, prefix="late")
    for record in extra:
        reopened.save_table(record)
    assert reopened.table_names() == names + [r.name for r in extra]


def test_sharded_store_refuses_conflicting_shard_count(tmp_path, tiny_sketch_config):
    store = LakeStore(tmp_path, "fp", n_shards=3)
    store.save_tables(_many_records(tiny_sketch_config, n=4))
    with pytest.raises(ValueError, match="reshard"):
        LakeStore(tmp_path, "fp", n_shards=5)
    # Unstated count follows the on-disk layout, whatever the default.
    assert LakeStore(tmp_path, "fp").n_shards == 3
    assert LakeStore.peek_n_shards(tmp_path) == 3


def test_torn_shard_manifest_degrades_one_shard_only(tmp_path, tiny_sketch_config):
    """Truncating one shard's manifest mid-byte must cost exactly that
    shard: open() warns, resets it to empty, and keeps serving every other
    shard's tables — at every shard count, so a one-shard lake comes back
    empty and writable instead of refusing to open."""
    records = _many_records(tiny_sketch_config)
    store = LakeStore(tmp_path, "fp")
    store.save_tables(records)
    victim = next(shard for shard in store.shards if len(shard) > 0)
    victim_names = set(victim.table_names())
    survivor_names = [
        name for name in store.table_names() if name not in victim_names
    ]
    manifest = victim.root / "manifest.json"
    torn = manifest.read_bytes()[: manifest.stat().st_size // 2]
    manifest.write_bytes(torn)

    with pytest.warns(RuntimeWarning, match="resetting it to empty"):
        reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    assert reopened.table_names() == survivor_names
    for name in survivor_names:  # survivors stay fully loadable
        loaded = reopened.load_table(name)
        assert loaded.column_vectors.shape[0] == loaded.sketch.n_cols
    # The degraded shard is writable again: lost tables re-ingest cleanly.
    for record in records:
        if record.name in victim_names:
            reopened.save_table(record)
    assert set(reopened.table_names()) == {record.name for record in records}


def test_update_crash_during_array_write_keeps_old_version(
    tmp_path, city_table, tiny_sketch_config, monkeypatch
):
    """The staged-replace guarantee: a crash while writing the replacement
    archive must leave the table fully servable at its *old* version —
    never the remove-then-re-add hole where the lake forgets the table."""
    store = LakeStore(tmp_path, "fp")
    old = _record(city_table, tiny_sketch_config, seed=1)
    store.save_table(old)
    replacement = _record(city_table, tiny_sketch_config, seed=2)
    replacement.version = 2
    monkeypatch.setattr(
        store_module, "write_archive",
        lambda *a, **k: (_ for _ in ()).throw(OSError("kill -9")),
    )
    with pytest.raises(OSError, match="kill -9"):
        store.save_table(replacement)
    monkeypatch.undo()
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    loaded = reopened.load_table("cities")
    assert loaded.version == 1
    assert np.array_equal(loaded.column_vectors, old.column_vectors)


def test_update_crash_before_manifest_flush_keeps_old_version(
    tmp_path, city_table, tiny_sketch_config, monkeypatch
):
    """Crash after the replacement archive is on disk but before the
    manifest flush: the reopened store serves the old version, and the
    orphaned replacement archive is swept at open."""
    from repro.lake.store import LakeShard

    store = LakeStore(tmp_path, "fp")
    old = _record(city_table, tiny_sketch_config, seed=1)
    store.save_table(old)
    replacement = _record(city_table, tiny_sketch_config, seed=2)
    replacement.version = 2
    monkeypatch.setattr(
        LakeShard,
        "_flush",
        lambda self: (_ for _ in ()).throw(OSError("kill -9")),
    )
    with pytest.raises(OSError, match="kill -9"):
        store.save_table(replacement)
    monkeypatch.undo()
    assert len(_table_archives(tmp_path)) == 2  # old + orphaned replacement
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    loaded = reopened.load_table("cities")
    assert loaded.version == 1
    assert np.array_equal(loaded.column_vectors, old.column_vectors)
    assert len(_table_archives(tmp_path)) == 1  # the orphan was swept
    # The store is fully writable again: the retried update lands.
    reopened.save_table(replacement)
    assert LakeStore.open(tmp_path).load_table("cities").version == 2


def test_update_crash_before_unlink_serves_new_version(
    tmp_path, city_table, tiny_sketch_config, monkeypatch
):
    """Crash after the manifest flush but before the replaced archive is
    unlinked: the new version serves; the stale original is swept."""
    from repro.lake.store import LakeShard

    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config, seed=1))
    replacement = _record(city_table, tiny_sketch_config, seed=2)
    replacement.version = 2
    monkeypatch.setattr(LakeShard, "_drain_unlinks", lambda self: None)
    store.save_table(replacement)
    monkeypatch.undo()
    assert len(_table_archives(tmp_path)) == 2  # replaced original lingers
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    loaded = reopened.load_table("cities")
    assert loaded.version == 2
    assert np.array_equal(loaded.column_vectors, replacement.column_vectors)
    assert len(_table_archives(tmp_path)) == 1


def test_remove_crash_before_unlink_leaves_no_dangling_entry(
    tmp_path, city_table, product_table, tiny_sketch_config, monkeypatch
):
    """Crash after the manifest flush that forgot the table but before its
    archive is unlinked: the reopened store has neither the entry nor (after
    the open-time sweep) the file. The other order — unlink, then a kill
    before the flush — left an entry pointing at a missing archive, and the
    next `load_all` died with FileNotFoundError."""
    from repro.lake.store import LakeShard

    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    store.save_table(_record(product_table, tiny_sketch_config))
    flush = LakeShard._flush

    def flush_then_die(self):
        flush(self)
        raise OSError("kill -9")

    monkeypatch.setattr(LakeShard, "_flush", flush_then_die)
    with pytest.raises(OSError, match="kill -9"):
        store.remove_table("cities")
    monkeypatch.undo()
    assert len(_table_archives(tmp_path)) == 2  # the removed archive lingers
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    assert reopened.table_names() == ["products"]
    assert [record.name for record in reopened.load_all()] == ["products"]
    assert len(_table_archives(tmp_path)) == 1  # swept at open


def test_remove_crash_before_manifest_flush_keeps_the_table(
    tmp_path, city_table, tiny_sketch_config, monkeypatch
):
    """Crash before the flush: nothing on disk changed, the table still
    loads."""
    from repro.lake.store import LakeShard

    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config))
    monkeypatch.setattr(
        LakeShard,
        "_flush",
        lambda self: (_ for _ in ()).throw(OSError("kill -9")),
    )
    with pytest.raises(OSError, match="kill -9"):
        store.remove_table("cities")
    monkeypatch.undo()
    reopened = LakeStore.open(tmp_path, expected_fingerprint="fp")
    assert [record.name for record in reopened.load_all()] == ["cities"]


def test_replacement_never_overwrites_live_archive(
    tmp_path, city_table, tiny_sketch_config
):
    """Every replace goes to a freshly allocated file id — the live npz is
    never rewritten in place, so no torn-archive window exists."""
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record(city_table, tiny_sketch_config, seed=1))
    first = _table_archives(tmp_path)
    store.save_table(_record(city_table, tiny_sketch_config, seed=2))
    second = _table_archives(tmp_path)
    assert len(first) == len(second) == 1
    assert first[0].name != second[0].name


def test_torn_shard_index_rebuilds_that_shard_others_stay_warm(
    tmp_path, lake_embedder, lake_tables
):
    """Truncating one shard's index.npz mid-byte must rebuild exactly that
    shard's index on the next warm open (insertions == its columns), adopt
    every other shard's persisted index untouched, and heal the artifact."""
    store = LakeStore(tmp_path, "fp", n_shards=3)
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(lake_tables)

    victim = next(shard for shard in store.shards if len(shard) > 0)
    victim_columns = sum(int(e["n_cols"]) for e in victim.entries())
    index_path = victim.root / "index.npz"
    index_path.write_bytes(index_path.read_bytes()[: index_path.stat().st_size // 2])

    with pytest.warns(RuntimeWarning, match="could not be restored"):
        warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.embed_calls == 0, "an index rebuild must never re-embed"
    assert warm.searcher.insertions == victim_columns
    assert warm.table_names() == catalog.table_names()
    for name in lake_tables:  # rankings identical to the undamaged build
        pairs = catalog.records[name].vector_pairs()
        assert warm.searcher.rank(
            pairs, 4, exclude_table=name
        ) == catalog.searcher.rank(pairs, 4, exclude_table=name)

    healed = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert healed.searcher.insertions == 0, "the rebuild must re-persist"

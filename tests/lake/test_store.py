"""On-disk `LakeStore` persistence: exact round-trips, replacement, removal,
manifest-order determinism, manifest-recorded sizes, the vector index a
store assembles from its table archives, and per-shard crash/corruption
degradation.

Stores created without a shard count run at 1 shard and at 4 (the
directory's ``lake_layout_shards`` fixture).
"""

import gc
import io
import json
import os
import struct

from pathlib import Path

import numpy as np
import pytest

from repro.lake import store as store_module
from repro.lake.legacy import migrate
from repro.lake.store import LakeStore, LakeTableRecord
from repro.search.backend import IndexSpec, make_index
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
# The vector index, assembled from the table archives
# --------------------------------------------------------------------- #
def _column_index(n=12, dim=8, seed=0):
    """A populated index with the shape a `TableSearcher` builds."""
    rng = np.random.default_rng(seed)
    index = make_index(IndexSpec(), dim)
    index.add_many(
        [
            (ColumnEntry(f"t{i % 4}", f"c{i}"), rng.normal(size=dim))
            for i in range(n)
        ]
    )
    return index


def test_load_index_assembles_the_stored_vectors(
    tmp_path, city_table, product_table, tiny_sketch_config
):
    """The index is every table's columns in global insertion order, at any
    shard count, the stored vectors bit for bit; a replaced table keeps its
    rows' place."""
    store = LakeStore(tmp_path, "fp")
    records = [
        _record(table, tiny_sketch_config, seed=seed)
        for seed, table in enumerate((city_table, product_table))
    ]
    store.save_tables(records)
    records[0] = _record(city_table, tiny_sketch_config, seed=7)
    store.save_table(records[0])

    index = LakeStore.open(tmp_path).load_index(8)
    assert index.keys() == [
        ColumnEntry(record.name, column)
        for record in records
        for column in record.column_names
    ]
    assert np.array_equal(
        index._matrix(), np.concatenate([r.column_vectors for r in records])
    )


def test_load_index_is_one_order_at_every_shard_count(
    tmp_path, city_table, product_table, mixed_table, tiny_sketch_config
):
    """Tables saved in two batches across shards, one replaced and one
    removed: the index is their columns in global insertion order, and a
    reshard to another count assembles the same index bit for bit."""
    tables = [
        base.with_columns(base.columns, name=f"{base.name}{i}")
        for i in range(3)
        for base in (city_table, product_table, mixed_table)
    ]
    records = [
        _record(table, tiny_sketch_config, seed=seed)
        for seed, table in enumerate(tables)
    ]
    store = LakeStore(tmp_path, "fp")
    store.save_tables(records[:5])
    store.save_tables(records[5:])
    records[2] = _record(tables[2], tiny_sketch_config, seed=99)
    store.save_table(records[2])
    assert store.remove_table(records[6].name)
    del records[6]
    keys = [ColumnEntry(r.name, c) for r in records for c in r.column_names]
    vectors = np.concatenate([r.column_vectors for r in records]).tobytes()

    for n_shards in (None, 3, 1):
        if n_shards is not None:
            LakeStore.open(tmp_path).reshard(n_shards, "fp")
        index = LakeStore.open(tmp_path).load_index(8)
        assert index.keys() == keys
        assert index._matrix().tobytes() == vectors


def test_an_empty_store_assembles_an_empty_index(tmp_path):
    index = LakeStore(tmp_path, "fp").load_index(8)
    assert len(index) == 0 and index.keys() == []


def test_save_index_records_the_spec_and_writes_no_index(tmp_path):
    """The index is never persisted: ``save_index`` records its spec — which
    is configuration, part of the fingerprint — and writes nothing else,
    and the spec survives a reshard into the new layout."""
    store = LakeStore(tmp_path, "fp")
    assert store.index_spec() is None
    spec = IndexSpec(params={"metric": "cosine"})
    before = sorted(path for path in tmp_path.rglob("*") if path.is_file())
    store.save_index(_column_index(), spec)
    assert sorted(path for path in tmp_path.rglob("*") if path.is_file()) == before
    assert LakeStore.peek_index_spec(tmp_path) == spec
    reopened = LakeStore.open(tmp_path)
    assert reopened.index_spec() == spec
    assert reopened.stats()["index_backend"] == "exact:metric=cosine"
    assert "index_disk_bytes" not in reopened.stats()
    store.reshard(store.n_shards + 1, "fp")
    assert LakeStore.peek_index_spec(tmp_path) == spec


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "damage",
    [lambda data: b"not a zip archive", lambda data: data[: len(data) // 2]],
    ids=["not-a-zip", "torn"],
)
def test_corrupt_index_archive_degrades_to_rebuild(
    tmp_path, city_table, product_table, tiny_sketch_config, damage, unmigrated
):
    """A garbage or torn ``index.npz`` an older writer left in a shard, with
    the manifest entry that names it, is never opened: ``migrate`` rewrites
    the store from its table archives, the migrated store assembles the
    same index, and nothing warns or leaves a file handle to the GC (any
    warning is an error here). The old shard files go with the swap."""
    store = LakeStore(tmp_path, "fp")
    store.save_tables(
        [
            _record(table, tiny_sketch_config, seed=seed)
            for seed, table in enumerate((city_table, product_table))
        ]
    )
    expected = store.load_index(8)
    buffer = io.BytesIO()
    np.savez(buffer, vectors=np.ones((3, 8)))
    planted = {}
    for shard in store.shards:
        manifest_path = shard.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["index"] = {"file": "index.npz", "n_keys": 3}
        manifest["mutation_counter"] = 7
        manifest_path.write_text(store_module._dumps(manifest), encoding="utf-8")
        path = shard.root / "index.npz"
        planted[path] = damage(buffer.getvalue())
        path.write_bytes(planted[path])
    unmigrated(tmp_path)

    assert migrate(tmp_path) == 2
    restored = LakeStore.open(tmp_path).load_index(8)
    gc.collect()
    assert len(restored) == len(expected) > 0
    assert restored.keys() == expected.keys()
    assert np.array_equal(restored._matrix(), expected._matrix())
    assert not list(tmp_path.rglob("index.npz"))


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


# --------------------------------------------------------------------- #
# Shared archives
# --------------------------------------------------------------------- #
def _legacy(record: LakeTableRecord) -> LakeTableRecord:
    """``record`` as a pre-live-tables store serves it: no accumulators."""
    from dataclasses import replace

    columns = [replace(c, numeric_acc=None) for c in record.sketch.column_sketches]
    return replace(record, sketch=replace(record.sketch, column_sketches=columns))


def _members(record: LakeTableRecord) -> dict:
    from repro.lake.serialization import pack_table_sketch

    arrays, meta = pack_table_sketch(record.sketch)
    arrays["column_vectors"] = record.column_vectors
    arrays["table_embedding"] = record.table_embedding
    return {key: (a.dtype.str, a.shape, a.tobytes()) for key, a in arrays.items()}, meta


def test_a_commit_mixing_legacy_and_live_sketches_round_trips(
    tmp_path, tiny_sketch_config
):
    """Tables without accumulators (legacy sketch state) and tables with
    them, in one commit: each comes back with exactly its members, the
    legacy ones still without accumulators, and neither kind shares an
    archive with the other."""
    records = _many_records(tiny_sketch_config, n=10)
    for i in (2, 3, 4, 7):
        records[i] = _legacy(records[i])
    store = LakeStore(tmp_path, "fp")
    store.save_tables(records)
    loaded = {record.name: record for record in LakeStore.open(tmp_path).load_all()}
    for record in records:
        assert _members(loaded[record.name]) == _members(record)
        legacy = record.sketch.column_sketches[0].numeric_acc is None
        assert all(
            (c.numeric_acc is None) == legacy
            for c in loaded[record.name].sketch.column_sketches
        )
    legacy_names = {records[i].name for i in (2, 3, 4, 7)}
    for shard in store.shards:
        kinds: dict = {}
        for entry in shard.entries():
            kinds.setdefault(entry["file"], set()).add(entry["name"] in legacy_names)
        assert all(len(kind) == 1 for kind in kinds.values())
    assert any("slot" in entry for entry in _all_entries(store))


def test_split_tables_inverts_shared_arrays():
    """Every table's members come back out of a shared archive's exactly —
    a table with no columns, and runs of every length, included — and an
    archive without ``table_cols`` is one table."""
    rng = np.random.default_rng(0)
    tables = []
    for n_cols in (2, 0, 3, 1):
        sample_len = rng.integers(0, 4, size=n_cols)
        distinct_len = rng.integers(0, 3, size=n_cols)
        tables.append({
            "snapshot_sig": rng.integers(0, 9, size=4, dtype=np.uint64),
            "values_sig": rng.integers(0, 9, size=(n_cols, 4), dtype=np.uint64),
            "ctypes": rng.integers(0, 3, size=n_cols, dtype=np.int64),
            "acc_sample": rng.normal(size=int(sample_len.sum())),
            "acc_sample_len": sample_len.astype(np.int64),
            "acc_distinct": rng.integers(0, 9, size=int(distinct_len.sum()), dtype=np.uint64),
            "acc_distinct_len": distinct_len.astype(np.int64),
            "column_vectors": rng.normal(size=(n_cols, 3)),
            "table_embedding": rng.normal(size=3),
        })
    shared = store_module._shared_arrays(tables)
    assert shared["table_cols"].tolist() == [2, 0, 3, 1]
    split = store_module._split_tables(shared)
    assert len(split) == len(tables)
    for got, want in zip(split, tables):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert got[key].shape == want[key].shape, key
            assert np.array_equal(got[key], want[key]), key
    assert store_module._split_tables(tables[0]) == [tables[0]]


def test_a_single_table_write_is_a_one_table_archive(
    tmp_path, city_table, product_table, tiny_sketch_config
):
    """One record in a commit writes no ``table_cols`` and records no
    ``slot``: the archive an older build writes for the same record."""
    store = LakeStore(tmp_path, "fp")
    store.save_tables([_record(city_table, tiny_sketch_config)])
    store.save_table(_record(product_table, tiny_sketch_config))
    for entry in _all_entries(store):
        assert "slot" not in entry
    for path in _table_archives(tmp_path):
        assert "table_cols" not in store_module.read_archive(path)


def test_a_shared_archive_is_an_npz_np_load_reads(tmp_path, tiny_sketch_config):
    """A bulk write's archive is still a plain npz: ``np.load`` reads the
    members the store's codec reads, each holding every table's rows."""
    records = _many_records(tiny_sketch_config, n=5)
    store = LakeStore(tmp_path, "fp", n_shards=1)
    store.save_tables(records)
    (path,) = _table_archives(tmp_path)
    with np.load(path) as loaded:
        members = {key: loaded[key] for key in loaded.files}
    assert members.keys() == store_module.read_archive(path).keys()
    for key, array in store_module.read_archive(path).items():
        assert np.array_equal(members[key], array), key
    assert members["table_cols"].tolist() == [r.sketch.n_cols for r in records]
    assert members["column_vectors"].shape[0] == sum(r.sketch.n_cols for r in records)


def test_a_commit_that_writes_one_table_twice_keeps_the_archive(
    tmp_path, city_table, tiny_sketch_config
):
    """The second record of a name replaces the first inside the archive
    they share: the commit leaves that archive on disk (the first slot's
    rows dead), and a reopen serves the second."""
    first = _record(city_table, tiny_sketch_config, seed=1)
    second = _record(city_table, tiny_sketch_config, seed=2)
    store = LakeStore(tmp_path, "fp")
    store.save_tables([first, second])
    (entry,) = _all_entries(store)
    assert entry["slot"][0] == 1
    assert [p.name for p in _table_archives(tmp_path)] == [Path(entry["file"]).name]
    assert store.stats()["dead_bytes"] > 0
    loaded = LakeStore.open(tmp_path).load_table("cities")
    assert np.array_equal(loaded.column_vectors, second.column_vectors)


def _inode_flags(path) -> int:
    """``path``'s inode flags, as ``lsattr`` reads them."""
    fcntl = pytest.importorskip("fcntl")
    handle = os.open(path, os.O_RDONLY)
    try:
        flags = fcntl.ioctl(handle, store_module._GETFLAGS, struct.pack("i", 0))
    finally:
        os.close(handle)
    return struct.unpack("i", flags)[0]


def _set_inode_flags(path, flags: int) -> None:
    fcntl = pytest.importorskip("fcntl")
    handle = os.open(path, os.O_RDONLY)
    try:
        fcntl.ioctl(handle, store_module._SETFLAGS, struct.pack("i", flags))
    finally:
        os.close(handle)


def test_a_new_store_marks_its_root_a_top_directory(
    tmp_path, city_table, tiny_sketch_config
):
    """Where the file system keeps ``chattr +T`` (ext2/3/4), a store this
    code creates carries it on its root, so that its shard directories get
    block groups of their own; opening and writing an existing store leaves
    its root as it is, and a path that cannot carry the flag is no error."""
    top = store_module._TOPDIR_FLAG
    probe = tmp_path / "probe"
    probe.mkdir()
    try:
        _set_inode_flags(probe, _inode_flags(probe) | top)
        kept = bool(_inode_flags(probe) & top)
    except OSError:
        kept = False
    if not kept:
        pytest.skip("this file system keeps no top-directory flag")

    LakeStore(tmp_path / "lake", "fp")
    assert _inode_flags(tmp_path / "lake") & top

    _set_inode_flags(tmp_path / "lake", _inode_flags(tmp_path / "lake") & ~top)
    store = LakeStore.open(tmp_path / "lake")
    store.save_table(_record(city_table, tiny_sketch_config))
    assert not _inode_flags(tmp_path / "lake") & top

    (tmp_path / "file").write_bytes(b"")
    store_module._mark_top_dir(tmp_path / "file")
    store_module._mark_top_dir(tmp_path / "missing")

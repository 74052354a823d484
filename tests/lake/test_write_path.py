"""The catalog's write path: one compact manifest flush per touched shard.

Every catalog write hands the store the live index, so a shard's table
entries, its ``mutation_counter`` and its ``"index"`` entry land in one
manifest rename. An append (index unchanged) only re-stamps the entry; an
add, update or remove re-archives ``index.npz`` first, stamped with the new
counter. Pinned here: the flush counts; that a kill at any file operation of
a write leaves a store that reopens as the old or the new state (with its
write-then-rename leftovers swept) and ranks like a cold rebuild of that
state; and the kill between the ``index.npz`` rename and the manifest flush.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.lake import store as store_module
from repro.lake.catalog import LakeCatalog
from repro.lake.replica import SnapshotPublisher
from repro.lake.store import LakeStore
from repro.search.tables import TableSearcher
from repro.table.schema import table_from_rows

_LEFTOVERS = ("manifest.tmp.json", "index.tmp.npz")


def _new_tables() -> dict:
    return {
        f"new{i}": table_from_rows(
            f"new{i}", ["entity", "count"],
            [[f"new{i}val{r}", str(r * (i + 2))] for r in range(8 + i)],
            description=f"late table {i}",
        )
        for i in range(3)
    }


def _shrunk(table):
    rows = [[c.values[r] for c in table.columns] for r in range(table.n_rows - 4)]
    return table_from_rows(table.name, table.header, rows, description=table.description)


#: One write per catalog entry point, each on a warm catalog.
OPS = {
    "append_rows": lambda catalog, tables: catalog.append_rows(
        "g1t1", [["grp1val98", "5", "tag1"], ["grp1val99", "6", "tag2"]]
    ),
    "update_table": lambda catalog, tables: catalog.update_table(_shrunk(tables["g0t2"])),
    "remove_table": lambda catalog, tables: catalog.remove_table("g2t1"),
    "add_tables": lambda catalog, tables: catalog.add_tables(_new_tables()),
}


@pytest.fixture()
def base_lake(tmp_path, lake_embedder, lake_tables) -> Path:
    root = tmp_path / "base"
    LakeCatalog(lake_embedder, store=LakeStore(root, "fp")).add_tables(lake_tables)
    return root


def _warm(embedder, root) -> LakeCatalog:
    return LakeCatalog.from_store(embedder, LakeStore.open(root))


def _state(root) -> dict:
    """What the store on disk says each table is."""
    return {
        record.name: (
            record.version,
            record.n_rows,
            record.embedding_stale,
            record.column_vectors.tobytes(),
        )
        for record in LakeStore.open(root).load_all()
    }


def _rankings(searcher, records) -> dict:
    return {
        record.name: searcher.near_tables(record.column_vectors, 4, record.name)
        for record in records
    }


def _assert_ranks_like_a_cold_rebuild(catalog: LakeCatalog) -> None:
    records = list(catalog.records.values())
    cold = TableSearcher(catalog.dim, n_shards=catalog.n_shards)
    for record in records:
        cold.add_table(record.name, record.column_names, record.column_vectors)
    warm, rebuilt = _rankings(catalog.searcher, records), _rankings(cold, records)
    for name, hits in rebuilt.items():
        assert [hit[0] for hit in warm[name]] == [hit[0] for hit in hits], name
        assert [hit[1] for hit in warm[name]] == pytest.approx(
            [hit[1] for hit in hits], rel=1e-9
        )


def _assert_swept(root: Path) -> None:
    """No write-then-rename leftover, and every table archive is live."""
    assert not [p for name in _LEFTOVERS for p in root.rglob(name)]
    for shard in LakeStore.open(root).shards:
        live = {entry["file"] for entry in shard.entries()}
        on_disk = {f"tables/{p.name}" for p in (shard.root / "tables").glob("*.npz")}
        assert on_disk == live, shard.root


# --------------------------------------------------------------------- #
# Flush counts
# --------------------------------------------------------------------- #
@pytest.fixture()
def writes(monkeypatch) -> Counter:
    """Counts root-manifest, shard-manifest and index-archive writes."""
    counts: Counter = Counter()
    write_manifest, savez = store_module._write_manifest, np.savez

    def counted_manifest(path, manifest):
        is_shard = path.parent.parent.name == store_module.SHARDS_DIR
        counts["shard_manifest" if is_shard else "root_manifest"] += 1
        write_manifest(path, manifest)

    def counted_savez(file, *args, **kwargs):
        if Path(file).name == "index.tmp.npz":
            counts["index_archive"] += 1
        savez(file, *args, **kwargs)

    monkeypatch.setattr(store_module, "_write_manifest", counted_manifest)
    monkeypatch.setattr(np, "savez", counted_savez)
    return counts


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_write_flushes_each_touched_shard_once(
    op, base_lake, lake_embedder, lake_tables, writes
):
    catalog = _warm(lake_embedder, base_lake)
    writes.clear()
    OPS[op](catalog, lake_tables)
    if op == "add_tables":
        touched = len({catalog.store.shard_id(name) for name in _new_tables()})
        # Fresh tables take global sequence numbers: the root moves once.
        expected = {"root_manifest": 1, "shard_manifest": touched, "index_archive": touched}
    elif op == "append_rows":
        expected = {"shard_manifest": 1}  # re-stamped: no index.npz written
    else:
        expected = {"shard_manifest": 1, "index_archive": 1}
    assert dict(writes) == expected
    reopened = _warm(lake_embedder, base_lake)
    assert reopened.searcher.insertions == 0 and reopened.embed_calls == 0


def test_manifests_are_compact_single_line_json(base_lake):
    for path in base_lake.rglob("manifest.json"):
        text = path.read_text()
        compact = json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True)
        assert text == compact + "\n", path


# --------------------------------------------------------------------- #
# Kills
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("op", sorted(OPS))
def test_write_killed_at_every_file_operation_reopens_old_or_new(
    op, base_lake, lake_embedder, lake_tables, tmp_path, kill_at
):
    """Kill the k-th rename / archive write / unlink of one write, for
    every k: the reopened store holds each table at its old or its new
    state (the whole store, for a one-table write), leaves nothing behind,
    ranks like a cold rebuild of what it holds, and is warm from then on."""
    old = _state(base_lake)
    done = tmp_path / "done"
    shutil.copytree(base_lake, done)
    OPS[op](_warm(lake_embedder, done), lake_tables)
    new = _state(done)
    assert new != old

    k = 0
    leftovers = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(base_lake, root)
        catalog = _warm(lake_embedder, root)
        with kill_at(k) as kill:
            OPS[op](catalog, lake_tables)
        if not kill.fired:
            break
        leftovers += sum(1 for name in _LEFTOVERS for _ in root.rglob(name))

        state = _state(root)
        if op == "add_tables":  # shards flush independently
            for name in old.keys() | new.keys():
                assert state.get(name) in (old.get(name), new.get(name)), (k, name)
        else:
            assert state in (old, new), k
        reopened = _warm(lake_embedder, root)
        assert reopened.embed_calls == 0
        _assert_swept(root)
        _assert_ranks_like_a_cold_rebuild(reopened)
        assert _warm(lake_embedder, root).searcher.insertions == 0, k
    assert k > 2, "a write takes an archive write and a rename at least"
    if op != "append_rows":  # an append renames only its manifest
        assert leftovers, "some kill must have left a temporary to sweep"


def test_kill_between_index_rename_and_manifest_flush_rebuilds_that_shard(
    base_lake, lake_embedder, lake_tables, monkeypatch
):
    """The renamed-in ``index.npz`` carries the new counter and the
    manifest the old one, so the archive is refused: that shard rebuilds
    from the (old) tables — never serving new vectors against them — and
    every other shard stays warm."""
    old = _state(base_lake)
    catalog = _warm(lake_embedder, base_lake)
    shard = catalog.store.shards[catalog.store.shard_id("g0t2")]
    counter = int(shard._manifest["mutation_counter"])
    columns = sum(int(entry["n_cols"]) for entry in shard.entries())

    class Killed(Exception):
        pass

    def killed(path, manifest):
        raise Killed(path)

    monkeypatch.setattr(store_module, "_write_manifest", killed)
    with pytest.raises(Killed):
        catalog.update_table(_shrunk(lake_tables["g0t2"]))
    monkeypatch.undo()
    with np.load(shard.root / "index.npz") as archive:
        assert int(archive["__mutation_counter"]) == counter + 1

    reopened = _warm(lake_embedder, base_lake)
    assert _state(base_lake) == old
    assert reopened.embed_calls == 0
    assert reopened.searcher.insertions == columns, "only that shard rebuilds"
    _assert_ranks_like_a_cold_rebuild(reopened)
    assert _warm(lake_embedder, base_lake).searcher.insertions == 0


def test_open_sweeps_write_then_rename_leftovers(base_lake, tmp_path):
    """A kill inside a manifest or index flush leaves its temporary behind;
    the next open deletes it, and a published generation never ships it."""
    planted = [base_lake / "manifest.tmp.json"]
    for shard_dir in sorted((base_lake / "shards").iterdir()):
        planted += [shard_dir / name for name in _LEFTOVERS]
    for path in planted:
        path.write_bytes(b"torn")
    generation = SnapshotPublisher(base_lake, tmp_path / "snapshots").publish()
    _assert_swept(tmp_path / "snapshots" / f"gen-{generation:06d}")
    LakeStore.open(base_lake)
    assert not [path for path in planted if path.exists()]

"""The catalog's write path: table archives plus one compact manifest flush
per touched shard, and no index archive.

The index is derived state (a warm open assembles it from the stored
vectors), so a write persists only what it changed. Pinned here: the flush
and archive counts, and that a flush re-encodes only the manifest entries
its write changed; that a kill at any file operation of a write leaves a
store that reopens as the old or the new state (with its write-then-rename
leftovers swept) and ranks like a cold rebuild of that state; that neither
a warm open nor a replica's adoption writes a byte; and that the catalog's
stale-name set stays in step with the records.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.lake import store as store_module
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.search.tables import TableSearcher
from repro.table.schema import table_from_rows

_LEFTOVERS = ("manifest.tmp.json",)


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


def _append(catalog, tables):
    return catalog.append_rows(
        "g1t1", [["grp1val98", "5", "tag1"], ["grp1val99", "6", "tag2"]]
    )


#: One write per catalog entry point, each on a warm catalog.
OPS = {
    "append_rows": _append,
    "update_table": lambda catalog, tables: catalog.update_table(_shrunk(tables["g0t2"])),
    "remove_table": lambda catalog, tables: catalog.remove_table("g2t1"),
    "add_tables": lambda catalog, tables: catalog.add_tables(_new_tables()),
    "refresh_stale": lambda catalog, tables: catalog.refresh_stale(),
}
#: What the base lake has been through before the op: a refresh needs
#: something stale to re-embed.
BEFORE = {"refresh_stale": _append}


@pytest.fixture()
def base_lake(tmp_path, lake_embedder, lake_tables, op) -> Path:
    root = tmp_path / "base"
    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    catalog.add_tables(lake_tables)
    if op in BEFORE:
        BEFORE[op](catalog, lake_tables)
    return root


@pytest.fixture()
def op() -> None:
    """The write under test; tests that have one parametrize it."""
    return None


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
        record.name: searcher.rank(
            record.vector_pairs(), 4, exclude_table=record.name
        )
        for record in records
    }


def _assert_ranks_like_a_cold_rebuild(catalog: LakeCatalog) -> None:
    records = list(catalog.records.values())
    cold = TableSearcher(catalog.dim, n_shards=catalog.n_shards)
    for record in records:
        cold.add_table(record.name, record.column_names, record.column_vectors)
    warm, rebuilt = _rankings(catalog.searcher, records), _rankings(cold, records)
    for name, hits in rebuilt.items():
        assert [hit.table for hit in warm[name]] == [hit.table for hit in hits], name
        assert [hit.n_matched for hit in warm[name]] == [hit.n_matched for hit in hits]
        assert [hit.distance_sum for hit in warm[name]] == pytest.approx(
            [hit.distance_sum for hit in hits], rel=1e-9
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
    """Counts root-manifest, shard-manifest and table-archive writes."""
    counts: Counter = Counter()
    write_manifest = store_module._write_manifest
    write_archive = store_module.write_archive

    def counted_manifest(path, manifest):
        is_shard = path.parent.parent.name == store_module.SHARDS_DIR
        counts["shard_manifest" if is_shard else "root_manifest"] += 1
        write_manifest(path, manifest)

    def counted_archive(path, arrays):
        counts["table_archive"] += 1
        return write_archive(path, arrays)

    monkeypatch.setattr(store_module, "_write_manifest", counted_manifest)
    monkeypatch.setattr(store_module, "write_archive", counted_archive)
    return counts


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_write_flushes_each_touched_shard_once(
    op, base_lake, lake_embedder, lake_tables, writes
):
    catalog = _warm(lake_embedder, base_lake)
    writes.clear()
    OPS[op](catalog, lake_tables)
    if op == "add_tables":
        tables = _new_tables()
        touched = len({catalog.store.shard_id(name) for name in tables})
        # Fresh tables take global sequence numbers: the root moves once.
        expected = {
            "root_manifest": 1, "shard_manifest": touched, "table_archive": len(tables)
        }
    elif op == "remove_table":
        expected = {"shard_manifest": 1}
    else:
        expected = {"shard_manifest": 1, "table_archive": 1}
    assert dict(writes) == expected
    assert not list(base_lake.rglob("index*.npz"))
    reopened = _warm(lake_embedder, base_lake)
    assert reopened.searcher.insertions == 0 and reopened.embed_calls == 0


@pytest.fixture()
def entry_encodes(monkeypatch) -> list:
    """Names of the shard table entries encoded, in call order."""
    encoded: list[str] = []
    encode_entry = store_module._encode_entry

    def counted(entry):
        encoded.append(entry["name"])
        return encode_entry(entry)

    monkeypatch.setattr(store_module, "_encode_entry", counted)
    return encoded


def test_first_flush_after_open_encodes_its_whole_shard(
    base_lake, lake_embedder, lake_tables, entry_encodes
):
    catalog = _warm(lake_embedder, base_lake)
    shard = catalog.store.shards[catalog.store.shard_id("g1t1")]
    _append(catalog, lake_tables)
    assert sorted(entry_encodes) == sorted(shard.table_names())
    entry_encodes.clear()
    _append(catalog, lake_tables)
    assert entry_encodes == ["g1t1"]


@pytest.mark.parametrize("op", ["append_rows", "update_table", "remove_table"])
def test_a_flush_encodes_only_the_entry_its_write_changed(
    op, base_lake, lake_embedder, lake_tables, entry_encodes
):
    """Once every shard has flushed, an append or update re-encodes the one
    entry it wrote and a remove none, however many entries the shard has."""
    catalog = _warm(lake_embedder, base_lake)
    for shard in catalog.store.shards:
        shard._flush()
    assert sorted(entry_encodes) == sorted(catalog.store.table_names())
    entry_encodes.clear()
    OPS[op](catalog, lake_tables)
    expected = {"append_rows": ["g1t1"], "update_table": ["g0t2"], "remove_table": []}
    assert entry_encodes == expected[op]


def test_add_tables_writes_every_archive_through_the_codec(
    base_lake, lake_embedder, monkeypatch
):
    """``kill_at`` kills archive writes by counting ``write_archive`` where
    the store calls it. An ``add_tables`` of N fresh tables makes exactly N
    table archives and nothing else, every one of them through that seam: a
    write path that bypassed it would leave the crash tests passing without
    killing that write."""
    written: list[Path] = []
    write_archive = store_module.write_archive

    def counted(path, arrays):
        written.append(Path(path))
        return write_archive(path, arrays)

    catalog = _warm(lake_embedder, base_lake)
    before = set(base_lake.rglob("*.npz"))
    monkeypatch.setattr(store_module, "write_archive", counted)
    tables = _new_tables()
    catalog.add_tables(tables)
    assert len(written) == len(tables)
    assert set(base_lake.rglob("*.npz")) - before == set(written)


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


def _bytes_under(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_a_warm_open_writes_nothing(base_lake, lake_embedder, lake_tables):
    """Assembling the index is read-only: a warm open — of a lake whose
    shards hold a stale table, too — leaves every byte as it found it."""
    _append(_warm(lake_embedder, base_lake), lake_tables)
    before = _bytes_under(base_lake)
    warm = _warm(lake_embedder, base_lake)
    assert warm.stale_tables() and warm.searcher.insertions == 0
    assert _bytes_under(base_lake) == before


def test_a_replica_adoption_writes_nothing_into_its_snapshot(
    base_lake, lake_embedder, tmp_path
):
    """A replica serves a shared, read-only generation: adopting one —
    even one with no index archive in a shard, which an older build
    rebuilt and wrote back — changes no byte under it."""
    snapshots = tmp_path / "snapshots"
    generation = SnapshotPublisher(base_lake, snapshots).publish()
    root = snapshots / f"gen-{generation:06d}"
    (root / "shards" / "s000" / "index.npz").unlink(missing_ok=True)
    before = _bytes_under(root)
    replica = ReplicaService(lake_embedder, snapshots)
    assert replica.generation == generation and replica.refusals == 0
    assert len(replica.catalog) == len(LakeStore.open(base_lake))
    assert _bytes_under(root) == before


def test_open_sweeps_write_then_rename_leftovers(base_lake, tmp_path):
    """A kill inside a manifest flush leaves its temporary behind, and an
    older build's kill inside an index flush left ``index.tmp.npz``; the
    next open deletes both, and a published generation never ships them."""
    planted = [base_lake / "manifest.tmp.json"]
    for shard_dir in sorted((base_lake / "shards").iterdir()):
        planted += [shard_dir / name for name in (*_LEFTOVERS, "index.tmp.npz")]
    for path in planted:
        path.write_bytes(b"torn")
    generation = SnapshotPublisher(base_lake, tmp_path / "snapshots").publish()
    _assert_swept(tmp_path / "snapshots" / f"gen-{generation:06d}")
    LakeStore.open(base_lake)
    assert not [path for path in planted if path.exists()]


# --------------------------------------------------------------------- #
# Stale bookkeeping
# --------------------------------------------------------------------- #
def _assert_stale_in_step(catalog: LakeCatalog) -> None:
    assert catalog.stale_tables() == [
        name for name, record in catalog.records.items() if record.embedding_stale
    ]


def _assert_strict_discover_refreshes_exactly_the_stale(catalog) -> None:
    stale = catalog.stale_tables()
    before = dict(catalog.records)
    result = LakeService(catalog).discover(
        DiscoveryRequest(mode="union", k=3, table="g0t0")
    )
    replaced = [
        name for name, record in catalog.records.items() if record is not before[name]
    ]
    assert replaced == stale
    assert result.diagnostics.get("refreshed", 0) == len(stale)
    assert catalog.stale_tables() == []
    _assert_stale_in_step(catalog)


@pytest.mark.parametrize("op", sorted(OPS))
def test_stale_tables_stay_in_step_through_each_write(
    op, base_lake, lake_embedder, lake_tables
):
    """After the warm open (``refresh_stale``'s base lake has a stale
    table) and after each write, ``stale_tables()`` is exactly the records
    flagged stale, in records order."""
    catalog = _warm(lake_embedder, base_lake)
    _assert_stale_in_step(catalog)
    OPS[op](catalog, lake_tables)
    _assert_stale_in_step(catalog)
    _assert_strict_discover_refreshes_exactly_the_stale(catalog)


def test_stale_tables_after_a_warm_open_of_a_stale_lake(base_lake, lake_embedder):
    """Appends made in reverse records order come back stale from the
    store in records order, and one strict query refreshes just them."""
    catalog = _warm(lake_embedder, base_lake)
    for name in ("g2t0", "g0t1"):
        catalog.append_rows(name, [["late", "1", "tag0"]])
    warm = _warm(lake_embedder, base_lake)
    assert warm.stale_tables() == [
        name for name in warm.records if name in ("g2t0", "g0t1")
    ]
    _assert_stale_in_step(warm)
    _assert_strict_discover_refreshes_exactly_the_stale(warm)

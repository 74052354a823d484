"""The catalog's write path: table archives plus one manifest commit per
touched shard, and no index archive.

Every lake here is written with archives of at most two tables (the
``small_archives`` fixture), so a bulk write spans several archives and an
update or remove can leave a shared archive alive or drop its last table.

The index is derived state (a warm open assembles it from the stored
vectors), so a write persists only what it changed, and a shard's manifest
commit appends one journal line unless it compacts. Pinned here: the commit
and archive counts, and that a commit encodes only the manifest entries its
write changed; that a kill at any file operation of a write — a compaction's
too, and a journal append killed before or halfway through its write —
leaves a store that reopens as the old or the new state (with its
write-then-rename leftovers swept, and a torn journal tail cut by the next
write) and ranks like a cold rebuild of that state; that neither a warm
open nor a replica's adoption writes a byte, journals and torn tails
included; and that the catalog's stale-name set stays in step with the
records.
"""

from __future__ import annotations

import json
import math
import shutil
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.lake import store as store_module
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.search.tables import TableSearcher
from repro.table.schema import table_from_rows

_LEFTOVERS = ("manifest.tmp.json",)
_JOURNAL = "manifest.log"


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
def base_lake(tmp_path, lake_embedder, lake_tables, op, small_archives) -> Path:
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
    cold = TableSearcher(catalog.dim)
    for record in records:
        cold.add_table(record.name, record.column_names, record.column_vectors)
    warm, rebuilt = _rankings(catalog.searcher, records), _rankings(cold, records)
    for name, hits in rebuilt.items():
        assert [hit.table for hit in warm[name]] == [hit.table for hit in hits], name
        assert [hit.n_matched for hit in warm[name]] == [hit.n_matched for hit in hits]
        assert [hit.distance_sum for hit in warm[name]] == pytest.approx(
            [hit.distance_sum for hit in hits], rel=1e-9
        )


def _torn_tails(root: Path) -> int:
    """Shards whose journal holds bytes past the lines that replay."""
    return sum(
        1
        for shard in LakeStore.open(root).shards
        if (shard.root / _JOURNAL).exists()
        and (shard.root / _JOURNAL).stat().st_size > shard._journal_bytes
    )


def _assert_swept(root: Path) -> None:
    """No write-then-rename leftover, and the table archives on disk are
    exactly those the live entries name."""
    assert not [p for name in _LEFTOVERS for p in root.rglob(name)]
    _assert_archives_live(LakeStore.open(root))


def _assert_archives_live(store: LakeStore) -> None:
    """The table archives on disk are exactly those the store's live entries
    name, with no open to sweep them: a finished write leaves no other."""
    for shard in store.shards:
        live = {entry["file"] for entry in shard.entries()}
        on_disk = {f"tables/{p.name}" for p in (shard.root / "tables").glob("*.npz")}
        assert on_disk == live, shard.root


def _archives_for(store: LakeStore, names) -> int:
    """How many archives a bulk write of the fresh tables ``names`` makes:
    each shard's share, :data:`repro.lake.store.ARCHIVE_TABLES` to one."""
    per_shard = Counter(store.shard_id(name) for name in names)
    return sum(math.ceil(n / store_module.ARCHIVE_TABLES) for n in per_shard.values())


# --------------------------------------------------------------------- #
# Flush counts
# --------------------------------------------------------------------- #
@pytest.fixture()
def writes(monkeypatch) -> Counter:
    """Counts root-manifest writes, shard-manifest commits (a journal
    append or a compaction) and table-archive writes."""
    counts: Counter = Counter()
    write_manifest = store_module._write_manifest
    append_journal = store_module._append_journal
    write_archive = store_module.write_archive

    def counted_manifest(path, manifest):
        is_shard = path.parent.parent.name == store_module.SHARDS_DIR
        counts["shard_manifest" if is_shard else "root_manifest"] += 1
        write_manifest(path, manifest)

    def counted_journal(path, line, keep):
        counts["shard_manifest"] += 1
        append_journal(path, line, keep)

    def counted_archive(path, arrays):
        counts["table_archive"] += 1
        return write_archive(path, arrays)

    monkeypatch.setattr(store_module, "_write_manifest", counted_manifest)
    monkeypatch.setattr(store_module, "_append_journal", counted_journal)
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
            "root_manifest": 1,
            "shard_manifest": touched,
            "table_archive": _archives_for(catalog.store, tables),
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


def test_after_open_a_journal_line_encodes_its_entry_and_a_compaction_the_rest(
    base_lake, lake_embedder, lake_tables, entry_encodes
):
    """A warm open caches no entry text: an append's journal line encodes
    the entry it wrote, and the shard's first compaction every other."""
    catalog = _warm(lake_embedder, base_lake)
    shard = catalog.store.shards[catalog.store.shard_id("g1t1")]
    _append(catalog, lake_tables)
    assert entry_encodes == ["g1t1"]
    assert (shard.root / _JOURNAL).exists()
    entry_encodes.clear()
    shard._compact()
    assert sorted(entry_encodes) == sorted(set(shard.table_names()) - {"g1t1"})
    assert not (shard.root / _JOURNAL).exists()


@pytest.mark.parametrize("op", ["append_rows", "update_table", "remove_table"])
def test_a_flush_encodes_only_the_entry_its_write_changed(
    op, base_lake, lake_embedder, lake_tables, entry_encodes
):
    """Once every shard has compacted, an append or update re-encodes the
    one entry it wrote and a remove none, however many entries the shard
    has."""
    catalog = _warm(lake_embedder, base_lake)
    for shard in catalog.store.shards:
        shard._compact()
    assert sorted(entry_encodes) == sorted(catalog.store.table_names())
    entry_encodes.clear()
    OPS[op](catalog, lake_tables)
    expected = {"append_rows": ["g1t1"], "update_table": ["g0t2"], "remove_table": []}
    assert entry_encodes == expected[op]


def test_add_tables_writes_every_archive_through_the_codec(
    base_lake, lake_embedder, monkeypatch
):
    """``kill_at`` kills archive writes by counting ``write_archive`` where
    the store calls it. An ``add_tables`` of fresh tables makes exactly
    each touched shard's share of them, two to an archive, and nothing
    else, every one of them through that seam: a write path that bypassed
    it would leave the crash tests passing without killing that write."""
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
    assert len(written) == _archives_for(catalog.store, tables)
    assert set(base_lake.rglob("*.npz")) - before == set(written)


def _compact(text: str) -> str:
    return json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True)


def test_manifests_are_compact_single_line_json(base_lake, lake_embedder, lake_tables):
    for path in base_lake.rglob("manifest.json"):
        text = path.read_text()
        assert text == _compact(text) + "\n", path
    catalog = _warm(lake_embedder, base_lake)
    for op in sorted(OPS):
        OPS[op](catalog, lake_tables)
    journals = list(base_lake.rglob(_JOURNAL))
    assert journals
    for path in journals:
        for line in path.read_text().splitlines(keepends=True):
            assert line == _compact(line) + "\n", path


# --------------------------------------------------------------------- #
# Kills
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("op", sorted(OPS))
def test_write_killed_at_every_file_operation_reopens_old_or_new(
    op, base_lake, lake_embedder, lake_tables, tmp_path, kill_at
):
    """Kill the k-th rename / archive write / unlink / open for writing /
    journal append (whole or torn) of one write, for every k: the reopened
    store holds each table at its old or its new state (the whole store,
    for a one-table write), leaves nothing behind but a torn journal tail,
    ranks like a cold rebuild of what it holds, and is warm from then on."""
    old = _state(base_lake)
    done = tmp_path / "done"
    shutil.copytree(base_lake, done)
    catalog = _warm(lake_embedder, done)
    OPS[op](catalog, lake_tables)
    _assert_archives_live(catalog.store)
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
        leftovers += _torn_tails(root)

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
    assert k > 2, "a write takes an archive write and a manifest commit at least"
    assert leftovers, "some kill must have left a temporary or a torn tail"


def _shared_pair(root: Path) -> tuple[str, str]:
    """Two tables that share an archive (there is one at either shard count:
    the base lake's nine tables go two to an archive)."""
    for shard in LakeStore.open(root).shards:
        by_file = defaultdict(list)
        for entry in shard.entries():
            by_file[entry["file"]].append(entry["name"])
        for names in by_file.values():
            if len(names) == 2:
                return names[0], names[1]
    raise AssertionError("no shared archive")


def _rewrite(catalog: LakeCatalog, tables, name: str, how: str) -> None:
    if how == "update":
        catalog.update_table(_shrunk(tables[name]))
    else:
        catalog.remove_table(name)


@pytest.mark.parametrize("how", ["update", "remove"])
@pytest.mark.parametrize("last", [False, True], ids=["archive-lives", "archive-goes"])
def test_a_rewrite_of_a_shared_archives_table_killed_at_every_file_operation(
    how, last, base_lake, lake_embedder, lake_tables, tmp_path, kill_at
):
    """An update or remove of one table of a shared archive, while its
    sibling still reads it (the archive stays, with dead rows) or after the
    sibling was rewritten (the archive goes after the commit), killed at
    every k: each kill reopens old or new, with no archive on disk that no
    entry names and no entry naming a missing archive."""
    first, second = _shared_pair(base_lake)
    shard_root = LakeStore.open(base_lake)._shard_for(first).root
    (archive,) = {
        entry["file"]
        for entry in LakeStore.open(base_lake)._shard_for(first).entries()
        if entry["name"] in (first, second)
    }
    if last:
        _rewrite(_warm(lake_embedder, base_lake), lake_tables, first, how)
    target = second if last else first
    old = _state(base_lake)
    done = tmp_path / "done"
    shutil.copytree(base_lake, done)
    catalog = _warm(lake_embedder, done)
    _rewrite(catalog, lake_tables, target, how)
    _assert_archives_live(catalog.store)
    shard_dir = shard_root.relative_to(base_lake)
    assert (done / shard_dir / archive).exists() is not last
    new = _state(done)

    k = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(base_lake, root)
        with kill_at(k) as kill:
            _rewrite(_warm(lake_embedder, root), lake_tables, target, how)
        if not kill.fired:
            break
        assert _state(root) in (old, new), k
        _assert_swept(root)
        _assert_ranks_like_a_cold_rebuild(_warm(lake_embedder, root))
    assert k > 2


def _archive_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("tables/*.npz"))


def _assert_accounts_for_the_disk(root: Path, live: LakeStore) -> LakeStore:
    """The ``live`` store's ``disk_bytes`` is the size of the archives on
    disk, before and after a reopen, the reopened store's stats are the
    live one's, and the dead-bytes gauge of each shard is what its stats say
    (an open sets it)."""
    assert live.stats()["disk_bytes"] == _archive_bytes(root)
    _assert_archives_live(live)
    store = LakeStore.open(root)
    assert store.stats() == live.stats()
    assert store.stats()["disk_bytes"] == _archive_bytes(root)
    gauge = obs.get_registry().get("lake_store_dead_bytes")
    for shard in store.shards:
        dead = gauge.labels(shard=str(shard.shard_id)).value
        assert dead == shard.stats()["dead_bytes"]
    return store


def test_stats_count_each_live_archive_once_and_its_dead_rows(
    base_lake, lake_embedder, lake_tables
):
    """After a fresh ingest, and after adds, appends, updates, removes and a
    reopen, ``disk_bytes`` is the summed size of every ``tables/*.npz``.
    ``dead_bytes`` is 0 after the ingest, grows by a table's share of its
    shared archive when the table is rewritten while its sibling lives,
    and falls back when the sibling's rewrite takes the archive away."""
    catalog = _warm(lake_embedder, base_lake)
    assert _assert_accounts_for_the_disk(base_lake, catalog.store).stats()[
        "dead_bytes"
    ] == 0
    first, second = _shared_pair(base_lake)
    share = catalog.store._shard_for(first)._by_name[first]["slot"][1]
    catalog.update_table(_shrunk(lake_tables[first]))
    store = _assert_accounts_for_the_disk(base_lake, catalog.store)
    assert store.stats()["dead_bytes"] == share
    catalog.remove_table(second)
    store = _assert_accounts_for_the_disk(base_lake, catalog.store)
    assert store.stats()["dead_bytes"] == 0

    for op in sorted(OPS):
        OPS[op](catalog, lake_tables)
        store = _assert_accounts_for_the_disk(base_lake, catalog.store)
    assert store.stats()["dead_bytes"] > 0


def test_a_warm_open_reads_each_archive_once(
    base_lake, lake_embedder, lake_tables, monkeypatch
):
    """Rewrite every other table, so that in ``seq`` order the store
    alternates between shared archives and one-table ones: a warm open
    still reads every live archive exactly once."""
    catalog = _warm(lake_embedder, base_lake)
    for name in catalog.table_names()[1::2]:
        catalog.update_table(_shrunk(lake_tables[name]))
    reads: Counter = Counter()
    read_archive = store_module.read_archive

    def counted(path):
        reads[Path(path)] += 1
        return read_archive(path)

    monkeypatch.setattr(store_module, "read_archive", counted)
    warm = _warm(lake_embedder, base_lake)
    assert _records_of(warm) == _records_of(catalog)
    assert set(reads.values()) == {1}
    assert set(reads) == set(base_lake.rglob("tables/*.npz"))
    assert any(
        "slot" in entry for shard in warm.store.shards for entry in shard.entries()
    )


def _records_of(catalog: LakeCatalog) -> dict:
    return {
        name: (record.version, record.column_vectors.tobytes())
        for name, record in catalog.records.items()
    }


def _bytes_under(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _tear(journal: Path, tail: bytes = b'{"base":[1,2],"dr') -> None:
    """Leave ``tail`` after the journal's last line, as a kill halfway
    through an append would."""
    with journal.open("ab") as handle:
        handle.write(tail)


def test_a_warm_open_writes_nothing(base_lake, lake_embedder, lake_tables):
    """Assembling the index is read-only: a warm open — of a lake whose
    shards hold a stale table and a journal with a torn tail, too — leaves
    every byte as it found it."""
    catalog = _warm(lake_embedder, base_lake)
    _append(catalog, lake_tables)
    catalog.remove_table("g2t1")
    journals = sorted(base_lake.rglob(_JOURNAL))
    assert journals
    _tear(journals[0])
    assert _torn_tails(base_lake) == 1
    before = _bytes_under(base_lake)
    warm = _warm(lake_embedder, base_lake)
    assert warm.stale_tables() and warm.searcher.insertions == 0
    assert "g2t1" not in warm.records
    assert _bytes_under(base_lake) == before


def test_a_replica_adoption_writes_nothing_into_its_snapshot(
    base_lake, lake_embedder, lake_tables, tmp_path
):
    """A replica serves a shared, read-only generation: adopting one —
    even one with no index archive in a shard, which an older build
    rebuilt and wrote back, and one whose shards hold journals, one with a
    torn tail — serves every committed write and changes no byte under
    it."""
    catalog = _warm(lake_embedder, base_lake)
    _append(catalog, lake_tables)
    catalog.update_table(_shrunk(lake_tables["g0t2"]))
    catalog.remove_table("g2t1")
    committed = {
        name: (version, n_rows)
        for name, (version, n_rows, _, _) in _state(base_lake).items()
    }
    snapshots = tmp_path / "snapshots"
    generation = SnapshotPublisher(base_lake, snapshots).publish()
    root = snapshots / f"gen-{generation:06d}"
    (root / "shards" / "s000" / "index.npz").unlink(missing_ok=True)
    journals = sorted(root.rglob(_JOURNAL))
    assert journals
    _tear(journals[-1])
    before = _bytes_under(root)
    replica = ReplicaService(lake_embedder, snapshots)
    assert replica.generation == generation and replica.refusals == 0
    served = {
        name: (record.version, record.n_rows)
        for name, record in replica.catalog.records.items()
    }
    assert served == committed
    assert _bytes_under(root) == before


def test_a_torn_journal_tail_is_never_replayed_and_the_next_write_cuts_it(
    base_lake, lake_embedder, lake_tables
):
    """A last line with no newline, or one that is not JSON, is not
    replayed (the archive it named is swept as an orphan), and the shard's
    next write cuts it off before appending, so every line replays again."""
    _append(_warm(lake_embedder, base_lake), lake_tables)
    shard_root = LakeStore.open(base_lake)._shard_for("g1t1").root
    journal = shard_root / _JOURNAL
    for tail in (b'{"base":[1,2],"dr', b"not json\n"):
        committed = _state(base_lake)
        _tear(journal, tail)
        assert _state(base_lake) == committed
        catalog = _warm(lake_embedder, base_lake)
        _append(catalog, lake_tables)
        assert _torn_tails(base_lake) == 0
        if journal.exists():
            read = store_module._read_shard_manifest(shard_root)
            assert read.replayed == journal.stat().st_size
        assert _state(base_lake)["g1t1"][0] == committed["g1t1"][0] + 1


def test_a_compaction_killed_at_every_file_operation_reopens_old_or_new(
    base_lake, lake_embedder, lake_tables, tmp_path, kill_at
):
    """Append until one compacts the journal the earlier ones left; kill
    that append at every k. Each kill reopens as the old or the new state,
    one of them between the compaction's rename and the journal's unlink:
    the journal left then is tied to the old base, so it is never replayed,
    and the next write starts it afresh."""
    catalog = _warm(lake_embedder, base_lake)
    shard_dir = catalog.store._shard_for("g1t1").root.relative_to(base_lake)
    appends = 0
    while True:
        before = tmp_path / f"before-{appends}"
        shutil.copytree(base_lake, before)
        _append(catalog, lake_tables)
        appends += 1
        if not (base_lake / shard_dir / _JOURNAL).exists():
            break
    assert appends > 1, "the compaction must fold journaled lines"
    old, new = _state(before), _state(base_lake)

    k = 0
    stale = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(before, root)
        with kill_at(k) as kill:
            _append(_warm(lake_embedder, root), lake_tables)
        if not kill.fired:
            break
        state = _state(root)
        assert state in (old, new), k
        journal = root / shard_dir / _JOURNAL
        read = store_module._read_shard_manifest(root / shard_dir)
        if journal.exists() and journal.stat().st_size and not read.replayed:
            stale += 1
            assert state == new, k
            reopened = _warm(lake_embedder, root)
            _append(reopened, lake_tables)
            read = store_module._read_shard_manifest(root / shard_dir)
            assert read.replayed == journal.stat().st_size > 0
            assert _state(root)["g1t1"][0] == new["g1t1"][0] + 1
        reopened = _warm(lake_embedder, root)
        _assert_swept(root)
        _assert_ranks_like_a_cold_rebuild(reopened)
    assert stale == 1, "one kill lands between the rename and the unlink"


def test_open_sweeps_write_then_rename_leftovers(base_lake, tmp_path):
    """A kill inside a manifest flush leaves its temporary behind; the
    next open deletes it, and a published generation never ships it."""
    planted = [base_lake / "manifest.tmp.json"]
    for shard_dir in sorted((base_lake / "shards").iterdir()):
        planted += [shard_dir / name for name in _LEFTOVERS]
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

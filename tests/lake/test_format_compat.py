"""Stores older builds wrote are refused until ``migrate`` rewrites them;
the last build before layout versions refuses ours.

Five committed fixtures hold a lake an older commit wrote and the answers it
served (``*_fixture``; `make_fixture.py` beside each says how it was made):

- `data/flat_store/`: one shard's files directly under the root, with a
  persisted index archive;
- `data/sharded_store/`: four shards with pretty-printed manifests and an
  ``index.npz`` each;
- `data/compact_store/`: compact manifests, no index, no journal;
- `data/journal_store/`: journaled shard manifests, one archive per table,
  the root's fingerprint marked ``+journal``;
- `data/shared_store/`: shared archives, marked ``+shared`` — the last
  layout before the root manifest recorded one.

None records a ``layout``, so every reader refuses each, naming ``migrate``,
and changes no byte. ``migrate`` rewrites each at layout 3, which opens
warm — zero forwards, zero index insertions — and serves the recorded
answers; a kill at any of its file operations leaves the old store, still
refused, which a re-run finishes, or the migrated one; a second ``migrate``
writes nothing.

The other way round is a refusal too. The last build before layout
versions (e2f9cfa) strips only its own marks off a root's fingerprint, so
the mark a layout-3 root carries makes its open — inlined below — refuse
the store before its first file operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings
from pathlib import Path

import pytest

from repro.lake import __main__ as cli
from repro.lake import legacy
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import (
    FingerprintMismatchError,
    StoreLayoutError,
    UnsupportedIndexBackendError,
)
from repro.lake.service import LakeService
from repro.lake.store import LAYOUT, LakeStore, _read_shard_manifest

#: What a lake keeps at its root besides the store: the weight bundle.
_BUNDLE = ("model.npz", "model_config.json", "vocab.json")


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """The fixtures state their own shard counts, so running the module once
    per directory default would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture(
    params=[
        "flat_fixture", "sharded_fixture", "compact_fixture",
        "journal_fixture", "shared_fixture",
    ]
)
def fixture(request):
    return request.getfixturevalue(request.param)


@pytest.fixture()
def old_lake(tmp_path, fixture) -> Path:
    root = tmp_path / "lake"
    shutil.copytree(fixture.lake, root)
    return root


def _digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _fields(record) -> tuple:
    """Everything a migrate must keep of a record, as bytes and values."""
    return (
        record.name,
        record.n_rows,
        record.metadata,
        record.version,
        record.embedding_stale,
        json.dumps(record.sketch_meta, sort_keys=True),
        record.column_vectors.tobytes(),
        record.table_embedding.tobytes(),
        {key: array.tobytes() for key, array in record.members.items()},
    )


def _assert_migrated(root: Path, fixture) -> LakeService:
    """``root`` holds a layout-3 store and the bundle, nothing else, and
    serves the fixture's recorded answers warm."""
    assert json.loads((root / "manifest.json").read_text())["layout"] == LAYOUT
    assert sorted(p.name for p in root.iterdir()) == sorted(
        ["manifest.json", "shards", *_BUNDLE]
    )
    service = LakeService.open(root)
    assert service.catalog.searcher.insertions == 0
    assert service.catalog.embed_calls == 0
    assert service.catalog.store.fingerprint == fixture.expected["fingerprint"]
    fixture.assert_serves(service)
    return service


def test_the_fixture_is_the_older_format(sharded_fixture):
    shards = sorted((sharded_fixture.lake / "shards").iterdir())
    assert len(shards) == 4
    for shard in shards:
        assert "\n  " in (shard / "manifest.json").read_text()
        assert (shard / "index.npz").is_file()
        assert "index" in json.loads((shard / "manifest.json").read_text())


_READERS = {
    "LakeStore.open": LakeStore.open,
    "LakeStore": lambda root: LakeStore(root, "fp"),
    "peek_n_shards": LakeStore.peek_n_shards,
    "peek_index_spec": LakeStore.peek_index_spec,
    "LakeService.open": LakeService.open,
}


def test_an_unmigrated_store_is_refused_and_left_as_it_is(old_lake, capsys):
    """Every reader, and every CLI command, refuses the store with the
    command that migrates it, before a byte changes."""
    assert "layout" not in json.loads((old_lake / "manifest.json").read_text())
    before = _digests(old_lake)
    for name, reader in _READERS.items():
        with pytest.raises(StoreLayoutError, match=f"migrate --lake {old_lake}"):
            reader(old_lake)
    for argv in (["stats"], ["query", "--table", "g0t0"], ["reshard", "--shards", "2"]):
        with pytest.raises(SystemExit, match="^error: .*older store layout"):
            cli.main([argv[0], "--lake", str(old_lake), *argv[1:]])
    assert capsys.readouterr().out == ""
    assert _digests(old_lake) == before


def test_migrate_keeps_every_record_and_serves_the_recorded_answers(
    old_lake, fixture, archives_live
):
    """The migrated store holds the loader's records in the same order, bit
    for bit, under the same shard count and index spec, and serves the
    fixture's answers warm at layout 3."""
    old = legacy.load(old_lake)
    records = [_fields(record) for record in old.records()]
    assert legacy.migrate(old_lake) == len(records)
    store = _assert_migrated(old_lake, fixture).catalog.store
    assert store.n_shards == old.n_shards
    assert store.index_spec() == old.index_spec
    assert [_fields(record) for record in store.load_all()] == records
    archives_live(store)


def test_migrate_keeps_staleness_metadata_and_order(
    tmp_path, lake_embedder, lake_tables, unmigrated
):
    """A store in the last unversioned layout with a stale table, metadata,
    a replaced table and a removed one (so ``seq`` has a gap) keeps all of
    it: records, order, staleness and versions."""
    root = tmp_path / "lake"
    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp", n_shards=3))
    catalog.add_tables(lake_tables)
    catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])
    catalog.update_table(lake_tables["g1t1"])
    catalog.remove_table("g2t1")
    record = catalog.store.load_table("g1t0")
    record.metadata = {"owner": "x", "tags": ["a"]}
    catalog.store.save_table(record)
    unmigrated(root)
    records = [_fields(record) for record in legacy.load(root).records()]
    assert legacy.migrate(root) == len(records) == len(lake_tables) - 1

    store = LakeStore.open(root)
    assert store.n_shards == 3 and store.fingerprint == "fp"
    assert [_fields(record) for record in store.load_all()] == records
    assert store.load_table("g0t0").embedding_stale
    assert store.load_table("g0t0").version == store.load_table("g1t1").version == 2
    assert store.load_table("g1t0").metadata == {"owner": "x", "tags": ["a"]}


def test_a_migrate_killed_at_any_file_operation_is_finished_by_a_rerun(
    tmp_path, fixture, kill_at, small_archives, archives_live
):
    """Killed at any file operation — staging archives two to one, the
    manifests, the swap's moves, the clean-up — a migrate leaves either the
    old store, still refused, which a second migrate finishes, or the
    migrated store; both end serving the recorded answers."""
    n_tables = fixture.expected["counts"]["n_tables"]
    k = refused = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(fixture.lake, root)
        with kill_at(k) as kill:
            legacy.migrate(root)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a rolled-back swap
            try:
                LakeStore.open(root)
            except StoreLayoutError:
                assert kill.fired
                refused += 1
                assert legacy.migrate(root) == n_tables
        archives_live(_assert_migrated(root, fixture).catalog.store)
        if not kill.fired:
            break
    assert k > n_tables, "archives, manifests and moves for every table"
    assert 0 < refused < k - 1, "kills before the swap's last move, and after"


def test_a_second_migrate_and_a_warm_open_write_nothing(old_lake, fixture, capsys):
    n_tables = fixture.expected["counts"]["n_tables"]
    cli.main(["migrate", "--lake", str(old_lake)])
    assert f"to layout {LAYOUT}: {n_tables} tables" in capsys.readouterr().out
    before = _digests(old_lake)
    cli.main(["migrate", "--lake", str(old_lake)])
    assert "already at layout 3; nothing to do" in capsys.readouterr().out
    LakeService.open(old_lake)
    assert _digests(old_lake) == before


def test_migrate_refuses_an_hnsw_store_and_writes_nothing(old_lake):
    top = json.loads((old_lake / "manifest.json").read_text())
    top["index_spec"] = {"backend": "hnsw", "params": {"m": 12}}
    (old_lake / "manifest.json").write_text(json.dumps(top))
    before = _digests(old_lake)
    with pytest.raises(UnsupportedIndexBackendError, match="'hnsw'"):
        legacy.migrate(old_lake)
    assert _digests(old_lake) == before


def test_a_one_table_archive_is_the_older_builds_bytes(tmp_path, journal_fixture):
    """Every table of a store with one archive per table, saved alone by
    this code, is the archive that build wrote for it, byte for byte."""
    old = legacy.load(journal_fixture.lake)
    for (shard_root, entry), record in zip(old.entries, old.records()):
        assert "slot" not in entry
        fresh = LakeStore(tmp_path / entry["name"], "fp")
        fresh.save_table(record)
        (written,) = (tmp_path / entry["name"]).rglob("tables/*.npz")
        assert written.read_bytes() == (shard_root / entry["file"]).read_bytes()


# --------------------------------------------------------------------- #
# The last unversioned build refuses a layout-3 store
# --------------------------------------------------------------------- #
class _UnversionedBuildWouldWrite(AssertionError):
    pass


def _unversioned_build_open(root: Path, expected_fingerprint: str | None = None) -> None:
    """The last unversioned build's ``LakeStore.open`` (e2f9cfa), inlined up
    to its first file operation, which it only reaches when it accepts the
    store.

    It rolls back a half-done reshard, reads the root manifest (refusing a
    non-exact index), strips its own ``+shared`` mark or the previous
    build's ``+journal`` off the recorded fingerprint and checks the rest
    against the expected one, converts a flat store, unlinks a leftover
    root ``manifest.tmp.json``, then for each shard in order folds
    ``manifest.json`` with its ``manifest.log`` — resetting the shard if it
    cannot — checks the fold's fingerprint against the root's, and sweeps
    every archive the fold does not name. Raises what that build raises; a
    store it would accept raises :class:`_UnversionedBuildWouldWrite` at the
    first file it would recover, convert, unlink, reset or sweep.
    """
    if (root / ".reshard.old").exists() or (root / ".reshard.tmp").exists():
        raise _UnversionedBuildWouldWrite("it would recover a reshard")
    top = json.loads((root / "manifest.json").read_text())
    backend = top.get("index_spec", {}).get("backend", "exact")
    if backend != "exact":
        raise UnsupportedIndexBackendError(root, backend)
    found = top.get("fingerprint", "")
    for mark in ("+shared", "+journal"):
        if found.endswith(mark):
            found = found[: -len(mark)]
            break
    if expected_fingerprint is not None and found != expected_fingerprint:
        raise FingerprintMismatchError(expected_fingerprint, found)
    if not top.get("sharded"):
        raise _UnversionedBuildWouldWrite("it would convert the flat layout")
    if (root / "manifest.tmp.json").exists():
        raise _UnversionedBuildWouldWrite("it would unlink the root's staging file")
    for shard_id in range(int(top.get("n_shards", 1))):
        shard_root = root / "shards" / f"s{shard_id:03d}"
        try:
            manifest = _read_shard_manifest(shard_root).manifest
        except (ValueError, KeyError, OSError) as exc:
            raise _UnversionedBuildWouldWrite(
                f"it would reset shard {shard_id}"
            ) from exc
        if manifest.get("fingerprint", "") != found:
            raise FingerprintMismatchError(found, manifest.get("fingerprint", ""))
        raise _UnversionedBuildWouldWrite(f"it would sweep shard {shard_id}")


def test_the_unversioned_build_opens_its_own_stores(shared_fixture, journal_fixture):
    """The inlined reader is that build's: it accepts what it and the build
    before it wrote, under the fingerprint its CLI expects and under none."""
    for fixture in (shared_fixture, journal_fixture):
        for expected in (None, fixture.expected["fingerprint"]):
            with pytest.raises(_UnversionedBuildWouldWrite, match="sweep shard 0"):
                _unversioned_build_open(fixture.lake, expected)


def test_the_unversioned_build_refuses_a_layout_3_store(
    tmp_path, shared_fixture, lake_embedder, lake_tables
):
    """Whether a new store or a migrated one after a write here — a journal
    with a torn tail in a shard — that build refuses it before its first
    file operation, under the fingerprint its CLI expects and under
    none."""
    migrated = tmp_path / "migrated"
    shutil.copytree(shared_fixture.lake, migrated)
    legacy.migrate(migrated)
    catalog = LakeService.open(migrated).catalog
    catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])
    catalog.remove_table("g2t1")
    journal = migrated / "shards" / "s003" / "manifest.log"
    with journal.open("ab") as handle:
        handle.write(b'{"base":[1,2],"dr')

    new = tmp_path / "new"
    LakeCatalog(lake_embedder, store=LakeStore(new, "fp")).add_tables(lake_tables)
    for root, fingerprint in (
        (migrated, shared_fixture.expected["fingerprint"]), (new, "fp")
    ):
        before = _digests(root)
        for expected in (None, fingerprint):
            with pytest.raises(FingerprintMismatchError):
                _unversioned_build_open(root, expected)
        assert _digests(root) == before

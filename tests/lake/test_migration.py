"""A store written in the flat layout opens under the one-layout code.

`data/flat_store/` holds a nine-table lake written by the last commit that
kept one shard's files directly under the lake root, plus the answers that
commit served from it (the ``flat_fixture`` fixture; `make_fixture.py` there
says how it was made). Opening a copy must convert it once — by rolling
forward, so a kill at any step is finished by the next open — and serve
exactly those answers: same fingerprint, same order, same versions, same
rankings, zero trunk forwards, zero index insertions.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.embed import TableEmbedder
from repro.lake import __main__ as cli
from repro.lake.bundle import load_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.serialization import FingerprintMismatchError, config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore, LakeTableRecord


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """Every store here is the fixture's or states its shard count, so
    running the module once per default (the directory-wide fixture this
    overrides) would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture()
def flat_lake(tmp_path, flat_fixture) -> Path:
    """A private, writable copy of the committed flat-layout lake."""
    root = tmp_path / "lake"
    shutil.copytree(flat_fixture.lake, root)
    assert (root / "tables").is_dir() and (root / "index.npz").is_file()
    return root


def _embedder(root: Path) -> TableEmbedder:
    model, encoder, _ = load_bundle(root)
    return TableEmbedder(model, encoder)


def _open(root: Path) -> LakeService:
    """Warm open as the CLI does it: the fingerprint is re-derived from the
    bundle, so an open that changed it would be refused here."""
    embedder = _embedder(root)
    fingerprint = config_fingerprint(embedder.model.config, model=embedder.model)
    store = LakeStore.open(root, expected_fingerprint=fingerprint)
    return LakeService(LakeCatalog.from_store(embedder, store))


def _assert_converted(root: Path, n_archives: int) -> None:
    assert not (root / "tables").exists() and not (root / "index.npz").exists()
    shard = root / "shards" / "s000"
    assert (shard / "manifest.json").is_file()
    assert len(list((shard / "tables").glob("*.npz"))) == n_archives
    assert LakeStore.peek_n_shards(root) == 1
    assert not LakeStore.needs_conversion(root)


def _assert_serves_warm(service: LakeService, flat_fixture) -> None:
    """The recorded answers, from the index assembled out of the stored
    vectors, without the trunk."""
    catalog = service.catalog
    assert catalog.store.fingerprint == flat_fixture.expected["fingerprint"]
    assert catalog.store.table_names() == flat_fixture.expected["table_names"]
    assert catalog.searcher.insertions == 0
    flat_fixture.assert_serves(service)
    assert catalog.embed_calls == 0


def _digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_open_converts_and_serves_the_recorded_answers(flat_lake, flat_fixture):
    assert LakeStore.needs_conversion(flat_lake)
    archives = _digests(flat_lake / "tables")
    service = _open(flat_lake)
    _assert_converted(flat_lake, len(archives))
    _assert_serves_warm(service, flat_fixture)
    # Nothing was rewritten: the archives moved, byte for byte — the index
    # archive with its manifest entry, for the first write to retire — and
    # the store accounts for the same table bytes.
    assert _digests(flat_lake / "shards" / "s000" / "tables") == archives
    shard = service.catalog.store.shards[0]
    assert (shard.root / shard._manifest["index"]["file"]).is_file()
    stats = service.catalog.store.stats()
    recorded = dict(flat_fixture.expected["store"])
    recorded["disk_bytes"] -= recorded.pop("index_disk_bytes")
    assert {key: stats[key] for key in recorded} == recorded


def test_second_open_changes_no_file(flat_lake, flat_fixture):
    _open(flat_lake)
    before = _digests(flat_lake)
    _assert_serves_warm(_open(flat_lake), flat_fixture)
    assert _digests(flat_lake) == before


def test_conversion_killed_at_any_step_is_finished_by_the_next_open(
    tmp_path, flat_fixture, kill_at
):
    n_tables = flat_fixture.expected["counts"]["n_tables"]
    k = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(flat_fixture.lake, root)
        with kill_at(k) as kill:
            _open(root)
        if not kill.fired:
            break  # the open finished without ever reaching a k-th call
        _assert_serves_warm(_open(root), flat_fixture)
        _assert_converted(root, n_tables)
    assert k > 4, "tables, index, shard manifest and root manifest at least"


def test_refused_open_converts_nothing(flat_lake, flat_fixture):
    """A wrong fingerprint or shard count is refused before the first
    rename."""
    before = _digests(flat_lake)
    with pytest.raises(FingerprintMismatchError):
        LakeStore.open(flat_lake, expected_fingerprint="someone-else")
    with pytest.raises(ValueError, match="reshard"):
        LakeStore(flat_lake, flat_fixture.expected["fingerprint"], n_shards=4)
    assert _digests(flat_lake) == before


def test_tables_added_after_conversion_sort_after_the_converted_ones(
    flat_lake, flat_fixture
):
    """Converted entries carry their list position as `seq`, so a table
    saved afterwards comes after all of them in the global order."""
    service = _open(flat_lake)
    late = service.catalog.records["g0t0"]
    service.catalog.store.save_table(
        LakeTableRecord(
            sketch=replace(late.sketch, table_name="late-arrival"),
            column_vectors=late.column_vectors,
            table_embedding=late.table_embedding,
            n_rows=late.n_rows,
        )
    )
    assert LakeStore.open(flat_lake).table_names() == (
        flat_fixture.expected["table_names"] + ["late-arrival"]
    )


# --------------------------------------------------------------------- #
# Replicas, publishing, reshard
# --------------------------------------------------------------------- #
def _hand_published_flat_generation(flat_lake: Path, snapshots: Path, expected) -> Path:
    """What the previous commit's publisher shipped: the flat files."""
    generation = snapshots / "gen-000001"
    generation.mkdir(parents=True)
    shutil.copy2(flat_lake / "manifest.json", generation)
    shutil.copy2(flat_lake / "index.npz", generation)
    shutil.copytree(flat_lake / "tables", generation / "tables")
    (generation / "SNAPSHOT.json").write_text(
        json.dumps(
            {
                "generation": 1,
                "fingerprint": expected["fingerprint"],
                "n_shards": 1,
                **expected["counts"],
            }
        )
    )
    return generation


def test_replica_refuses_a_flat_generation_and_leaves_it_alone(
    flat_lake, flat_fixture, tmp_path
):
    snapshots = tmp_path / "snapshots"
    generation = _hand_published_flat_generation(
        flat_lake, snapshots, flat_fixture.expected
    )
    before = _digests(generation)
    with pytest.warns(RuntimeWarning, match="republish"):
        replica = ReplicaService(_embedder(flat_lake), snapshots)
    assert not replica.available and replica.refusals == 1
    assert _digests(generation) == before, "a snapshot is never rewritten"

    # Republishing from the leader ships the converted layout, which adopts.
    assert SnapshotPublisher(flat_lake, snapshots).publish() == 2
    assert replica.refresh() and replica.generation == 2
    flat_fixture.assert_serves(replica)


def test_publishing_a_flat_lake_ships_the_converted_layout(
    flat_lake, flat_fixture, tmp_path
):
    n_tables = flat_fixture.expected["counts"]["n_tables"]
    snapshots = tmp_path / "snapshots"
    generation = SnapshotPublisher(flat_lake, snapshots).publish()
    _assert_converted(flat_lake, n_tables)
    _assert_converted(snapshots / f"gen-{generation:06d}", n_tables)
    replica = ReplicaService(_embedder(flat_lake), snapshots)
    assert replica.generation == generation and replica.refusals == 0
    flat_fixture.assert_serves(replica)


def test_reshard_to_one_shard_is_the_same_layout(flat_lake, flat_fixture, capsys):
    cli.main(["reshard", "--lake", str(flat_lake), "--shards", "3"])
    assert LakeStore.peek_n_shards(flat_lake) == 3
    cli.main(["reshard", "--lake", str(flat_lake), "--shards", "1"])
    assert "3 -> 1 shard(s)" in capsys.readouterr().out
    assert sorted(p.name for p in (flat_lake / "shards").iterdir()) == ["s000"]
    # A reshard's bulk write puts the nine tables in one shared archive.
    _assert_converted(flat_lake, 1)
    assert not list(flat_lake.rglob("index*.npz")), "a reshard writes no index"
    _assert_serves_warm(LakeService.open(flat_lake), flat_fixture)


def test_a_reshard_killed_at_every_file_operation_serves_the_recorded_answers(
    flat_lake, flat_fixture, tmp_path, kill_at, small_archives, archives_live
):
    """A reshard to three shards writes each shard's tables two to an
    archive. Killed at any file operation, the next open serves the
    recorded answers warm at one shard count or the other, and every
    shard's archives on disk are exactly those its entries name."""
    LakeStore.open(flat_lake)  # the conversion, once: the kills land in the reshard
    k = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(flat_lake, root)
        with kill_at(k) as kill:
            LakeService.reshard(root, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a rolled-back swap
            service = LakeService.open(root)
        store = service.catalog.store
        assert store.n_shards in (1, 3), k
        assert service.catalog.searcher.insertions == 0
        flat_fixture.assert_serves(service)
        archives_live(store)
        if not kill.fired:
            break
    assert store.n_shards == 3
    assert any("slot" in entry for shard in store.shards for entry in shard.entries())
    assert k > flat_fixture.expected["counts"]["n_tables"]

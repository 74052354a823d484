"""A store written in the flat layout around ``migrate``: refused until it
runs, then served, published, resharded and written like any other.

`data/flat_store/` holds a nine-table lake written by the last commit that
kept one shard's files directly under the lake root, plus the answers that
commit served from it (the ``flat_fixture`` fixture; `make_fixture.py` there
says how it was made). `test_format_compat.py` holds every older fixture,
this one too, to being refused unmigrated and to serving its answers after
``migrate``, killed or not. Here: what the flat layout meant for replicas
and publishing (a snapshot is never rewritten, so a flat one is refused, and
a flat leader is refused instead of converted), and that a migrated flat
lake orders, reshards and refuses like one this code wrote.
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
from repro.lake.legacy import migrate
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.serialization import (
    FingerprintMismatchError,
    StoreLayoutError,
    config_fingerprint,
)
from repro.lake.service import LakeService
from repro.lake.store import LAYOUT, LakeStore, LakeTableRecord


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


def _assert_migrated(root: Path, n_archives: int) -> None:
    assert not (root / "tables").exists() and not (root / "index.npz").exists()
    shard = root / "shards" / "s000"
    assert (shard / "manifest.json").is_file()
    assert len(list((shard / "tables").glob("*.npz"))) == n_archives
    assert LakeStore.peek_n_shards(root) == 1
    assert LakeStore.open(root).stats()["layout"] == LAYOUT


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


def test_second_open_changes_no_file(flat_lake, flat_fixture):
    migrate(flat_lake)
    _assert_migrated(flat_lake, 1)
    _open(flat_lake)
    before = _digests(flat_lake)
    _assert_serves_warm(_open(flat_lake), flat_fixture)
    assert _digests(flat_lake) == before


def test_refused_open_writes_nothing(flat_lake, flat_fixture):
    """Unmigrated, the layout is refused before the fingerprint or the
    shard count is looked at; migrated, a wrong fingerprint or shard count
    is refused as for any store. Neither writes a byte."""
    fingerprint = flat_fixture.expected["fingerprint"]
    before = _digests(flat_lake)
    with pytest.raises(StoreLayoutError):
        LakeStore.open(flat_lake, expected_fingerprint="someone-else")
    with pytest.raises(StoreLayoutError):
        LakeStore(flat_lake, fingerprint, n_shards=4)
    assert _digests(flat_lake) == before
    migrate(flat_lake)
    before = _digests(flat_lake)
    with pytest.raises(FingerprintMismatchError):
        LakeStore.open(flat_lake, expected_fingerprint="someone-else")
    with pytest.raises(ValueError, match="reshard"):
        LakeStore(flat_lake, fingerprint, n_shards=4)
    assert _digests(flat_lake) == before


def test_tables_added_after_migrate_sort_after_the_migrated_ones(
    flat_lake, flat_fixture
):
    """Migrated entries keep their list order as their ``seq`` order, so a
    table saved afterwards comes after all of them in the global order."""
    migrate(flat_lake)
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
    with pytest.warns(RuntimeWarning, match="older store layout.*migrate"):
        replica = ReplicaService(_embedder(flat_lake), snapshots)
    assert not replica.available and replica.refusals == 1
    assert _digests(generation) == before, "a snapshot is never rewritten"

    # Publishing the migrated leader ships layout 3, which adopts.
    migrate(flat_lake)
    assert SnapshotPublisher(flat_lake, snapshots).publish() == 2
    assert replica.refresh() and replica.generation == 2
    flat_fixture.assert_serves(replica)


def test_publishing_an_unmigrated_lake_is_refused_and_converts_nothing(
    flat_lake, flat_fixture, tmp_path
):
    snapshots = tmp_path / "snapshots"
    before = _digests(flat_lake)
    with pytest.raises(StoreLayoutError, match=f"migrate --lake {flat_lake}"):
        SnapshotPublisher(flat_lake, snapshots)
    assert _digests(flat_lake) == before and not snapshots.exists()

    migrate(flat_lake)
    generation = SnapshotPublisher(flat_lake, snapshots).publish()
    _assert_migrated(snapshots / f"gen-{generation:06d}", 1)
    replica = ReplicaService(_embedder(flat_lake), snapshots)
    assert replica.generation == generation and replica.refusals == 0
    flat_fixture.assert_serves(replica)


def test_reshard_to_one_shard_is_the_same_layout(flat_lake, flat_fixture, capsys):
    cli.main(["migrate", "--lake", str(flat_lake)])
    cli.main(["reshard", "--lake", str(flat_lake), "--shards", "3"])
    assert LakeStore.peek_n_shards(flat_lake) == 3
    cli.main(["reshard", "--lake", str(flat_lake), "--shards", "1"])
    assert "3 -> 1 shard(s)" in capsys.readouterr().out
    assert sorted(p.name for p in (flat_lake / "shards").iterdir()) == ["s000"]
    # A reshard's bulk write puts the nine tables in one shared archive.
    _assert_migrated(flat_lake, 1)
    assert not list(flat_lake.rglob("index*.npz")), "a reshard writes no index"
    _assert_serves_warm(LakeService.open(flat_lake), flat_fixture)


def test_a_reshard_killed_at_every_file_operation_serves_the_recorded_answers(
    flat_lake, flat_fixture, tmp_path, kill_at, small_archives, archives_live
):
    """A reshard to three shards writes each shard's tables two to an
    archive. Killed at any file operation, the next open serves the
    recorded answers warm at one shard count or the other, and every
    shard's archives on disk are exactly those its entries name."""
    migrate(flat_lake)  # once: the kills land in the reshard
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

"""Stores an older build wrote still open, and the older reader opens ours.

`data/sharded_store/` holds a 4-shard lake written by a commit whose
manifests were pretty-printed and whose shards each kept a persisted
``index.npz`` (the ``sharded_fixture`` fixture), plus the answers that
commit served; `data/flat_store/` is the flat-layout lake (``flat_fixture``).
This code never reads those index archives: it opens a copy warm — zero
forwards, zero index insertions, no file rewritten — and serves the
recorded answers from an index assembled out of the stored vectors. A
shard's first write retires its archive and manifest entry, and a kill at
any file operation of that write still reopens to the same answers.

The other way round: the commit before this one rebuilt a shard's index from
its tables' ``column_vectors``, in ``seq`` order, whenever the shard
manifest had no ``"index"`` entry. A store this code writes has none, and
that rebuild is row for row the index this code serves.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.lake.service import LakeService
from repro.lake.store import _RETIRED_KEYS, LakeStore
from repro.search.tables import TableSearcher

@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """The fixtures state their own shard counts, so running the module once
    per directory default would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture(params=["sharded_fixture", "flat_fixture"])
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


def _assert_warm(service: LakeService) -> None:
    assert service.catalog.searcher.insertions == 0
    assert service.catalog.embed_calls == 0


def _shard_manifest(shard) -> dict:
    return json.loads((shard.root / "manifest.json").read_text())


def _assert_retired(shard) -> None:
    """No index archive and no key the persisted index needed remain."""
    assert not list(shard.root.glob("*.npz"))
    assert not _RETIRED_KEYS & _shard_manifest(shard).keys()


def test_the_fixture_is_the_older_format(sharded_fixture):
    shards = sorted((sharded_fixture.lake / "shards").iterdir())
    assert len(shards) == 4
    for shard in shards:
        assert "\n  " in (shard / "manifest.json").read_text()
        assert (shard / "index.npz").is_file()
        assert "index" in json.loads((shard / "manifest.json").read_text())


def test_opens_warm_and_serves_the_recorded_answers(old_lake, fixture):
    LakeStore.open(old_lake)  # a flat fixture converts, once
    before = _digests(old_lake)
    service = LakeService.open(old_lake)
    _assert_warm(service)
    assert service.catalog.store.fingerprint == fixture.expected["fingerprint"]
    fixture.assert_serves(service)
    assert _digests(old_lake) == before, "a warm open rewrites nothing"


def test_an_append_retires_its_shards_index_and_stays_warm(old_lake, fixture):
    service = LakeService.open(old_lake)
    store = service.catalog.store
    shard = store.shards[store.shard_id("g0t0")]
    service.catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])

    _assert_retired(shard)
    assert (shard.root / "manifest.json").read_text().count("\n") == 1
    for other in store.shards:  # only a shard's own first write retires
        if other is not shard:
            assert "index" in _shard_manifest(other)
    reopened = LakeService.open(old_lake)
    _assert_warm(reopened)
    record = reopened.catalog.records["g0t0"]
    assert record.version == fixture.expected["versions"]["g0t0"] + 1
    assert record.embedding_stale


def _rewrite_every_table(root: Path) -> None:
    """Each shard's first write: every table saved again as it is, so the
    answers cannot change — only the index archives can go."""
    store = LakeStore.open(root)
    store.save_tables(list(store.load_all()))


def test_the_first_write_retires_every_index_killed_or_not(
    tmp_path, fixture, kill_at
):
    """After each shard's first write no index archive and no ``"index"``
    entry remain in it, and a kill at any file operation of that write
    leaves a store that reopens warm to the recorded answers. A shard no
    table routes to is never written, so it keeps the (empty, unread)
    archive an older build gave it."""
    k = 0
    while True:
        k += 1
        root = tmp_path / f"killed-at-{k}"
        shutil.copytree(fixture.lake, root)
        LakeStore.open(root)  # a flat fixture converts, once
        with kill_at(k) as kill:
            _rewrite_every_table(root)
        service = LakeService.open(root)
        _assert_warm(service)
        fixture.assert_serves(service)
        if not kill.fired:
            break
    assert k > len(service.catalog), "an archive per table and a flush per shard"
    for shard in service.catalog.store.shards:
        if len(shard):
            _assert_retired(shard)
        else:
            assert _shard_manifest(shard)["index"]["n_keys"] == 0


def _older_reader(root: Path, dim: int) -> TableSearcher:
    """The previous commit's warm open of a shard with no ``"index"``
    entry: a fresh index, every record's ``column_vectors`` added in
    ``seq`` order. (A shard this code never wrote is empty here, and its
    older archive restores to the same empty index.)"""
    store = LakeStore.open(root)
    for shard in store.shards:
        assert "index" not in _shard_manifest(shard) or not len(shard)
    searcher = TableSearcher(dim, n_shards=store.n_shards)
    for record in store.load_all():
        searcher.add_table(record.name, record.column_names, record.column_vectors)
    return searcher


def test_a_store_this_code_writes_ranks_the_same_through_the_older_reader(
    old_lake, lake_tables
):
    """After every shard's first write, then an update, an append and its
    refresh, a remove and an add of a same-content copy (exact distance
    ties), the older reader's rebuild equals the index this code serves,
    row for row, and ranks the same in every mode."""
    _rewrite_every_table(old_lake)
    catalog = LakeService.open(old_lake).catalog
    full = lake_tables["g0t1"]
    catalog.update_table(full)
    catalog.append_rows("g1t0", [["grp1val66", "2", "tag1"]])
    catalog.refresh_stale()
    catalog.remove_table("g2t2")
    catalog.add_table(full.with_columns(full.columns, name="copy"))

    older = _older_reader(old_lake, catalog.dim)
    for live, rebuilt in zip(catalog.searcher.index.subs, older.index.subs):
        assert rebuilt.keys() == live.keys()
        assert (
            rebuilt.state_arrays()[0]["vectors"].tobytes()
            == live.state_arrays()[0]["vectors"].tobytes()
        )
    for record in catalog.records.values():
        pairs = record.vector_pairs()
        for options in ({}, {"join": True}, {"join": True, "column": "entity"}):
            assert older.rank(pairs, 4, exclude_table=record.name, **options) == (
                catalog.searcher.rank(pairs, 4, exclude_table=record.name, **options)
            )

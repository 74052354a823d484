"""Stores older builds wrote still open here; the previous build refuses
ours.

`data/compact_store/` holds a 4-shard lake written by the last commit before
shard manifests had a journal (``compact_fixture``): compact manifests, no
index archive. `data/sharded_store/` holds one written by a commit whose
manifests were pretty-printed and whose shards each kept a persisted
``index.npz`` (``sharded_fixture``); `data/flat_store/` is the flat-layout
lake (``flat_fixture``). Each comes with the answers its commit served.
This code opens a copy of each warm — zero forwards, zero index insertions,
no file rewritten until the first write — and serves the recorded answers
from an index assembled out of the stored vectors. A shard's first write
retires an older index archive and manifest entry, and a kill at any file
operation of that write still reopens to the same answers.

The other way round is a refusal. Once this code writes a store, a shard's
manifest is its base plus a journal the previous build (0644171) never
reads: it would serve the base alone and sweep every archive only the journal names.
So the root manifest's recorded fingerprint carries a mark, and the
previous build's open — inlined below — refuses the store before its first
file operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.lake.serialization import (
    FingerprintMismatchError,
    UnsupportedIndexBackendError,
)
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import _RETIRED_KEYS, LakeStore, _read_shard_manifest
from repro.search.tables import TableSearcher

@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """The fixtures state their own shard counts, so running the module once
    per directory default would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture(params=["sharded_fixture", "flat_fixture", "compact_fixture"])
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
    """What the shard's files on disk say: base and journal folded."""
    return _read_shard_manifest(shard.root).manifest


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
    """The first write journals into the shard it touches: that shard's
    base is the older build's, byte for byte, under a one-line journal that
    retires the index, and no other shard changes."""
    service = LakeService.open(old_lake)
    store = service.catalog.store
    shard = store.shards[store.shard_id("g0t0")]
    before = _digests(old_lake / "shards")
    service.catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])

    _assert_retired(shard)
    after = _digests(old_lake / "shards")
    journal = shard.root / "manifest.log"
    assert journal.read_text().count("\n") == 1
    for path, digest in before.items():
        shard_dir, _, name = path.partition("/")
        if shard_dir != shard.root.name or name == "manifest.json":
            assert after.get(path) == digest, path
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
    table routes to is never written, so it keeps every byte (an older
    build's empty, unread index archive too)."""
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
    assert k > len(service.catalog), "an archive per table and a commit per shard"
    for shard in service.catalog.store.shards:
        if len(shard):
            _assert_retired(shard)
        else:
            unwritten = fixture.lake / "shards" / shard.root.name
            assert _digests(shard.root) == _digests(unwritten)


def _older_reader(root: Path, dim: int) -> TableSearcher:
    """How the builds between the persisted index and the journal rebuilt
    a shard with no ``"index"`` entry at a warm open: a fresh index, every
    record's ``column_vectors`` added in ``seq`` order. (Those builds now
    refuse the store, see below, so the records come from this code's
    reader; what is compared is the rebuild rule. A shard this code never
    wrote is empty here, and its older archive restores to the same empty
    index.)"""
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


# --------------------------------------------------------------------- #
# Roll forward from the previous build, and its refusal
# --------------------------------------------------------------------- #
def test_the_previous_builds_store_writes_nothing_until_its_first_write(
    tmp_path, compact_fixture
):
    """The previous build's store opens warm to its recorded answers, twice,
    without a byte changing; the first write marks the root and journals
    into its shard, and a reopen serves that write warm."""
    root = tmp_path / "lake"
    shutil.copytree(compact_fixture.lake, root)
    before = _digests(root)
    for _ in range(2):
        service = LakeService.open(root)
        _assert_warm(service)
        compact_fixture.assert_serves(service)
    assert _digests(root) == before
    assert not list(root.rglob("manifest.log"))

    service.catalog.remove_table("g2t1")
    journals = list(root.rglob("manifest.log"))
    assert len(journals) == 1 and journals[0].read_text().count("\n") == 1
    reopened = LakeService.open(root)
    _assert_warm(reopened)
    assert "g2t1" not in reopened.catalog.records
    assert reopened.catalog.table_names() == [
        name for name in compact_fixture.expected["table_names"] if name != "g2t1"
    ]


class _PreviousBuildWouldWrite(AssertionError):
    pass


def _previous_build_open(root: Path, expected_fingerprint: str | None = None) -> None:
    """The previous build's ``LakeStore.open`` (0644171), inlined up to its
    first file operation, which it only reaches when it accepts the store.

    It reads the root manifest (refusing a non-exact index), checks the
    recorded fingerprint against the expected one, converts a flat store,
    then for each shard in order reads ``manifest.json`` — resetting the
    shard if it cannot — checks its fingerprint against the root's, and
    sweeps every archive that manifest does not name. It never reads a
    ``manifest.log``. Raises what that build raises; a store it would
    accept raises :class:`_PreviousBuildWouldWrite` at the first shard it
    would reset or sweep.
    """
    top = json.loads((root / "manifest.json").read_text())
    backend = top.get("index_spec", {}).get("backend", "exact")
    if backend != "exact":
        raise UnsupportedIndexBackendError(root, backend)
    found = top.get("fingerprint", "")
    if expected_fingerprint is not None and found != expected_fingerprint:
        raise FingerprintMismatchError(expected_fingerprint, found)
    if not top.get("sharded"):
        raise _PreviousBuildWouldWrite("it would convert the flat layout")
    for shard_id in range(int(top.get("n_shards", 1))):
        shard_root = root / "shards" / f"s{shard_id:03d}"
        try:
            manifest = json.loads((shard_root / "manifest.json").read_text())
        except (ValueError, KeyError, OSError) as exc:
            raise _PreviousBuildWouldWrite(f"it would reset shard {shard_id}") from exc
        if manifest.get("fingerprint", "") != found:
            raise FingerprintMismatchError(found, manifest.get("fingerprint", ""))
        raise _PreviousBuildWouldWrite(
            f"it would sweep shard {shard_id} by its base alone"
        )


def test_the_previous_build_opens_its_own_store(compact_fixture):
    """The inlined reader is the previous build's: it accepts what that
    build wrote, under the fingerprint that build's CLI expects."""
    for expected in (None, compact_fixture.expected["fingerprint"]):
        with pytest.raises(_PreviousBuildWouldWrite, match="sweep shard 0"):
            _previous_build_open(compact_fixture.lake, expected)


def test_the_previous_build_refuses_a_store_this_code_wrote(
    tmp_path, compact_fixture, lake_embedder, lake_tables
):
    """Whether a new store or the previous build's own after one write here
    — journals with a torn tail in its shards — that build refuses it before
    its first file operation, under the fingerprint its CLI expects and
    under none."""
    rolled = tmp_path / "rolled"
    shutil.copytree(compact_fixture.lake, rolled)
    catalog = LakeService.open(rolled).catalog
    catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])
    catalog.remove_table("g2t1")
    journal = rolled / "shards" / "s003" / "manifest.log"
    with journal.open("ab") as handle:
        handle.write(b'{"base":[1,2],"dr')

    new = tmp_path / "new"
    LakeCatalog(lake_embedder, store=LakeStore(new, "fp")).add_tables(lake_tables)
    for root, fingerprint in (
        (rolled, compact_fixture.expected["fingerprint"]), (new, "fp")
    ):
        before = _digests(root)
        for expected in (None, fingerprint):
            with pytest.raises(FingerprintMismatchError):
                _previous_build_open(root, expected)
        assert _digests(root) == before

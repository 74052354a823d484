"""Stores written before manifests were compact still open, and the other way.

`data/sharded_store/` holds a 4-shard lake written by the last commit whose
manifests were pretty-printed and whose ``index.npz`` carried no
``__mutation_counter`` (the ``sharded_fixture`` fixture), plus the answers
that commit served. This code must open a copy warm — zero forwards, zero
index insertions, no file rewritten — serve those answers, and keep it warm
across a write. An archive this code writes must restore through that
commit's reader, which hands every array but the key columns to
``restore_index``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.search.backend import IndexSpec, restore_index
from repro.search.tables import ColumnEntry


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """The fixture states its own shard count, so running the module once
    per directory default would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture()
def old_lake(tmp_path, sharded_fixture) -> Path:
    root = tmp_path / "lake"
    shutil.copytree(sharded_fixture.lake, root)
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


def test_the_fixture_is_the_older_format(sharded_fixture):
    shards = sorted((sharded_fixture.lake / "shards").iterdir())
    assert len(shards) == 4
    for shard in shards:
        assert "\n  " in (shard / "manifest.json").read_text()
        with np.load(shard / "index.npz") as archive:
            assert "__mutation_counter" not in archive.files


def test_opens_warm_and_serves_the_recorded_answers(old_lake, sharded_fixture):
    before = _digests(old_lake)
    service = LakeService.open(old_lake)
    _assert_warm(service)
    assert service.catalog.store.fingerprint == sharded_fixture.expected["fingerprint"]
    sharded_fixture.assert_serves(service)
    assert _digests(old_lake) == before, "a warm open rewrites nothing"


def test_an_append_keeps_the_older_archive_and_stays_warm(old_lake, sharded_fixture):
    service = LakeService.open(old_lake)
    store = service.catalog.store
    shard = store.shards[store.shard_id("g0t0")]
    archive = (shard.root / "index.npz").read_bytes()
    service.catalog.append_rows("g0t0", [["grp0val77", "1", "tag3"]])

    assert (shard.root / "index.npz").read_bytes() == archive, "re-stamped only"
    assert (shard.root / "manifest.json").read_text().count("\n") == 1
    reopened = LakeService.open(old_lake)
    _assert_warm(reopened)
    record = reopened.catalog.records["g0t0"]
    assert record.version == sharded_fixture.expected["versions"]["g0t0"] + 1
    assert record.embedding_stale


def test_a_new_archive_restores_through_the_older_reader(old_lake):
    """The previous commit's `load_index`: pop the two key arrays, hand
    every other array to `restore_index` — `__mutation_counter` included."""
    service = LakeService.open(old_lake)
    catalog = service.catalog
    shard_id = catalog.store.shard_id("g2t2")
    catalog.remove_table("g2t2")
    shard_root = catalog.store.shards[shard_id].root
    entry = json.loads((shard_root / "manifest.json").read_text())["index"]
    with np.load(shard_root / "index.npz") as archive:
        arrays = {key: archive[key] for key in archive.files}
    assert "__mutation_counter" in arrays
    keys = [
        ColumnEntry(str(table), str(column))
        for table, column in zip(arrays.pop("__key_tables"), arrays.pop("__key_columns"))
    ]
    restored = restore_index(
        IndexSpec.from_dict(entry["spec"]), catalog.dim, keys, arrays, entry["meta"]
    )
    live = catalog.searcher.index.subs[shard_id]
    assert restored.keys() == live.keys()
    assert np.array_equal(restored.state_arrays()[0]["vectors"], live.state_arrays()[0]["vectors"])

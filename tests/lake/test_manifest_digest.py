"""The bytes of every manifest a scripted write session leaves are pinned.

One session runs on the grouped test corpus at 1 and at 4 shards:
``add_tables``, ``append_rows``, ``update_table``, ``remove_table``, a
strict query whose lazy refresh re-embeds the appended table, then a warm
reopen and one more append.

``data/manifest_session/manifests_537c455.json`` holds every root and shard
``manifest.json`` that session left after each stage at commit 537c455, the
last one that persisted the vector index; their sha256 (path and bytes, in
path order) is the recorded digest. Those shard manifests carry the index
entry and the write counter that index was checked against. Today a shard's
manifest is its base ``manifest.json`` folded with its journal
(``manifest.log``), and the full encode of that fold must be exactly the
recorded bytes with those keys (:data:`_RETIRED_KEYS`) removed and
re-encoded by ``_dumps``, once both sides drop what says where a table's
rows are stored: each entry's ``file``, ``slot`` and ``disk_bytes`` and the
head's ``next_id`` (a bulk write's tables share archives now, so they take
fewer file ids). The root manifest must be exactly the recorded one plus
its ``layout`` (:data:`repro.lake.store.LAYOUT`), with its fingerprint
carrying :data:`repro.lake.store._LAYOUT_MARK`.
Any other byte change fails, stage for stage: names, ``seq``, sketch
metadata, counts, metadata, versions and staleness.

A manifest holds names, sketch configs, sizes, counters and the index spec
— no computed floats — so the bytes do not depend on the host's float
kernels.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import (
    _LAYOUT_MARK,
    LAYOUT,
    LakeStore,
    _dumps,
    _read_shard_manifest,
)
from repro.table.schema import table_from_rows

#: (shard count) -> stage -> manifest path -> text, as commit 537c455 wrote.
RECORDED = json.loads(
    (
        Path(__file__).parent / "data" / "manifest_session" / "manifests_537c455.json"
    ).read_text()
)

#: (shard count, stage) -> sha256 over the lake's manifests after it, at
#: commit 537c455.
MANIFEST_DIGESTS = {
    (1, "add_tables"):
        "ee3208610bc4700e99478ecda8b9e4e8cd289d1e1d6ac9e59f2255d74bea0376",
    (1, "append_rows"):
        "1bb2bae233e14643633d0fc41e227c9b8bcb5a77b903cc1be196aa6af185d030",
    (1, "update_table"):
        "ff9ca3d7720601ddf1acad57812df73ed42aa18781ae803ed9638857d9a3bbcd",
    (1, "remove_table"):
        "b2f4ec0ae082cca0996f9e93d5eb369e7e1fd14acbd9c1d2a4cb408d4c595892",
    (1, "strict_refresh"):
        "25ae82345fabef3fc5895ae6feb5ce2a1ff6100b5df3e017198f3017aef7a27e",
    (1, "reopen_append"):
        "c122febd28d1ba85b09a6e59da3fd48296a823255ad423531b3714c054c6705c",
    (4, "add_tables"):
        "08b40a051093853754d6c1a563f0148e62b07bb6ea2f9ba45ac30f8d3e24e6ac",
    (4, "append_rows"):
        "1f75958911c184066a1dbfcc72cf2f2f9dc0eb8a9a51fa7cadb3c64acc3a32ee",
    (4, "update_table"):
        "c72d925a55615123851c08bbc2694dd07b9eb92ca560023dcd7b1d85a72be8bb",
    (4, "remove_table"):
        "89ad2cf2db2911d2292061fdb57c0ab2c66c5f3824f42d13e293982bc5cd8b07",
    (4, "strict_refresh"):
        "a4a286915f324ed18107e42652e23be7ee569ae8a3b8fa42fd087ccdfa827464",
    (4, "reopen_append"):
        "857c344eac2405d3ff18650a9b1e29f151f37cb94a9744654809859c9aef7c71",
}


#: Shard-manifest keys of the persisted index the recorded manifests carry
#: (the archive's entry, and the write counter it was checked against).
_RETIRED_KEYS = ("index", "mutation_counter")
#: Where a table's rows are stored, which shared archives changed.
_STORAGE_KEYS = ("file", "slot", "disk_bytes")


def _unplaced(manifest: dict) -> dict:
    """A shard manifest without :data:`_STORAGE_KEYS` and ``next_id``."""
    head = {k: v for k, v in manifest.items() if k not in ("next_id", "tables")}
    head["tables"] = [
        {k: v for k, v in entry.items() if k not in _STORAGE_KEYS}
        for entry in manifest["tables"]
    ]
    return head


def _manifests(root: Path) -> dict[str, str]:
    """The root manifest's text, and each shard's folded manifest encoded
    whole (less :func:`_unplaced`'s keys), by path."""
    manifests = {"manifest.json": (root / "manifest.json").read_text()}
    for shard in sorted((root / "shards").iterdir()):
        folded = _unplaced(_read_shard_manifest(shard).manifest)
        manifests[f"shards/{shard.name}/manifest.json"] = _dumps(folded) + "\n"
    return manifests


def _digest(manifests: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for path, text in sorted(manifests.items()):
        digest.update(path.encode())
        digest.update(b"\0")
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _today(path: str, text: str) -> str:
    """A recorded manifest as this code must write it: a shard's without
    the keys the persisted index needed (and :func:`_unplaced`'s), the
    root's with its layout and its fingerprint marked."""
    manifest = json.loads(text)
    if path == "manifest.json":
        manifest["fingerprint"] += _LAYOUT_MARK
        manifest["layout"] = LAYOUT
    else:
        manifest = _unplaced(manifest)
    manifest = {k: v for k, v in manifest.items() if k not in _RETIRED_KEYS}
    return _dumps(manifest) + "\n"


@pytest.mark.parametrize("n_shards", [1, 4])
def test_the_recorded_bytes_are_the_pinned_ones(n_shards):
    for stage, manifests in RECORDED[str(n_shards)].items():
        assert _digest(manifests) == MANIFEST_DIGESTS[(n_shards, stage)], stage
        assert any('"index":' in text for text in manifests.values()), stage


def _shrunk(table):
    rows = [[c.values[r] for c in table.columns] for r in range(table.n_rows - 4)]
    return table_from_rows(table.name, table.header, rows, description=table.description)


def test_scripted_session_writes_the_pinned_manifest_bytes(
    tmp_path, lake_embedder, lake_tables, lake_layout_shards
):
    root = tmp_path / "lake"
    seen: dict[str, dict[str, str]] = {}

    def stage(name: str) -> None:
        seen[name] = _manifests(root)

    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    catalog.add_tables(dict(lake_tables))
    stage("add_tables")
    catalog.append_rows("g0t0", [["grp0val98", "5", "tag1"], ["grp0val99", "6", "tag2"]])
    stage("append_rows")
    catalog.update_table(_shrunk(lake_tables["g1t2"]))
    stage("update_table")
    catalog.remove_table("g2t1")
    stage("remove_table")
    result = LakeService(catalog).discover(
        DiscoveryRequest(mode="union", k=4, table="g1t0")
    )
    assert result.diagnostics["refreshed"] == 1
    stage("strict_refresh")
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
    assert warm.embed_calls == 0 and warm.searcher.insertions == 0
    warm.append_rows("g2t2", [["grp2val97", "7", "tag3"]])
    stage("reopen_append")
    assert list(root.rglob("manifest.log")), "the session journals"

    recorded = RECORDED[str(lake_layout_shards)]
    assert seen.keys() == recorded.keys()
    for name, manifests in seen.items():
        expected = {path: _today(path, text) for path, text in recorded[name].items()}
        assert manifests == expected, name

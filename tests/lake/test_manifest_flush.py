"""A shard-manifest commit encodes only the entries written since the last
one, and the manifest on disk still folds to exactly the full encode.

A commit appends one journal line to ``manifest.log``, or compacts: it
rewrites ``manifest.json`` (the base) whole and unlinks the journal.
Pinned here: that a manifest entry owns its ``metadata`` (a caller mutating
the dict it saved, or one it loaded, changes nothing the store holds or
writes later), and a Hypothesis property over drawn sequences of saves,
replaces, removes, index saves, caller mutations, reopens, and reopens of
shards as an older build left them (with an index entry and a write counter
for the next commit to retire). After every operation, each shard's base
and journal fold to the full compact encode of its in-memory manifest; after
every compaction, ``manifest.json`` is that encode and no journal is left.
"""

from __future__ import annotations

import copy
import json
import tempfile
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake import store as store_module
from repro.lake.store import LakeStore, LakeTableRecord, _read_shard_manifest
from repro.search.backend import IndexSpec, make_sharded_index, stable_shard
from repro.search.tables import ColumnEntry
from repro.sketch.pipeline import SketchConfig, sketch_table
from repro.table.schema import table_from_rows
from repro.utils.io import _jsonify

NAMES = tuple(f"t{i}" for i in range(6))


def _full_encode(manifest: dict) -> str:
    return json.dumps(
        manifest, separators=(",", ":"), sort_keys=True, default=_jsonify
    ) + "\n"


def _assert_files_match_memory(store: LakeStore, compacted=()) -> None:
    """Each shard's base and journal fold to its in-memory manifest; in
    the shards under ``compacted`` the base alone is it, with no journal."""
    for shard in store.shards:
        expected = _full_encode(shard._manifest)
        assert _full_encode(_read_shard_manifest(shard.root).manifest) == expected
        if shard.root in compacted:
            text = (shard.root / "manifest.json").read_text(encoding="utf-8")
            assert text == expected, shard.root
            assert not (shard.root / "manifest.log").exists(), shard.root


@lru_cache(maxsize=None)
def _sketch(name: str, variant: int):
    rows = [[f"{name}v{variant}r{r}", str(r * (variant + 1))] for r in range(3 + variant)]
    table = table_from_rows(name, ["key", "value"], rows, description=f"{name} {variant}")
    return sketch_table(table, SketchConfig(num_perm=16, seed=1))


def _record(name: str, variant: int = 0, metadata: dict | None = None) -> LakeTableRecord:
    sketch = _sketch(name, variant)
    rng = np.random.default_rng(variant)
    return LakeTableRecord(
        sketch=sketch,
        column_vectors=rng.normal(size=(sketch.n_cols, 8)),
        table_embedding=rng.normal(size=8),
        n_rows=3 + variant,
        metadata={} if metadata is None else metadata,
        version=variant + 1,
    )


def _index(store: LakeStore):
    n_shards = store.n_shards
    index = make_sharded_index(
        IndexSpec(), 8, n_shards, router=lambda entry: stable_shard(entry.table, n_shards)
    )
    rng = np.random.default_rng(0)
    index.add_many(
        [(ColumnEntry(name, "key"), rng.normal(size=8)) for name in store.table_names()]
    )
    return index


# --------------------------------------------------------------------- #
# A manifest entry owns its metadata
# --------------------------------------------------------------------- #
def test_saved_metadata_is_copied_not_aliased(tmp_path):
    """Mutating the dict a record was saved with, then writing an unrelated
    table of the same shard, must not rewrite the first table's metadata."""
    store = LakeStore(tmp_path, "fp")
    first = _record("a", metadata={"owner": "x", "tags": ["raw"]})
    store.save_table(first)
    neighbour = next(
        name for name in (f"b{i}" for i in range(100))
        if store.shard_id(name) == store.shard_id("a")
    )
    first.metadata["owner"] = "mutated"
    first.metadata["tags"].append("mutated")
    store.save_table(_record(neighbour))

    expected = {"owner": "x", "tags": ["raw"]}
    assert store.load_table("a").metadata == expected
    assert LakeStore.open(tmp_path).load_table("a").metadata == expected
    _assert_files_match_memory(store)


def test_loaded_metadata_is_a_copy(tmp_path):
    store = LakeStore(tmp_path, "fp")
    store.save_table(_record("a", metadata={"tags": ["raw"]}))
    store.load_table("a").metadata["tags"].append("mutated")
    assert store.load_table("a").metadata == {"tags": ["raw"]}


# --------------------------------------------------------------------- #
# Every flush writes the full encode
# --------------------------------------------------------------------- #
_OPS = st.one_of(
    st.tuples(
        st.just("save"),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
        st.integers(0, 2),
        st.sampled_from([{}, {"owner": "x"}, {"tags": ["a", "b"], "n": 2}]),
    ),
    st.tuples(st.just("remove"), st.sampled_from(NAMES)),
    st.tuples(st.just("mutate"), st.sampled_from(NAMES)),
    st.tuples(st.just("save_index")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("reopen_older")),
)


def _as_an_older_build_left_it(store: LakeStore) -> None:
    """Give every shard the index entry, write counter and index archive an
    older build kept (the archive's bytes are never read), in a base with
    no journal, as an older build wrote it."""
    for shard in store.shards:
        manifest = _read_shard_manifest(shard.root).manifest
        manifest["index"] = {"file": "index.npz", "n_keys": 0}
        manifest["mutation_counter"] = 7
        base = shard.root / "manifest.json"
        base.write_text(_full_encode(manifest), encoding="utf-8")
        (shard.root / "manifest.log").unlink(missing_ok=True)
        (shard.root / "index.npz").write_bytes(b"an older build's index")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=st.lists(_OPS, min_size=1, max_size=12))
def test_every_commit_folds_to_the_full_encode_of_the_manifest(tmp_path, ops):
    compacted: set = set()
    write_manifest = store_module._write_manifest

    def recorded(path, text):
        compacted.add(path.parent)
        write_manifest(path, text)

    with (
        pytest.MonkeyPatch.context() as patch,
        tempfile.TemporaryDirectory(dir=tmp_path) as root,
    ):
        patch.setattr(store_module, "_write_manifest", recorded)
        store = LakeStore(root, "fp")
        saved: dict[str, LakeTableRecord] = {}
        for op in ops:
            compacted.clear()
            kind = op[0]
            if kind == "save":
                _, names, variant, metadata = op
                records = [
                    _record(name, variant, copy.deepcopy(metadata)) for name in names
                ]
                store.save_tables(records)
                saved.update((record.name, record) for record in records)
            elif kind == "remove":
                store.remove_table(op[1])
                saved.pop(op[1], None)
            elif kind == "mutate" and op[1] in saved:
                saved[op[1]].metadata["mutated"] = True
            elif kind == "save_index":
                store.save_index(_index(store), IndexSpec())
            elif kind == "reopen":
                store = LakeStore.open(root)
            elif kind == "reopen_older":
                _as_an_older_build_left_it(store)
                store = LakeStore.open(root)
            _assert_files_match_memory(store, compacted)
        _assert_files_match_memory(LakeStore.open(root))

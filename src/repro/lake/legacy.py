"""Stores older than :data:`repro.lake.store.LAYOUT`: one read-only loader,
and ``migrate``, which rewrites such a store at the current layout.

Before the root manifest recorded a ``layout``, each build rolled the
layouts before it forward in place. Such a store is **flat** (one shard's
manifest, ``tables/`` and index archive directly under the root, no
``sharded`` flag, insertion order the manifest's list order) or **sharded**
(``shards/sNNN/``, each entry with its ``seq``; a shard's manifest a base,
pretty-printed or compact, maybe with a journal; an ``"index"`` entry and a
``mutation_counter`` where it kept a persisted index, which is never read).
Its entries may lack ``disk_bytes`` (a rewrite records its own) and what
live tables added (:data:`_DEFAULTS`), and its root fingerprint may carry
the ``+journal`` or ``+shared`` mark of the build that last wrote it.

:func:`migrate` feeds the records, in insertion order, to the stage-and-swap
``reshard`` uses (:func:`repro.lake.store._rebuild`) under the store's
unmarked fingerprint, shard count and index spec: nothing is re-embedded,
and a kill at any file operation leaves the old store (refused until a
re-run finishes) or the migrated one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.lake import store
from repro.lake.serialization import (
    FingerprintMismatchError,
    StoreLayoutError,
    UnsupportedIndexBackendError,
)
from repro.search.backend import IndexSpec
from repro.utils.io import read_json

#: What an entry that predates live tables reads as.
_DEFAULTS = {"n_rows": 0, "metadata": {}, "version": 1, "embedding_stale": False}


@dataclass
class LegacyStore:
    """A store in an older layout, read without writing a byte."""

    fingerprint: str
    n_shards: int
    index_spec: IndexSpec | None
    #: Every ``(table directory, entry)``, in insertion order.
    entries: list[tuple[Path, dict]]
    #: What the store keeps at the root, which a migrate replaces.
    files: tuple[str, ...]

    def records(self) -> Iterator[store.LakeTableRecord]:
        """The tables' records in insertion order, each archive read once."""
        return store._records_in_order(self.entries)


def load(root: str | os.PathLike) -> LegacyStore | None:
    """The store at ``root`` as an older build left it, or ``None`` when it
    is already at :data:`~repro.lake.store.LAYOUT`. Writes nothing, beyond
    rolling back a swap killed half way.

    Raises :class:`FileNotFoundError` with no store, and refuses a newer
    layout (:class:`~repro.lake.serialization.StoreLayoutError`), an index
    other than exact (:class:`~repro.lake.serialization.UnsupportedIndexBackendError`)
    and a shard whose fingerprint is not the root's.
    """
    root = Path(root)
    store._recover_interrupted_reshard(root)
    path = root / store.MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"no lake manifest at {path}")
    top = read_json(path)
    if top.get("layout") == store.LAYOUT:
        return None
    if "layout" in top:
        raise StoreLayoutError(root, top["layout"])
    spec = top.get("index_spec")
    backend = (spec or {}).get("backend", "exact")
    if backend != "exact":
        raise UnsupportedIndexBackendError(root, backend)
    fingerprint = top.get("fingerprint", "").removesuffix("+shared")
    fingerprint = fingerprint.removesuffix("+journal")
    if top.get("sharded"):
        n_shards, files = int(top["n_shards"]), store.STORE_FILES
        dirs = [root / store.SHARDS_DIR / f"s{k:03d}" for k in range(n_shards)]
    else:
        n_shards, dirs = 1, [root]
        index_files = [top["index"]["file"]] if "index" in top else []
        files = (*store.STORE_FILES, store.TABLES_DIR, *index_files)
    ordered = []
    for directory in dirs:
        manifest = store._read_shard_manifest(directory).manifest
        found = manifest.get("fingerprint", "")
        if found != fingerprint:
            raise FingerprintMismatchError(fingerprint, found)
        for position, entry in enumerate(manifest["tables"], start=1):
            seq = entry["seq"] if top.get("sharded") else position
            ordered.append((seq, directory, {**_DEFAULTS, **entry}))
    ordered.sort(key=lambda item: item[0])
    return LegacyStore(
        fingerprint,
        n_shards,
        None if spec is None else IndexSpec.from_dict(spec),
        [(directory, entry) for _, directory, entry in ordered],
        files,
    )


def migrate(root: str | os.PathLike) -> int | None:
    """Rewrite the store at ``root`` at :data:`~repro.lake.store.LAYOUT`;
    returns how many tables it wrote, or ``None``, writing nothing, when
    the store is at that layout already (see :func:`load` for what it
    refuses)."""
    old = load(root)
    if old is None:
        return None
    return store._rebuild(
        Path(root), old.records(), old.fingerprint, old.n_shards,
        old.index_spec, old.files,
    )

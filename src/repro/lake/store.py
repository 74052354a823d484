"""`LakeStore` — the on-disk artifact layout of an indexed data lake.

A lake is **hash-partitioned into N shards** (N = 1 by default); each shard
is a fully self-contained single-directory store (:class:`LakeShard`) with
its own manifest and table archives. Tables route to a shard by a stable
hash of their name (:func:`repro.search.backend.stable_shard`), so a table's
artifacts — and all of its index rows — always co-locate. There is one
layout, whatever N::

    <root>/
      manifest.json          # top-level: {sharded, n_shards, next_seq,
                             #             index_spec, fingerprint}
      shards/
        s000/                # one full LakeShard layout per shard
          manifest.json      # base: fingerprint + ordered table entries
          manifest.log       # journal: one line per commit since the base
          tables/
            t000001.npz      # one archive per table (see below)
        s001/...

The vector index is not part of the layout. It is derived state:
:meth:`LakeStore.load_index` assembles each shard's exact index from the
``column_vectors`` its table archives already hold, in global insertion
order — the row order the live index keeps — with one block copy per shard.
A shard an older build wrote may still hold an index archive and an
``"index"`` manifest entry; neither is ever read, and the shard's first
write drops both (never an open, so a read-only snapshot stays as it is).

A store written before this layout was the only one kept a single shard's
files directly under ``<root>``. Opening such a store **converts it once, by
rolling forward** (:func:`_convert_flat_layout`): nothing is re-embedded or
rewritten, the fingerprint is unchanged, and a kill at any step is finished
by the next open.

:meth:`LakeStore.reshard` migrates a store in place to another shard count;
whoever next reads the root manifest (``open``, ``peek_*``,
``needs_conversion``) first rolls back a swap that was killed half way.

Each table archive holds the packed :class:`~repro.sketch.pipeline.TableSketch`
arrays (uint64 signatures, float64 raw numeric stats) plus the final
``column_vectors`` the index serves and the pooled ``table_embedding`` —
everything float64/uint64 in npz, so a save/load round-trip is bit-exact and
warm queries are bit-identical to a cold in-memory build.

Every table archive goes through one codec, :mod:`repro.lake.archive`:
:func:`~repro.lake.archive.write_archive` writes the bytes ``np.savez``
would, in one ``write``, and :func:`~repro.lake.archive.read_archive` reads
a file in one ``read`` and checks each member's CRC-32, raising
:class:`~repro.lake.archive.ArchiveError` on anything malformed. Nothing here
calls ``np.savez`` or ``np.load``; the crash tests' ``kill_at`` counts
``write_archive`` as the archive-write operation.

The manifest records the config fingerprint
(:func:`repro.lake.serialization.config_fingerprint`, which folds the shard
count in when there is more than one); opening a store with a different expected
fingerprint raises :class:`FingerprintMismatchError` instead of silently
serving stale vectors. Shard entries are ordered *lists*, and every entry
records a global insertion sequence number (``seq``, allocated from the
top-level manifest), so :meth:`LakeStore.load_all` and
:meth:`LakeStore.table_names` reproduce the exact global insertion order
at any shard count — order, and therefore tie-breaking, is layout-invariant.

Manifests are compact single-line JSON (the C encoder; any JSON reader
reads them). A shard's manifest is a base, ``manifest.json``, and a journal,
``manifest.log``. **A table write is its table archives plus one manifest
commit per touched shard**, and a remove is that commit alone. A commit
appends one line to the journal with one ``write``: the base's length and
CRC-32, the head (counters, fingerprint), the names it drops and the
entries it puts. A shard keeps each entry's encoded text and a write or
remove drops the text of the entry it touched, so a commit encodes only
what changed. When the journal would grow past the base, the commit
compacts instead: it writes the whole manifest as the new base
(write-then-rename, splicing in the cached texts) and unlinks the journal.
A write is thus O(its delta) amortized, and the journal an open replays is
never bigger than the base. An open folds base and journal in memory and
writes nothing; it replays no torn last line (no newline, or not JSON),
which the shard's next write cuts off, and no line tied to another base
(a compaction killed between its rename and the unlink). A shard whose base
is torn beyond repair degrades to an empty shard with a warning at open
time while every other shard stays warm.

The journal is one-way compatible. This code reads every store an older
build wrote, and writes nothing to it until its first write. That write
marks the root manifest's recorded fingerprint (:data:`_JOURNAL_MARK`,
which every store this code creates carries from the start), so an older
reader — which would read a shard's base alone and sweep every archive
only the journal names — refuses the store before it touches a file.

**Durability: process-kill-safe, not power-loss-safe.** Every base is
written write-then-rename, every journal line is one append, and nothing
here calls ``fsync``. A process killed at any file operation (an
exception, SIGKILL, the OOM killer) leaves each table at its old or its new
state, which ``tests/lake/test_write_path.py`` and
``tests/lake/test_migration.py`` check by killing every write at every
operation, a journal append both before it writes and halfway through (the
``kill_at`` fixture). A power loss or kernel crash may still lose renames
or appends the OS had not written back, or keep a renamed file whose data
never reached the disk.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.lake.archive import read_archive, write_archive
from repro.lake.serialization import (
    FORMAT_VERSION,
    FingerprintMismatchError,
    UnsupportedIndexBackendError,
    pack_table_sketch,
    unpack_table_sketch,
)
from repro.search.backend import IndexSpec, ShardedIndex, stable_shard
from repro.search.index import KnnIndex
from repro.search.tables import ColumnEntry
from repro.sketch.pipeline import TableSketch
from repro.utils.io import _jsonify, ensure_dir, read_json

MANIFEST_NAME = "manifest.json"
TABLES_DIR = "tables"
SHARDS_DIR = "shards"
#: Write-then-rename staging name; a kill between the write and the rename
#: leaves one behind, swept at the next open.
_MANIFEST_TMP = "manifest.tmp.json"
#: A shard's manifest journal, beside its base ``manifest.json``: one line
#: per commit since the last compaction (see :meth:`LakeShard._commit`).
JOURNAL_NAME = "manifest.log"
#: Appended to the fingerprint a root manifest records once this code
#: writes the store, since its shards may then hold journals. A reader
#: that predates the journal compares the recorded fingerprint with the
#: one it expects (or with each shard's) before it touches a file, so it
#: refuses the store instead of sweeping archives only a journal names.
_JOURNAL_MARK = "+journal"
#: Shard-manifest keys an older build kept for its persisted index (the
#: archive's entry, and the write counter it was checked against); a
#: shard's first write drops them.
_RETIRED_KEYS = ("index", "mutation_counter")

#: What a store owns at its root — everything else there (the model/vocab
#: bundle) belongs to someone else. This is what ``reshard`` swaps and what
#: ``publish`` ships. The manifest comes first: it is what says a store is
#: there, so whoever moves a store moves it out first and in last.
STORE_FILES = (MANIFEST_NAME, SHARDS_DIR)

_RESHARD_BACKUP = ".reshard.old"
_RESHARD_STAGE = ".reshard.tmp"
#: Tables staged per write batch during reshard — bounds peak memory to a
#: chunk of records instead of the whole lake.
RESHARD_CHUNK = 256

_FLUSH_BYTES = obs.counter(
    "lake_store_flush_bytes_total",
    "Bytes written to table archives, by shard",
    ("shard",),
)
_FLUSH_MS = obs.histogram(
    "lake_store_flush_duration_ms",
    "Store flush latency in milliseconds (table saves and removes), by shard",
    ("shard",),
)
_MANIFEST_BYTES = obs.counter(
    "lake_store_manifest_bytes_total",
    "Shard manifest bytes written, by shard and kind (journal or compaction)",
    ("shard", "kind"),
)


def _dumps(value: dict) -> str:
    """Compact, key-sorted JSON: the one encoder of every manifest byte.
    With no indent ``dumps`` runs the C encoder; ``json.dump`` or
    ``indent`` would fall back to pure Python."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True, default=_jsonify)


def _encode_entry(entry: dict) -> str:
    """One shard table entry's text, exactly as :func:`_dumps` of the whole
    manifest writes it inside ``"tables"``."""
    return _dumps(entry)


def _write_manifest(path: Path, text: str) -> None:
    # Write-then-rename: a crash mid-flush must leave the previous
    # manifest intact, never a torn JSON file.
    temporary = path.with_name(_MANIFEST_TMP)
    with open(temporary, "wb") as handle:
        handle.write(text.encode("utf-8") + b"\n")
    os.replace(temporary, path)


def _append_journal(path: Path, line: bytes, keep: int) -> None:
    """Cut the journal at ``path`` to its first ``keep`` bytes (the lines
    that replay: a torn tail, or all of a stale journal, goes) and append
    ``line`` with one ``write``."""
    handle = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        os.ftruncate(handle, keep)
        written = os.write(handle, line)
    finally:
        os.close(handle)
    if written != len(line):
        raise OSError(f"short journal write to {path}: {written} of {len(line)} bytes")


def _base_tie(data: bytes) -> list[int]:
    """What ties a journal line to the base it extends: the base file's
    length and CRC-32 (a compaction's new base has another)."""
    return [len(data), zlib.crc32(data)]


@dataclass
class _ShardManifest:
    """A shard's manifest as its base and journal fold to, read-only."""

    manifest: dict
    #: :func:`_base_tie` of the base file.
    tie: list[int]
    #: Journal bytes that replayed; a torn tail or a stale journal is past
    #: them, and the shard's next write cuts it off.
    replayed: int


def _read_shard_manifest(root: Path) -> _ShardManifest:
    """Fold ``root``'s base ``manifest.json`` and journal in memory; writes
    nothing.

    Lines replay in order until the first that is torn (no newline, or not
    JSON) or tied to another base (a compaction killed between its rename
    and the journal's unlink leaves every line so): that one and all after
    it are never replayed. Raises what reading or decoding the base raises.
    """
    data = (root / MANIFEST_NAME).read_bytes()
    manifest = json.loads(data)
    tie = _base_tie(data)
    journal = root / JOURNAL_NAME
    # The piece after the last newline is a torn tail (or empty).
    lines = journal.read_bytes().split(b"\n")[:-1] if journal.exists() else []
    replayed = 0
    # One pass: entries by name stay in slot order until the end.
    by_name = {entry["name"]: entry for entry in manifest.pop("tables")}
    for raw in lines:
        try:
            line = json.loads(raw)
        except ValueError:
            break
        if not isinstance(line, dict) or line.get("base") != tie:
            break
        manifest = dict(line["head"])
        for name in line["drop"]:
            by_name.pop(name, None)
        for entry in line["put"]:
            by_name[entry["name"]] = entry
        replayed += len(raw) + 1
    manifest["tables"] = list(by_name.values())
    return _ShardManifest(manifest, tie, replayed)


def _read_root_manifest(root: str | os.PathLike) -> dict | None:
    """The root manifest, or ``None`` when no store exists yet.

    Every reader of a store comes through here first, so this is where a
    lake recorded under an index this code does not serve is refused —
    before anything under ``root`` is opened or rewritten.
    """
    _recover_interrupted_reshard(Path(root))
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    top = read_json(path)
    backend = top.get("index_spec", {}).get("backend", "exact")
    if backend != "exact":
        raise UnsupportedIndexBackendError(root, backend)
    return top


def _recover_interrupted_reshard(root: Path) -> None:
    """Roll back a reshard that died mid-swap, then sweep stage dirs.

    A backup dir plus a missing root manifest means the kill landed inside
    the swap window: the backup is the last complete store, so it moves
    back. A backup beside an intact root manifest means the kill landed
    after the new layout was fully in place — the backup (and any stage
    dir) is just debris.
    """
    backup = root / _RESHARD_BACKUP
    if backup.exists():
        if not (root / MANIFEST_NAME).exists():
            warnings.warn(
                f"recovering interrupted reshard: restoring previous store "
                f"layout at {root}",
                RuntimeWarning,
                stacklevel=4,
            )
            # Whatever the backup holds is the previous store, whichever
            # layout wrote it.
            for source in backup.iterdir():
                target = root / source.name
                if target.exists():  # partial move-in from the crash
                    shutil.rmtree(target) if target.is_dir() else target.unlink()
                shutil.move(str(source), str(target))
        shutil.rmtree(backup)
    stage = root / _RESHARD_STAGE
    if stage.exists():
        shutil.rmtree(stage)


def _unmarked(fingerprint: str) -> str:
    """A root manifest's recorded fingerprint without :data:`_JOURNAL_MARK`."""
    return fingerprint.removesuffix(_JOURNAL_MARK)


def _shard_count(top: dict) -> int:
    """Shard count a root manifest declares (a flat one is one shard)."""
    return int(top.get("n_shards", 1)) if top.get("sharded") else 1


def _convert_flat_layout(root: Path, flat: dict) -> dict:
    """Roll a flat store (one shard's files directly under ``root``, as
    written before ``shards/sNNN/`` was the only layout) forward into
    ``shards/s000/``; returns the new top-level manifest.

    Every step is a rename, and the root manifest — the one file that says
    which layout this is — is replaced last. A kill at any step therefore
    leaves a store that still reads as flat, and the next open repeats the
    steps (each a no-op once done) and ends in the same place. Entry paths
    are shard-relative, so no archive is touched; ``seq`` is the entry's
    list position, which is the order a flat store defined. An index
    archive moves with its manifest entry, which the shard's first write
    retires.
    """
    shard_root = ensure_dir(root / SHARDS_DIR / "s000")
    index_files = [flat["index"]["file"]] if "index" in flat else []
    for name in [TABLES_DIR, *index_files]:
        if (root / name).exists():
            os.replace(root / name, shard_root / name)
    tables = [
        {**entry, "seq": seq} for seq, entry in enumerate(flat["tables"], start=1)
    ]
    _write_manifest(shard_root / MANIFEST_NAME, _dumps({**flat, "tables": tables}))
    top = {
        "format_version": flat.get("format_version", FORMAT_VERSION),
        "sharded": True,
        "fingerprint": flat.get("fingerprint", ""),
        "n_shards": 1,
        "next_seq": len(tables) + 1,
    }
    if "index_spec" in flat:
        top["index_spec"] = flat["index_spec"]
    _write_manifest(root / MANIFEST_NAME, _dumps(top))
    return top


@dataclass
class LakeTableRecord:
    """Everything the lake persists for one table."""

    sketch: TableSketch
    column_vectors: np.ndarray  # (n_cols, dim) — final, index-ready vectors
    table_embedding: np.ndarray  # (dim,)
    n_rows: int = 0
    metadata: dict = field(default_factory=dict)
    #: Monotonic per-table data version: 1 at ingest, bumped by every data
    #: mutation (append/update). Re-embedding does *not* bump it — the
    #: version tracks what the data is, not how fresh its vectors are.
    version: int = 1
    #: True when the sketch has absorbed appended rows the served vectors
    #: don't reflect yet; cleared by the lazy re-embed.
    embedding_stale: bool = False

    @property
    def name(self) -> str:
        return self.sketch.table_name

    @property
    def column_names(self) -> list[str]:
        return self.sketch.column_names

    def vector_pairs(self) -> list[tuple[str, np.ndarray]]:
        """Ordered ``(column, vector)`` pairs in the searcher's input form."""
        return list(zip(self.column_names, self.column_vectors))


class LakeShard:
    """One self-contained shard: a manifest and its table archives.

    The manifest is a base file, ``manifest.json``, plus a journal,
    ``manifest.log``, of the commits since the base was written (see
    :meth:`_commit`). All methods are local to the shard — cross-shard
    routing and global ordering live in :class:`LakeStore`.
    """

    def __init__(self, root: str | os.PathLike, fingerprint: str, shard_id: int):
        self.root = ensure_dir(root)
        ensure_dir(self.root / TABLES_DIR)
        self.fingerprint = fingerprint
        #: Position in the owning store's shard list — the ``shard`` label
        #: on this shard's flush metrics.
        self.shard_id = int(shard_id)
        #: Replaced archives staged for deletion after the next manifest
        #: flush (see :meth:`_write_table`).
        self._pending_unlink: list[Path] = []
        #: Each table entry's compact JSON text by table name, as the last
        #: commit wrote it; a write or remove drops its entry's text, so a
        #: commit encodes only what changed (see :meth:`_commit`).
        self._entry_texts: dict[str, str] = {}
        #: Names written, and names removed, since the last commit: what
        #: the next journal line puts and drops.
        self._changed: dict[str, None] = {}
        self._dropped: dict[str, None] = {}
        if (self.root / MANIFEST_NAME).exists():
            read = _read_shard_manifest(self.root)
            found = read.manifest.get("fingerprint", "")
            if found != fingerprint:
                raise FingerprintMismatchError(fingerprint, found)
            self._manifest = read.manifest
            #: :func:`_base_tie` of the base on disk.
            self._tie = read.tie
            #: Journal bytes that replay; the next append cuts the file
            #: back to them.
            self._journal_bytes = read.replayed
            self._sweep_orphans()
        else:
            self._manifest = {
                "format_version": FORMAT_VERSION,
                "fingerprint": fingerprint,
                "next_id": 1,
                "tables": [],
            }
            self._journal_bytes = 0
            self._compact()
        # O(1) name lookup over the ordered entry list.
        self._by_name: dict[str, dict] = {
            entry["name"]: entry for entry in self._manifest["tables"]
        }

    def _compact(self) -> None:
        """Write the whole manifest as the new base (write-then-rename),
        then unlink the journal it folds in.

        Only entries with no cached text are encoded (every entry, on a
        shard's first compaction after open): the head (counters,
        fingerprint) is encoded fresh and the cached entry texts are
        spliced into ``"tables":[...]`` where the key-sorted encode of the
        whole manifest puts them, so the bytes are exactly
        ``_dumps(self._manifest)``'s.
        """
        texts = self._entry_texts
        tables = []
        for entry in self._manifest["tables"]:
            text = texts.get(entry["name"])
            if text is None:
                text = texts[entry["name"]] = _encode_entry(entry)
            tables.append(text)
        items = self._manifest.items()
        parts = (
            _dumps({key: value for key, value in items if key < "tables"})[1:-1],
            '"tables":[' + ",".join(tables) + "]",
            _dumps({key: value for key, value in items if key > "tables"})[1:-1],
        )
        text = "{" + ",".join(part for part in parts if part) + "}"
        _write_manifest(self.root / MANIFEST_NAME, text)
        data = text.encode("utf-8") + b"\n"
        # The journal is stale from here on, unlinked or not.
        self._tie = _base_tie(data)
        self._journal_bytes = 0
        (self.root / JOURNAL_NAME).unlink(missing_ok=True)
        _MANIFEST_BYTES.labels(shard=str(self.shard_id), kind="compaction").inc(
            len(data)
        )

    def _journal_line(self) -> bytes:
        """One commit as a journal line: the base it extends, the names it
        drops, the head, and the entries it puts (cached texts, encoded
        once per change)."""
        texts = self._entry_texts
        puts = []
        for name in self._changed:
            text = texts.get(name)
            if text is None:
                text = texts[name] = _encode_entry(self._by_name[name])
            puts.append(text)
        head = {key: value for key, value in self._manifest.items() if key != "tables"}
        return (
            f'{{"base":{_dumps(self._tie)},"drop":{_dumps(list(self._dropped))},'
            f'"head":{_dumps(head)},"put":[{",".join(puts)}]}}\n'
        ).encode("utf-8")

    def _sweep_orphans(self) -> None:
        """Delete table archives the manifest does not reference, and any
        write-then-rename temporary a kill left behind.

        A crash inside the staged-replace window (:meth:`_write_table`)
        leaves exactly one orphan: either the freshly written replacement
        (manifest never flushed — the table still serves its old bytes) or
        the replaced original (manifest flushed, unlink pending — the table
        serves its new bytes). Either way the orphan is dead data whose id
        may be reallocated, so it goes at open time. So does any archive
        beside the manifest that no ``"index"`` entry names: an older
        build's staging file, or its index archive when a kill landed
        between the flush that retired it and its unlink.
        """
        (self.root / _MANIFEST_TMP).unlink(missing_ok=True)
        named = self._manifest.get("index", {}).get("file")
        for path in sorted(self.root.glob("*.npz")):
            if path.name != named:
                path.unlink()
        live = {entry["file"] for entry in self._manifest["tables"]}
        for path in sorted((self.root / TABLES_DIR).glob("*.npz")):
            if f"{TABLES_DIR}/{path.name}" not in live:
                path.unlink()

    def _entry(self, name: str) -> dict | None:
        return self._by_name.get(name)

    def entries(self) -> list[dict]:
        """The ordered manifest entries (read-only use)."""
        return list(self._manifest["tables"])

    # ------------------------------------------------------------------ #
    def _write_table(self, record: LakeTableRecord, seq: int | None) -> None:
        """Write the npz *first*, then mutate the manifest — a failed array
        write must not leave a half-built entry for a later flush.

        A replace is **staged**: the replacement always goes to a freshly
        allocated archive, the manifest entry is repointed, and the old
        archive is only unlinked *after* the manifest flush lands
        (:meth:`_drain_unlinks`). The live archive is never overwritten in
        place, so a crash at any instant leaves the table fully servable at
        either the old or the new version; the loser of the race is an
        unreferenced archive swept at the next open.
        """
        existing = self._entry(record.name)
        file_id = self._manifest["next_id"]
        file_rel = f"{TABLES_DIR}/t{file_id:06d}.npz"
        arrays, meta = pack_table_sketch(record.sketch)
        arrays["column_vectors"] = np.asarray(record.column_vectors, dtype=np.float64)
        arrays["table_embedding"] = np.asarray(record.table_embedding, dtype=np.float64)
        disk_bytes = write_archive(self.root / file_rel, arrays)
        _FLUSH_BYTES.labels(shard=str(self.shard_id)).inc(disk_bytes)
        fields = {
            "name": record.name,
            "file": file_rel,
            "sketch_meta": meta,
            "n_rows": int(record.n_rows),
            "n_cols": len(record.column_names),
            # Recorded at write time so stats() never has to stat the file.
            "disk_bytes": disk_bytes,
            # A copy: the caller's dict must not reach into the manifest.
            "metadata": copy.deepcopy(record.metadata),
            "version": int(record.version),
            "embedding_stale": bool(record.embedding_stale),
        }
        self._manifest["next_id"] += 1
        self._entry_texts.pop(record.name, None)
        self._changed[record.name] = None
        if existing is None:
            fields["seq"] = int(seq)
            self._manifest["tables"].append(fields)
            self._by_name[record.name] = fields
        else:
            # A replace keeps its manifest slot *and* its global seq: a
            # replaced table keeps its position in the insertion order.
            old_rel = existing["file"]
            existing.update(fields)
            self._pending_unlink.append(self.root / old_rel)

    def _drain_unlinks(self) -> None:
        """Remove replaced archives now that the manifest flush landed."""
        while self._pending_unlink:
            path = self._pending_unlink.pop()
            if path.exists():
                path.unlink()

    def save_tables(
        self, records: list[LakeTableRecord], seqs: "list[int | None]"
    ) -> None:
        """Write tables' artifacts with a single manifest commit; a record
        replaces any same-named entry (its ``seq`` is then ignored — new
        entries need one)."""
        with self._flushing() as flush:
            for record, seq in zip(records, seqs):
                self._write_table(record, seq)
            self._commit(flush)

    @contextmanager
    def _flushing(self) -> Iterator[obs.Span]:
        """The ``store.flush`` span and latency sample every commit, a
        save's or a remove's, runs inside."""
        with obs.span("store.flush", shard=self.shard_id) as flush:
            yield flush
        _FLUSH_MS.labels(shard=str(self.shard_id)).observe(flush.duration_ms)

    def _commit(self, flush: obs.Span) -> None:
        """The one manifest flush of a write, then its staged unlinks;
        ``flush`` (the ``store.flush`` span) is tagged with the flush's
        kind.

        The flush also retires what an older build kept for its persisted
        index (:data:`_RETIRED_KEYS`), and that index archive is unlinked
        with the replaced tables — after the flush, so a kill in between
        leaves only an unreferenced file the next open sweeps.
        """
        index = self._manifest.get("index")
        if index is not None:
            self._pending_unlink.append(self.root / index["file"])
        for key in _RETIRED_KEYS:
            self._manifest.pop(key, None)
        flush.meta["manifest"] = self._flush()
        self._drain_unlinks()

    def _flush(self) -> str:
        """Persist the manifest changes since the last flush; returns
        ``"journal"`` or ``"compaction"``.

        A flush appends one journal line (:meth:`_journal_line`) with one
        ``write``, or, when the journal's bytes would then exceed the
        base's, compacts instead (:meth:`_compact`). A write therefore
        costs its delta amortized, and the journal an open replays is never
        bigger than the base.
        """
        line = self._journal_line()
        if self._journal_bytes + len(line) > self._tie[0]:
            kind = "compaction"
            self._compact()
        else:
            kind = "journal"
            _append_journal(self.root / JOURNAL_NAME, line, self._journal_bytes)
            self._journal_bytes += len(line)
            _MANIFEST_BYTES.labels(shard=str(self.shard_id), kind=kind).inc(len(line))
        self._changed.clear()
        self._dropped.clear()
        return kind

    def load_table(self, name: str) -> LakeTableRecord:
        entry = self._entry(name)
        if entry is None:
            raise KeyError(f"lake store has no table {name!r}")
        return self._load_entry(entry)

    def _load_entry(self, entry: dict) -> LakeTableRecord:
        arrays = read_archive(self.root / entry["file"])
        sketch = unpack_table_sketch(arrays, entry["sketch_meta"])
        return LakeTableRecord(
            sketch=sketch,
            column_vectors=arrays["column_vectors"],
            table_embedding=arrays["table_embedding"],
            n_rows=int(entry.get("n_rows", 0)),
            metadata=copy.deepcopy(entry.get("metadata", {})),
            # Defaults cover pre-live-tables manifests: one data version,
            # vectors assumed fresh.
            version=int(entry.get("version", 1)),
            embedding_stale=bool(entry.get("embedding_stale", False)),
        )

    def remove_table(self, name: str) -> bool:
        entry = self._entry(name)
        if entry is None:
            return False
        with self._flushing() as flush:
            self._manifest["tables"].remove(entry)
            del self._by_name[name]
            self._entry_texts.pop(name, None)
            self._changed.pop(name, None)
            self._dropped[name] = None
            # Forget, commit, *then* unlink: a kill in between leaves an
            # unreferenced archive (swept at the next open), never an entry
            # that points at a missing file.
            self._pending_unlink.append(self.root / entry["file"])
            self._commit(flush)
        return True

    # ------------------------------------------------------------------ #
    def table_names(self) -> list[str]:
        return [entry["name"] for entry in self._manifest["tables"]]

    def __contains__(self, name: str) -> bool:
        return self._entry(name) is not None

    def __len__(self) -> int:
        return len(self._manifest["tables"])

    def _entry_disk_bytes(self, entry: dict) -> int:
        """Manifest-recorded size; stat fallback only for pre-upgrade
        manifests that never recorded it."""
        if "disk_bytes" in entry:
            return int(entry["disk_bytes"])
        path = self.root / entry["file"]
        return path.stat().st_size if path.exists() else 0

    def stats(self) -> dict:
        """This shard's share of :meth:`LakeStore.stats`' sums."""
        entries = self._manifest["tables"]
        return {
            "n_tables": len(entries),
            "n_columns": sum(int(e.get("n_cols", 0)) for e in entries),
            "n_rows": sum(int(e.get("n_rows", 0)) for e in entries),
            "disk_bytes": sum(self._entry_disk_bytes(e) for e in entries),
        }


class LakeStore:
    """Hash-partitioned persistence facade over N :class:`LakeShard` s.

    Each table routes to ``shards/sNNN/`` by a stable hash of its name; one
    shard (the default for a new store) is the same layout with N = 1.
    ``n_shards=None`` resolves to the on-disk count for an existing store —
    an explicit count that disagrees with it is refused (use
    ``python -m repro.lake reshard`` to migrate).
    """

    #: Shard count of a store (or store-less catalog) created without one.
    DEFAULT_SHARDS = 1

    def __init__(
        self,
        root: str | os.PathLike,
        fingerprint: str,
        n_shards: int | None = None,
        *,
        _top: dict | None = None,
    ):
        self.root = ensure_dir(root)
        self.fingerprint = fingerprint
        # ``open`` hands over the root manifest it already read.
        top = _top if _top is not None else _read_root_manifest(self.root)
        if top is not None:
            on_disk = _shard_count(top)
            if n_shards is not None and n_shards != on_disk:
                raise ValueError(
                    f"lake at {self.root} has {on_disk} shard(s) but "
                    f"{n_shards} were requested; run `python -m repro.lake "
                    "reshard` to change the layout"
                )
            found = _unmarked(top.get("fingerprint", ""))
            if found != fingerprint:
                raise FingerprintMismatchError(fingerprint, found)
            if not top.get("sharded"):
                top = _convert_flat_layout(self.root, top)
            n_shards = on_disk
        else:
            if n_shards is None:
                n_shards = self.DEFAULT_SHARDS
            if n_shards < 1:
                raise ValueError(f"n_shards must be >= 1, got {n_shards}")
            top = {
                "format_version": FORMAT_VERSION,
                "sharded": True,
                "fingerprint": fingerprint + _JOURNAL_MARK,
                "n_shards": n_shards,
                # Global insertion sequence: stamped on every new entry so
                # cross-shard order survives persistence.
                "next_seq": 1,
            }
            _write_manifest(self.root / MANIFEST_NAME, _dumps(top))
        (self.root / _MANIFEST_TMP).unlink(missing_ok=True)
        self.n_shards = n_shards
        self._top = top
        self.shards = [self._open_shard(k) for k in range(n_shards)]

    def _open_shard(self, shard_id: int) -> LakeShard:
        shard_root = self.root / SHARDS_DIR / f"s{shard_id:03d}"
        try:
            return LakeShard(shard_root, self.fingerprint, shard_id)
        except FingerprintMismatchError:
            raise
        except (ValueError, KeyError, OSError) as exc:
            # A torn shard manifest (crash mid-crash-window, disk
            # corruption) degrades *that shard* to empty — the lake stays
            # serveable and the other shards stay warm.
            warnings.warn(
                f"lake shard {shard_id} at {shard_root} is unreadable "
                f"({exc!r}); resetting it to empty — its tables must "
                "be re-ingested",
                RuntimeWarning,
                stacklevel=2,
            )
        for name in (MANIFEST_NAME, _MANIFEST_TMP, JOURNAL_NAME):
            (shard_root / name).unlink(missing_ok=True)
        for pattern in ("*.npz", f"{TABLES_DIR}/*.npz"):
            for stale in shard_root.glob(pattern):
                stale.unlink()
        return LakeShard(shard_root, self.fingerprint, shard_id)

    def _flush_top(self) -> None:
        _write_manifest(self.root / MANIFEST_NAME, _dumps(self._top))

    def _mark_journaled(self) -> bool:
        """Record :data:`_JOURNAL_MARK` in the root manifest (in memory;
        the caller flushes it before any shard commits). True when it was
        not there yet: the first write to a store an older build wrote."""
        marked = self.fingerprint + _JOURNAL_MARK
        if self._top["fingerprint"] == marked:
            return False
        self._top["fingerprint"] = marked
        return True

    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, root: str | os.PathLike, expected_fingerprint: str | None = None
    ) -> "LakeStore":
        """Open an existing store, validating its fingerprint if given. A
        store still in the flat layout is converted here, once."""
        top = _read_root_manifest(root)
        if top is None:
            raise FileNotFoundError(
                f"no lake manifest at {Path(root) / MANIFEST_NAME}"
            )
        found = _unmarked(top.get("fingerprint", ""))
        if expected_fingerprint is not None and found != expected_fingerprint:
            raise FingerprintMismatchError(expected_fingerprint, found)
        return cls(root, found, _top=top)

    @classmethod
    def peek_n_shards(cls, root: str | os.PathLike) -> int | None:
        """Read a lake's shard count without opening it (``None`` when no
        store exists yet) — how the CLI folds the layout into the
        fingerprint before opening."""
        top = _read_root_manifest(root)
        return None if top is None else _shard_count(top)

    @classmethod
    def peek_index_spec(cls, root: str | os.PathLike) -> IndexSpec | None:
        """Read a lake's recorded index spec without opening the store
        (no fingerprint needed) — the spec is part of the fingerprint a
        warm open must expect."""
        raw = (_read_root_manifest(root) or {}).get("index_spec")
        return None if raw is None else IndexSpec.from_dict(raw)

    @classmethod
    def needs_conversion(cls, root: str | os.PathLike) -> bool:
        """Is the store at ``root`` still in the flat layout, so that
        opening it would rewrite it? Whoever must not write there (a
        replica over a shared snapshot) asks first."""
        top = _read_root_manifest(root)
        return top is not None and not top.get("sharded")

    # ------------------------------------------------------------------ #
    def shard_id(self, name: str) -> int:
        return stable_shard(name, self.n_shards)

    def _shard_for(self, name: str) -> LakeShard:
        return self.shards[self.shard_id(name)]

    # ------------------------------------------------------------------ #
    def save_table(self, record: LakeTableRecord) -> None:
        """Write one table's artifacts; replaces any same-named entry."""
        self.save_tables([record])

    def save_tables(self, records: list[LakeTableRecord]) -> None:
        """Bulk save; one manifest flush per touched shard, so a crash
        mid-write loses at most each shard's unflushed tail."""
        fresh = [
            record.name
            for record in records
            if record.name not in self._shard_for(record.name)
        ]
        start = int(self._top["next_seq"])
        seq_by_name = dict(zip(fresh, range(start, start + len(fresh))))
        if fresh:
            self._top["next_seq"] = start + len(fresh)
        marked = self._mark_journaled()
        if fresh or marked:
            self._flush_top()
        groups: dict[int, tuple[list[LakeTableRecord], list[int | None]]] = {}
        for record in records:
            shard_records, shard_seqs = groups.setdefault(
                self.shard_id(record.name), ([], [])
            )
            shard_records.append(record)
            shard_seqs.append(seq_by_name.get(record.name))
        for shard_id, (shard_records, shard_seqs) in groups.items():
            self.shards[shard_id].save_tables(shard_records, shard_seqs)

    def load_table(self, name: str) -> LakeTableRecord:
        return self._shard_for(name).load_table(name)

    def _ordered_entries(self) -> list[tuple[LakeShard, dict]]:
        """Every entry across all shards, in global insertion order."""
        indexed = [
            (int(entry["seq"]), shard, entry)
            for shard in self.shards
            for entry in shard.entries()
        ]
        indexed.sort(key=lambda item: item[0])
        return [(shard, entry) for _, shard, entry in indexed]

    def load_all(self) -> Iterator[LakeTableRecord]:
        """Records in global insertion order — identical at every shard
        count, so warm loads are deterministic and layout-invariant."""
        for shard, entry in self._ordered_entries():
            yield shard._load_entry(entry)

    def remove_table(self, name: str) -> bool:
        """Forget one table: one manifest commit of its shard."""
        shard = self._shard_for(name)
        if name in shard and self._mark_journaled():
            self._flush_top()
        return shard.remove_table(name)

    # ------------------------------------------------------------------ #
    def reshard(self, n_shards: int, fingerprint: str) -> int:
        """Migrate this store in place to ``n_shards`` shards under the new
        ``fingerprint``; returns how many tables were re-routed (reopen the
        store afterwards — this object still describes the old layout).

        Records stream into a store staged under ``.reshard.tmp`` in
        global-order chunks (peak memory is one chunk, never the whole
        lake); there is no index to rebuild, since every open assembles it
        from the re-routed vectors (:meth:`load_index`). The swap
        parks the old layout under ``.reshard.old`` until the new one is
        fully moved in; the root manifest moves out first and in last, so a
        kill inside the swap window leaves no root manifest but a complete
        backup, which :func:`_recover_interrupted_reshard` rolls back.
        """
        staged_root = self.root / _RESHARD_STAGE
        if staged_root.exists():
            shutil.rmtree(staged_root)
        staged = LakeStore(staged_root, fingerprint, n_shards=n_shards)
        spec = self.index_spec()
        if spec is not None:  # part of the fingerprint: carry it over
            staged.record_index_spec(spec)
        n_tables = 0
        chunk: list[LakeTableRecord] = []
        for record in self.load_all():
            chunk.append(record)
            n_tables += 1
            if len(chunk) >= RESHARD_CHUNK:
                staged.save_tables(chunk)
                chunk = []
        if chunk:
            staged.save_tables(chunk)
        backup = self.root / _RESHARD_BACKUP
        if backup.exists():
            shutil.rmtree(backup)
        backup.mkdir()
        for name in STORE_FILES:
            if (self.root / name).exists():
                shutil.move(str(self.root / name), str(backup / name))
        for name in reversed(STORE_FILES):
            if (staged_root / name).exists():
                shutil.move(str(staged_root / name), str(self.root / name))
        shutil.rmtree(staged_root)
        shutil.rmtree(backup)
        return n_tables

    # ------------------------------------------------------------------ #
    # The vector index: derived from the table archives
    # ------------------------------------------------------------------ #
    def save_index(self, index: ShardedIndex, spec: IndexSpec) -> None:
        """Record ``spec`` (:meth:`record_index_spec`) and nothing else:
        the index itself is never persisted, as :meth:`load_index` derives
        it from the table archives. The benchmark replay still calls it."""
        self.record_index_spec(spec)

    def record_index_spec(self, spec: IndexSpec) -> None:
        """Record the index spec this lake is written under.

        The spec is *configuration*, not artifact: it is written as soon
        as a catalog attaches (before any slow embedding work) and it is
        part of the fingerprint. The top manifest is only rewritten when it
        actually changed.
        """
        raw = spec.to_dict()
        if self._top.get("index_spec") != raw:
            self._top["index_spec"] = raw
            self._flush_top()

    def index_spec(self) -> IndexSpec | None:
        raw = self._top.get("index_spec")
        return None if raw is None else IndexSpec.from_dict(raw)

    def load_index(
        self, dim: int, records: "list[LakeTableRecord] | None" = None
    ) -> ShardedIndex:
        """The exact index over this store's tables, assembled from the
        ``column_vectors`` their archives hold (``records``: the
        :meth:`load_all` output, when the caller already has it).

        Each shard's rows are its tables' columns in global insertion order,
        which is the order the live index keeps (a replaced table's rows
        stay where they were: :meth:`TableSearcher.add_table
        <repro.search.tables.TableSearcher.add_table>`). Every shard is one
        block copy (:meth:`KnnIndex.restore`): no per-row insertion, no
        forward, nothing written.
        """
        spec = self.index_spec() or IndexSpec()
        keys: list[list[ColumnEntry]] = [[] for _ in self.shards]
        blocks: list[list[np.ndarray]] = [[] for _ in self.shards]
        for record in self.load_all() if records is None else records:
            shard_id = self.shard_id(record.name)
            keys[shard_id] += [ColumnEntry(record.name, c) for c in record.column_names]
            blocks[shard_id].append(record.column_vectors)
        subs = [
            KnnIndex.restore(
                dim,
                spec.params,
                shard_keys,
                {"vectors": np.concatenate(shard_blocks or [np.zeros((0, dim))])},
                {},
            )
            for shard_keys, shard_blocks in zip(keys, blocks)
        ]
        n_shards = self.n_shards
        return ShardedIndex(
            dim, subs=subs, router=lambda entry: stable_shard(entry.table, n_shards)
        )

    # ------------------------------------------------------------------ #
    def table_names(self) -> list[str]:
        return [entry["name"] for _, entry in self._ordered_entries()]

    def __contains__(self, name: str) -> bool:
        return name in self._shard_for(name)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def stats(self) -> dict:
        shard_stats = [shard.stats() for shard in self.shards]
        spec = self.index_spec()
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "format_version": self._top.get("format_version"),
            "n_shards": self.n_shards,
            "n_tables": sum(s["n_tables"] for s in shard_stats),
            "n_columns": sum(s["n_columns"] for s in shard_stats),
            "n_rows": sum(s["n_rows"] for s in shard_stats),
            "disk_bytes": sum(s["disk_bytes"] for s in shard_stats),
            "index_backend": spec.canonical() if spec is not None else None,
            "shard_tables": [s["n_tables"] for s in shard_stats],
        }

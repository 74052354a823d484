"""`LakeStore` — the on-disk artifact layout of an indexed data lake.

A lake is **hash-partitioned into N shards** (N = 1 by default); each shard
is a fully self-contained single-directory store (:class:`LakeShard`) with
its own manifest and table archives. Tables route to a shard by a stable
hash of their name (:func:`repro.search.backend.stable_shard`), so a table's
artifacts always co-locate. There is one layout, whatever N::

    <root>/
      manifest.json          # top-level: {layout, sharded, n_shards,
                             #   next_seq, index_spec, fingerprint};
                             #   index_spec always names the exact index
      model_config.json      # the model bundle (repro.lake.bundle): trunk,
      model.npz              #   sketch and SBERT settings, trunk weights,
      vocab.json             #   WordPiece vocabulary; not store files
      shards/
        s000/                # one full LakeShard layout per shard
          manifest.json      # base: fingerprint + ordered table entries
          manifest.log       # journal: one line per commit since the base
          tables/
            t000001.npz      # one archive per group of up to 64 tables
        s001/...             # a commit wrote (see below)

The column table — the exact vector index, whose rows also hold each
column's ``values_sig`` and ``n_values`` for join and subset — is not part
of the layout. It is derived state, and one table at any shard count:
:meth:`LakeStore.load_served` sizes it from the manifests' column counts
and copies in the ``column_vectors``, ``values_sig`` and ``n_values`` each
table archive holds as it reads that archive, in global insertion order —
the row order the live table keeps. A warm open therefore runs no
forward, inserts no row, writes nothing and never holds those rows twice,
and no write has an index to keep in step. Exact distance
ties break by row order, so the live index replaces an updated or
refreshed table's block of rows where it stands
(:meth:`~repro.search.index.KnnIndex.write_block`) instead of moving it
to the end.

**One layout, versioned.** The root manifest records ``layout``
(:data:`LAYOUT`); every reader goes through :func:`_read_root_manifest`,
which refuses any other without writing a byte. An older store is rewritten
by ``python -m repro.lake migrate`` (:mod:`repro.lake.legacy`, the one
reader of older layouts); a layout change bumps :data:`LAYOUT` and extends
that loader. ``migrate`` and :meth:`LakeStore.reshard` rewrite a store
through one stage-and-swap (:func:`_rebuild`), and whoever next reads the
root manifest first rolls back a swap that was killed half way
(``.reshard.old`` present, no root manifest), with a ``RuntimeWarning``.
``migrate`` keeps the fingerprint, shard count, index spec, insertion
order, versions, staleness and metadata, and re-embeds nothing; killed at
any file operation it leaves the old store (still refused: run it again)
or the new one, and on a current store it writes nothing. A lake recorded
under the removed HNSW index cannot be migrated
(:class:`~repro.lake.serialization.UnsupportedIndexBackendError`): re-ingest
it. The root fingerprint carries :data:`_LAYOUT_MARK`, so builds from
before the ``layout`` key refuse the store; ``FINGERPRINT_FORMAT`` stays 2
because it is folded into every fingerprint. A layout change also adds one
fixture under ``tests/lake/data/``, which ``tests/lake/test_format_compat.py``
migrates.

Each table's members are its packed sketch (``snapshot_sig``,
``values_sig``, ``words_sig``, ``numeric_stats``, ``n_values``, ``ctypes``
and the ``acc_*`` merge state: uint64 signatures, float64 raw numeric
stats) — a record's rows of the :class:`~repro.sketch.pipeline.SketchBatch`
arrays its ingest sketched to, of the archive a warm open read, or of an
append's merge, none of them packed here, while
:func:`~repro.lake.serialization.pack_table_sketch` gathers the same
members from a sketch object — plus the final ``column_vectors`` the index
serves and the pooled ``table_embedding``: everything float64/uint64 in
npz, so a save/load round-trip is bit-exact and warm queries are
bit-identical to a cold in-memory build.

**A shard commit writes its tables as archives of up to**
:data:`ARCHIVE_TABLES` **(64) tables.** In an archive of several, each
member is the row concatenation of theirs (``snapshot_sig`` and
``table_embedding``, one row per table, are stacked), and a ``table_cols``
member holds each table's column count; each table's manifest entry records
its ``slot``: its index in the archive and the bytes it accounts for. An
archive of one table is its members alone, with no ``slot``: the one
reader rule, in :func:`_split_tables`, is that an archive without
``table_cols`` holds one table, so a one-table write is the archive an
older build wrote for that table. The cap is a constant, not an option: it
bounds the buffers a bulk commit and a warm open hold at once. An archive
stays while any live entry names it; the commit that drops its last entry
unlinks it, and until then the rows of its replaced or removed tables are
dead bytes, which :meth:`LakeShard.stats` reports (``dead_bytes``, beside
``disk_bytes``, which counts each live archive once) from the manifest
alone, as does the ``lake_store_dead_bytes{shard}`` gauge. Nothing re-packs
them, but they never exceed what bulk writes put down, since an archive
dies with its last table. :meth:`LakeStore.load_all` reads each archive
once, at its first table in ``seq`` order, even when that order alternates
between a shared archive and one-table rewrites.
A record keeps its table's rows of it as read-only views, its sketch
packed (:class:`LakeTableRecord`). A record a catalog serves keeps no
``column_vectors``, ``values_sig`` or ``n_values`` of its own: those live
once, in the column table, so an archive's copies of them are freed as
soon as a warm open has copied them in. Only a shared archive's other
members stay in memory until every table in it is rewritten or the
catalog reopens.

Every table archive goes through one codec, :mod:`repro.lake.archive`:
:func:`~repro.lake.archive.write_archive` writes the bytes ``np.savez``
would, in one ``write``, and :func:`~repro.lake.archive.read_archive` reads
a file in one ``read`` and checks each member's CRC-32, raising
:class:`~repro.lake.archive.ArchiveError` on anything malformed. Nothing here
calls ``np.savez`` or ``np.load``; the crash tests' ``kill_at`` counts
``write_archive`` as the archive-write operation.

The manifest records the config fingerprint
(:func:`repro.lake.serialization.config_fingerprint`: a SHA-256 over the
sketch and model configs, the frozen text-encoder settings, the index spec
and a digest of the trunk weights, with the shard count folded in when
there is more than one); opening a store with a different expected
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
(a compaction killed between its rename and the unlink). A kill leaves at
most a ``manifest.tmp.json`` or an archive no entry names, which the next
open sweeps, or a torn journal tail. A shard whose base
is torn beyond repair degrades to an empty shard with a warning at open
time while every other shard stays warm.

**Durability: process-kill-safe, not power-loss-safe.** Every base is
written write-then-rename, every journal line is one append, an archive is
written before the commit that names it and unlinked after the one that
drops its last table, and nothing here calls ``fsync``. A process killed at
any file operation (an exception, SIGKILL, the OOM killer) leaves each
table at its old or its new state, which ``tests/lake/test_write_path.py`` and
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
import struct
import sys
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro import obs
from repro.lake.archive import read_archive, write_archive
from repro.lake.serialization import (
    FINGERPRINT_FORMAT,
    FingerprintMismatchError,
    StoreLayoutError,
    UnsupportedIndexBackendError,
    pack_table_sketch,
    unpack_table_sketch,
)
from repro.search.backend import IndexSpec, stable_shard
from repro.search.containment import JoinRows
from repro.search.index import KnnIndex
from repro.search.tables import ColumnEntry
from repro.sketch.pipeline import (
    TABLE_MEMBERS, TableSketch, concat_members, split_members,
)
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
#: The store layout this code reads and writes, recorded in the root
#: manifest; :func:`_read_root_manifest` refuses any other.
LAYOUT = 3
#: Appended to the fingerprint every layout-3 root manifest records. A
#: build from before the ``layout`` key compares the recorded fingerprint,
#: less the marks it knows, with the one it expects (or with each shard's)
#: before it touches a file, and it knows none but its own, so it refuses
#: the store.
_LAYOUT_MARK = "+layout"
#: Tables one archive holds at most. A shard commit writes its tables as
#: archives of up to this many (see :func:`_shared_arrays`); a constant,
#: not an option, since it bounds the buffers a bulk write and a warm open
#: hold at once.
ARCHIVE_TABLES = 64
#: Archive members with one row per table, stacked in a shared archive;
#: every other member holds rows (or runs) per column and is concatenated.
_TABLE_MEMBERS = (*TABLE_MEMBERS, "table_embedding")
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
_DEAD_BYTES = obs.gauge(
    "lake_store_dead_bytes",
    "Bytes of live shared archives that no table reads any more, by shard",
    ("shard",),
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


#: ``chattr +T``: the inode flag (``FS_TOPDIR_FL``) and the Linux ioctls
#: that read and set an inode's flags.
_TOPDIR_FLAG = 0x00020000
_GETFLAGS, _SETFLAGS = 0x80086601, 0x40086602


def _mark_top_dir(path: Path) -> None:
    """Mark a new store's root as the top of a directory hierarchy
    (``chattr +T``) where the file system keeps the flag; elsewhere, do
    nothing.

    ext4's Orlov allocator then puts the shard directories, and so their
    archives, in block groups of their own instead of the group of the
    directory the store was created in. Without a journal, ext4 allocates
    an inode by stepping past every inode of its group freed in the last
    minute (longer while the inode table is not yet written back), one
    buffer lookup each: beside a process that had just deleted a few
    thousand files, writing an archive cost ~1.3 ms more than its ~0.2 ms,
    and every append writes one.
    """
    if sys.platform != "linux":
        return
    import fcntl

    try:
        handle = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = fcntl.ioctl(handle, _GETFLAGS, struct.pack("i", 0))
        marked = struct.unpack("i", flags)[0] | _TOPDIR_FLAG
        fcntl.ioctl(handle, _SETFLAGS, struct.pack("i", marked))
    except OSError:
        pass  # not ext2/3/4, or a flag this file system does not keep
    finally:
        os.close(handle)


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


def _pack_record(record: "LakeTableRecord") -> tuple[dict[str, np.ndarray], dict]:
    """A record's archive members and its manifest ``sketch_meta``: its
    packed sketch as it holds it, then its vectors."""
    arrays = dict(record.members)
    arrays["column_vectors"] = np.asarray(record.column_vectors, dtype=np.float64)
    arrays["table_embedding"] = np.asarray(record.table_embedding, dtype=np.float64)
    return arrays, record.sketch_meta


def _layout(arrays: dict[str, np.ndarray]) -> tuple:
    """What tables must agree on to share an archive: the same members,
    dtypes and row shapes (a table without accumulators lacks five)."""
    return tuple(
        (key, array.dtype.str, array.shape[1:]) for key, array in arrays.items()
    )


def _shared_arrays(tables: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One archive's members for ``tables`` (two or more, one layout): each
    member the row concatenation of theirs (stacked, for
    :data:`_TABLE_MEMBERS`), plus ``table_cols``, each table's column count."""
    shared = concat_members(tables, _TABLE_MEMBERS)
    shared["table_cols"] = np.asarray(
        [len(arrays["ctypes"]) for arrays in tables], dtype=np.int64
    )
    return shared


def _split_tables(arrays: dict[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
    """Each table's members out of one archive's, by slot: the one reader
    rule is that an archive without ``table_cols`` holds one table."""
    arrays = dict(arrays)
    table_cols = arrays.pop("table_cols", None)
    if table_cols is None:
        return [arrays]
    return split_members(arrays, table_cols, _TABLE_MEMBERS)


def _share(entry: dict, archive_bytes: int) -> int:
    """The bytes of its archive ``entry`` accounts for: its ``slot``'s, or
    all of a one-table archive."""
    return int(entry["slot"][1]) if "slot" in entry else archive_bytes


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
    """The root manifest, or ``None`` when no store exists yet. Every
    reader of a store comes through here first, so this is where a store
    in any layout but :data:`LAYOUT` is refused, before anything under
    ``root`` is opened or rewritten."""
    _recover_interrupted_reshard(Path(root))
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    top = read_json(path)
    if top.get("layout") != LAYOUT:
        raise StoreLayoutError(root, top.get("layout"))
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
            for source in backup.iterdir():
                target = root / source.name
                if target.exists():  # partial move-in from the crash
                    shutil.rmtree(target) if target.is_dir() else target.unlink()
                shutil.move(str(source), str(target))
        shutil.rmtree(backup)
    stage = root / _RESHARD_STAGE
    if stage.exists():
        shutil.rmtree(stage)


def _read_only(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``arrays``, each flagged read-only (and so every view cut from it
    afterwards), and returned."""
    for array in arrays.values():
        array.flags.writeable = False
    return arrays


#: The members a column table holds beside each column's vector: a record
#: the catalog serves reads them, and its vectors, from its table's block.
TABLE_HELD = ("values_sig", "n_values")


@dataclass(init=False, eq=False)
class LakeTableRecord:
    """Everything the lake persists for one table.

    The sketch stays packed: ``members`` are read-only arrays in the
    layout :func:`~repro.lake.serialization.pack_table_sketch` gives (after
    a warm open, views of the table's rows of the archive it was read
    from; after an ingest or an update, views of its rows of the
    :class:`~repro.sketch.pipeline.SketchBatch` arrays the call sketched
    to, which the store writes as they are; after an append, the arrays
    :func:`~repro.lake.serialization.merge_rows` merged) and
    ``sketch_meta`` its manifest metadata, shared with the manifest entry.
    :attr:`sketch` builds the :class:`TableSketch` on read (only tests and
    the benchmark's replay do); the name, columns and join rows are read
    off the members and meta, so serving, ingest, appends and refreshes
    never build one.

    A record a catalog serves (:meth:`serve_from`) holds no array of its
    own for ``column_vectors`` or the :data:`TABLE_HELD` members: the
    column table holds each column's vector, signature and size once, and
    the record reads them from its table's block as read-only copies. It
    keeps the rest: the words and snapshot signatures, ``numeric_stats``,
    ``ctypes``, the ``acc_*`` merge state and the table embedding. A record
    the catalog stops serving copies its rows back first (:meth:`release`),
    as does one whose ``column_vectors`` or ``sketch`` is assigned.
    """

    # ``members`` and ``column_vectors`` are properties (below), fields only
    # so that ``dataclasses.replace`` reads them and hands them back. They
    # read ``_members`` (the record's own members; while served, ``None`` at
    # :data:`TABLE_HELD`), ``_vectors`` (its own vectors; while served,
    # ``None``) and ``_table`` (the column table it is served from, or
    # ``None``).
    __slots__ = (
        "_members", "_vectors", "_table", "sketch_meta", "table_embedding",
        "n_rows", "metadata", "version", "embedding_stale",
    )
    #: The packed sketch; while served, :data:`TABLE_HELD` copied from the
    #: table's block on each read.
    members: dict[str, np.ndarray]
    sketch_meta: dict
    #: ``(n_cols, dim)`` — final, index-ready vectors; while served, copied
    #: from the table's block on each read.
    column_vectors: np.ndarray
    #: ``(dim,)`` — the pooled table embedding, always the record's own.
    table_embedding: np.ndarray
    n_rows: int
    metadata: dict
    #: Monotonic per-table data version: 1 at ingest, bumped by every data
    #: mutation (append/update). Re-embedding does *not* bump it — the
    #: version tracks what the data is, not how fresh its vectors are.
    version: int
    #: True when the sketch has absorbed appended rows the served vectors
    #: don't reflect yet; cleared by the lazy re-embed.
    embedding_stale: bool

    def __init__(
        self,
        sketch: "TableSketch | None" = None,
        column_vectors: np.ndarray | None = None,
        table_embedding: np.ndarray | None = None,
        n_rows: int = 0,
        metadata: dict | None = None,
        version: int = 1,
        embedding_stale: bool = False,
        *,
        members: dict[str, np.ndarray] | None = None,
        sketch_meta: dict | None = None,
    ):
        """Give the ``sketch``, packed here once, or its read-only
        ``members`` and ``sketch_meta`` as they are; a ``sketch`` wins, so
        ``dataclasses.replace(record, sketch=...)`` repacks."""
        self._table: KnnIndex | None = None
        self._vectors = column_vectors
        if sketch is not None:
            self.sketch = sketch
        else:
            self._members, self.sketch_meta = members, sketch_meta
        self.table_embedding = table_embedding
        self.n_rows = n_rows
        self.metadata = {} if metadata is None else metadata
        self.version = version
        self.embedding_stale = embedding_stale

    @property
    def members(self) -> dict[str, np.ndarray]:
        """The packed members, in archive order, each read-only."""
        if self._table is None:
            return self._members
        held = dict(zip(TABLE_HELD, self._held()))
        return {
            key: held[key] if array is None else array
            for key, array in self._members.items()
        }

    @property
    def column_vectors(self) -> np.ndarray:
        """The served ``(n_cols, dim)`` vectors, read-only."""
        if self._table is None:
            return self._vectors
        return _frozen(self._table.block_vectors(self.name))

    @column_vectors.setter
    def column_vectors(self, vectors: np.ndarray) -> None:
        self.release()
        self._vectors = vectors

    def _held(self) -> tuple[np.ndarray, np.ndarray]:
        """The :data:`TABLE_HELD` members: the record's own, or read-only
        copies of its table's block."""
        if self._table is None:
            return tuple(self._members[key] for key in TABLE_HELD)
        return tuple(map(_frozen, self._table.block_signatures(self.name)))

    def serve_from(self, table: KnnIndex) -> None:
        """Read the vectors and :data:`TABLE_HELD` members from ``table``'s
        block of this record's name from now on, dropping the record's own:
        the block must hold them."""
        self._members = {
            key: None if key in TABLE_HELD else array
            for key, array in self._members.items()
        }
        self._vectors = None
        self._table = table

    def release(self) -> None:
        """Hold copies of the rows the column table serves this record from,
        and stop reading it (nothing, for a record that holds its own). The
        catalog calls this before a write replaces or drops the block."""
        if self._table is not None:
            self._members, self._vectors = self.members, self.column_vectors
            self._table = None

    @property
    def sketch(self) -> TableSketch:
        """The table's sketch, built from :attr:`members` on every read
        (an unpack: keep the result while you need it)."""
        return unpack_table_sketch(self.members, self.sketch_meta)

    @sketch.setter
    def sketch(self, sketch: TableSketch) -> None:
        self.release()
        members, self.sketch_meta = pack_table_sketch(sketch)
        self._members = _read_only(members)

    @property
    def name(self) -> str:
        return self.sketch_meta["table_name"]

    @property
    def column_names(self) -> list[str]:
        """The stored column names (the meta's list: read-only)."""
        return self.sketch_meta["columns"]

    def join_rows(self) -> JoinRows:
        """The stored values signatures and sizes join ranks by."""
        return JoinRows(self.name, self.column_names, *self._held())

    def vector_pairs(self) -> list[tuple[str, np.ndarray]]:
        """Ordered ``(column, vector)`` pairs in the searcher's input form."""
        return list(zip(self.column_names, self.column_vectors))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only, and returned."""
    array.flags.writeable = False
    return array


def _read_tables(path: Path) -> list[dict[str, np.ndarray]]:
    """The archive at ``path``, read once, made read-only and split by
    slot: every table's members are views of its rows."""
    return _split_tables(_read_only(read_archive(path)))


def _record(
    entry: dict, tables: list[dict[str, np.ndarray]], rows: "_ColumnRows | None" = None
) -> LakeTableRecord:
    """``entry``'s record out of its archive's :func:`_read_tables`: its
    rows as they are, its sketch left packed. With ``rows``, its vectors and
    :data:`TABLE_HELD` members go there instead, for the record to be
    served from."""
    members = dict(tables[entry["slot"][0] if "slot" in entry else 0])
    column_vectors = members.pop("column_vectors")
    table_embedding = members.pop("table_embedding")
    if rows is not None:
        rows.take(entry["name"], column_vectors, members)
        column_vectors = None
    return LakeTableRecord(
        members=members,
        sketch_meta=entry["sketch_meta"],
        column_vectors=column_vectors,
        table_embedding=table_embedding,
        n_rows=entry["n_rows"],
        metadata=copy.deepcopy(entry["metadata"]),
        version=entry["version"],
        embedding_stale=entry["embedding_stale"],
    )


def _records_in_order(
    ordered: list[tuple[Path, dict]], rows: "_ColumnRows | None" = None
) -> Iterator[LakeTableRecord]:
    """The records of ``ordered``'s ``(shard root, entry)`` pairs, in that
    order. Each archive is read once, at its first table, into the records
    of all its tables, whose members are views of its rows (after churn an
    order alternates between a shared archive and one-table rewrites, so a
    cache of the last archive read would read the shared one every turn).
    With ``rows``, each table's vectors and :data:`TABLE_HELD` members are
    copied there as its archive is read (:func:`_record`)."""
    by_archive: dict[tuple[Path, str], list[dict]] = {}
    for root, entry in ordered:
        by_archive.setdefault((root, entry["file"]), []).append(entry)
    pending: dict[tuple[Path, str], LakeTableRecord] = {}
    for root, entry in ordered:
        key = (root, entry["name"])
        if key not in pending:
            entries = by_archive.pop((root, entry["file"]))
            tables = _read_tables(root / entry["file"])
            for live in entries:
                pending[root, live["name"]] = _record(live, tables, rows)
        yield pending.pop(key)


class _ColumnRows:
    """The column table's row buffers for ``ordered``'s entries, in that
    order, sized from their manifest column counts: a warm open copies each
    table's vectors and :data:`TABLE_HELD` members in as it reads its
    archive, so no archive's copy of them outlives its read."""

    def __init__(self, ordered: list[tuple[Path, dict]], dim: int, num_perm: int):
        widths = [int(entry["n_cols"]) for _, entry in ordered]
        firsts = np.cumsum(widths) - widths
        #: Table name -> its first row.
        self.firsts = dict(zip((e["name"] for _, e in ordered), firsts.tolist()))
        n = sum(widths)
        self.vectors = np.zeros((n, dim))
        self.signatures = np.zeros((num_perm, n), dtype=np.uint64)
        self.sizes = np.zeros(n, dtype=np.int64)

    def take(self, name: str, vectors: np.ndarray, members: dict) -> None:
        """Copy table ``name``'s rows in, and leave ``None`` in ``members``
        at :data:`TABLE_HELD` (their rows are not copied into a table of no
        signature slots)."""
        first = self.firsts[name]
        rows = slice(first, first + len(vectors))
        self.vectors[rows] = vectors
        if len(self.signatures):
            self.signatures[:, rows] = members["values_sig"].T
            self.sizes[rows] = members["n_values"]
        for key in TABLE_HELD:
            members[key] = None


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
        #: Archives (shard-relative) that lost a table since the last
        #: commit; the commit unlinks those no entry names any more (see
        #: :meth:`_drain_unlinks`).
        self._pending_unlink: list[str] = []
        #: Each archive a live entry names: [its bytes, how many live
        #: entries name it]. Built from the manifest at open and kept in
        #: step with it, so stats() never stats a file and a commit knows
        #: when an archive's last table goes.
        self._archives: dict[str, list[int]] = {}
        #: Bytes of live archives no live entry accounts for.
        self._dead_bytes = 0
        #: Each table entry's compact JSON text by table name, as the last
        #: commit wrote it; a write or remove drops its entry's text, so a
        #: commit encodes only what changed (see :meth:`_commit`).
        self._entry_texts: dict[str, str] = {}
        #: Names written, and names removed, since the last commit: what
        #: the next journal line puts and drops.
        self._changed: dict[str, None] = {}
        self._dropped: dict[str, None] = {}
        exists = (self.root / MANIFEST_NAME).exists()
        if exists:
            read = _read_shard_manifest(self.root)
            found = read.manifest.get("fingerprint", "")
            if found != fingerprint:
                raise FingerprintMismatchError(fingerprint, found)
            #: :func:`_base_tie` of the base on disk.
            self._tie = read.tie
            #: Journal bytes that replay; the next append cuts the file
            #: back to them.
            self._journal_bytes = read.replayed
            tables = read.manifest.pop("tables")
            #: The manifest less its ``"tables"``: counters, fingerprint.
            self._head = read.manifest
        else:
            self._journal_bytes = 0
            tables = []
            self._head = {
                "format_version": FINGERPRINT_FORMAT,
                "fingerprint": fingerprint,
                "next_id": 1,
            }
        #: The manifest's ``"tables"`` by name, in their list order: a new
        #: entry goes last, a replaced one keeps its place, and a remove is
        #: one ``del``, with no scan of the list.
        self._by_name: dict[str, dict] = {entry["name"]: entry for entry in tables}
        if exists:
            self._sweep_orphans()
        else:
            self._compact()
        for entry in self._by_name.values():
            self._hold(entry)
        _DEAD_BYTES.labels(shard=str(self.shard_id)).set(self._dead_bytes)

    @property
    def _manifest(self) -> dict:
        """The whole manifest as the files fold to, built on each read."""
        return {**self._head, "tables": list(self._by_name.values())}

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
        for name, entry in self._by_name.items():
            text = texts.get(name)
            if text is None:
                text = texts[name] = _encode_entry(entry)
            tables.append(text)
        items = self._head.items()
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
        return (
            f'{{"base":{_dumps(self._tie)},"drop":{_dumps(list(self._dropped))},'
            f'"head":{_dumps(self._head)},"put":[{",".join(puts)}]}}\n'
        ).encode("utf-8")

    def _sweep_orphans(self) -> None:
        """Delete table archives the manifest does not reference, and any
        write-then-rename temporary a kill left behind.

        A crash inside the staged-replace window (:meth:`_write_archive`)
        leaves orphans of one kind: the freshly written archives (manifest
        never flushed — their tables still serve their old bytes) or the
        archives whose last table the write replaced or removed (manifest
        flushed, unlink pending — the tables serve their new bytes). Either
        way an orphan is dead data whose id may be reallocated, so it goes
        at open time.
        """
        (self.root / _MANIFEST_TMP).unlink(missing_ok=True)
        live = {entry["file"] for entry in self._by_name.values()}
        for path in sorted((self.root / TABLES_DIR).glob("*.npz")):
            if f"{TABLES_DIR}/{path.name}" not in live:
                path.unlink()

    def entries(self) -> list[dict]:
        """The ordered manifest entries (read-only use)."""
        return list(self._by_name.values())

    # ------------------------------------------------------------------ #
    def _write_archive(self, group: list[tuple]) -> None:
        """Write one archive of ``group``'s tables (``(record, seq, arrays,
        meta)`` each, one :func:`_layout`) *first*, then point their
        manifest entries at it — a failed archive write must not leave a
        half-built entry for a later flush.

        One table is written as its own members; more share members
        (:func:`_shared_arrays`), and each entry records its ``slot``: its
        index in the archive and the bytes it accounts for (its rows, plus
        an even part of the framing), so the slots of an archive add up to
        its size.

        A replace is **staged**: the replacement always goes to a freshly
        allocated archive, the manifest entry is repointed, and an archive
        that no entry names any more is only unlinked *after* the manifest
        flush lands (:meth:`_drain_unlinks`). A live archive is never
        overwritten in place, so a crash at any instant leaves every table
        fully servable at either the old or the new version; the loser of
        the race is an unreferenced archive swept at the next open.
        """
        file_rel = f"{TABLES_DIR}/t{self._head['next_id']:06d}.npz"
        if len(group) == 1:
            arrays = group[0][2]
        else:
            arrays = _shared_arrays([table_arrays for _, _, table_arrays, _ in group])
        disk_bytes = write_archive(self.root / file_rel, arrays)
        _FLUSH_BYTES.labels(shard=str(self.shard_id)).inc(disk_bytes)
        self._head["next_id"] += 1
        slots: list = [None]
        if len(group) > 1:
            rows = [
                sum(array.nbytes for array in table_arrays.values())
                for _, _, table_arrays, _ in group
            ]
            framing, extra = divmod(disk_bytes - sum(rows), len(group))
            slots = [[slot, row + framing] for slot, row in enumerate(rows)]
            slots[0][1] += extra
        for (record, seq, _, meta), slot in zip(group, slots):
            fields = {
                "name": record.name,
                "file": file_rel,
                "sketch_meta": meta,
                "n_rows": int(record.n_rows),
                "n_cols": len(record.column_names),
                # The archive's size, recorded at write time so stats()
                # never has to stat the file.
                "disk_bytes": disk_bytes,
                # A copy: the caller's dict must not reach into the manifest.
                "metadata": copy.deepcopy(record.metadata),
                "version": int(record.version),
                "embedding_stale": bool(record.embedding_stale),
            }
            if slot is not None:
                fields["slot"] = slot
            self._put(fields, seq)

    def _put(self, fields: dict, seq: int | None) -> None:
        """Enter a written table's entry in the manifest (in memory)."""
        name = fields["name"]
        existing = self._by_name.get(name)
        self._entry_texts.pop(name, None)
        self._changed[name] = None
        if existing is None:
            fields["seq"] = int(seq)
            self._by_name[name] = fields
        else:
            # A replace keeps its manifest slot *and* its global seq: a
            # replaced table keeps its position in the insertion order.
            self._release(existing)
            existing.pop("slot", None)
            existing.update(fields)
            fields = existing
        self._hold(fields)

    def _hold(self, entry: dict) -> None:
        """Count ``entry`` as a live reader of its archive."""
        held = self._archives.get(entry["file"])
        if held is None:
            held = self._archives[entry["file"]] = [int(entry["disk_bytes"]), 0]
            self._dead_bytes += held[0]
        held[1] += 1
        self._dead_bytes -= _share(entry, held[0])

    def _release(self, entry: dict) -> None:
        """Stop counting ``entry`` as a reader of its archive; the next
        commit unlinks an archive left with none."""
        held = self._archives[entry["file"]]
        held[1] -= 1
        self._dead_bytes += _share(entry, held[0])
        if not held[1]:
            del self._archives[entry["file"]]
            self._dead_bytes -= held[0]
            self._pending_unlink.append(entry["file"])

    def _drain_unlinks(self) -> None:
        """Remove archives no entry names now that the manifest flush
        landed (one a write released and then wrote to again stays)."""
        while self._pending_unlink:
            file_rel = self._pending_unlink.pop()
            if file_rel not in self._archives:
                (self.root / file_rel).unlink(missing_ok=True)

    def save_tables(
        self, records: list[LakeTableRecord], seqs: "list[int | None]"
    ) -> None:
        """Write tables' artifacts with a single manifest commit; a record
        replaces any same-named entry (its ``seq`` is then ignored — new
        entries need one).

        Consecutive records of one :func:`_layout` share an archive, up to
        :data:`ARCHIVE_TABLES` of them; each archive is written as soon as
        its group closes, so a commit holds one group's arrays at a time.
        """
        with self._flushing() as flush:
            group: list[tuple] = []
            layout = None
            for record, seq in zip(records, seqs):
                arrays, meta = _pack_record(record)
                if group and (len(group) == ARCHIVE_TABLES or _layout(arrays) != layout):
                    self._write_archive(group)
                    group = []
                if not group:
                    layout = _layout(arrays)
                group.append((record, seq, arrays, meta))
            if group:
                self._write_archive(group)
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
        kind."""
        flush.meta["manifest"] = self._flush()
        self._drain_unlinks()
        _DEAD_BYTES.labels(shard=str(self.shard_id)).set(self._dead_bytes)

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
        entry = self._by_name.get(name)
        if entry is None:
            raise KeyError(f"lake store has no table {name!r}")
        return _record(entry, _read_tables(self.root / entry["file"]))

    def remove_table(self, name: str) -> bool:
        entry = self._by_name.get(name)
        if entry is None:
            return False
        with self._flushing() as flush:
            del self._by_name[name]
            self._entry_texts.pop(name, None)
            self._changed.pop(name, None)
            self._dropped[name] = None
            # Forget, commit, *then* unlink an archive no entry names any
            # more: a kill in between leaves an unreferenced archive (swept
            # at the next open), never an entry that points at a missing
            # file.
            self._release(entry)
            self._commit(flush)
        return True

    # ------------------------------------------------------------------ #
    def table_names(self) -> list[str]:
        return list(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def stats(self) -> dict:
        """This shard's share of :meth:`LakeStore.stats`' sums: each live
        archive's bytes counted once, and those no live table reads."""
        entries = self._by_name.values()
        return {
            "n_tables": len(entries),
            "n_columns": sum(e["n_cols"] for e in entries),
            "n_rows": sum(e["n_rows"] for e in entries),
            "disk_bytes": sum(held[0] for held in self._archives.values()),
            "dead_bytes": self._dead_bytes,
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
            on_disk = int(top["n_shards"])
            if n_shards is not None and n_shards != on_disk:
                raise ValueError(
                    f"lake at {self.root} has {on_disk} shard(s) but "
                    f"{n_shards} were requested; run `python -m repro.lake "
                    "reshard` to change the layout"
                )
            found = top["fingerprint"].removesuffix(_LAYOUT_MARK)
            if found != fingerprint:
                raise FingerprintMismatchError(fingerprint, found)
            n_shards = on_disk
        else:
            if n_shards is None:
                n_shards = self.DEFAULT_SHARDS
            if n_shards < 1:
                raise ValueError(f"n_shards must be >= 1, got {n_shards}")
            top = {
                "format_version": FINGERPRINT_FORMAT,
                "layout": LAYOUT,
                "sharded": True,
                "fingerprint": fingerprint + _LAYOUT_MARK,
                "n_shards": n_shards,
                # Global insertion sequence: stamped on every new entry so
                # cross-shard order survives persistence.
                "next_seq": 1,
            }
            _mark_top_dir(self.root)
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
        for stale in shard_root.glob(f"{TABLES_DIR}/*.npz"):
            stale.unlink()
        return LakeShard(shard_root, self.fingerprint, shard_id)

    def _flush_top(self) -> None:
        _write_manifest(self.root / MANIFEST_NAME, _dumps(self._top))

    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls, root: str | os.PathLike, expected_fingerprint: str | None = None
    ) -> "LakeStore":
        """Open an existing store, validating its fingerprint if given."""
        top = _read_root_manifest(root)
        if top is None:
            raise FileNotFoundError(
                f"no lake manifest at {Path(root) / MANIFEST_NAME}"
            )
        found = top["fingerprint"].removesuffix(_LAYOUT_MARK)
        if expected_fingerprint is not None and found != expected_fingerprint:
            raise FingerprintMismatchError(expected_fingerprint, found)
        return cls(root, found, _top=top)

    @classmethod
    def peek_n_shards(cls, root: str | os.PathLike) -> int | None:
        """Read a lake's shard count without opening it (``None`` when no
        store exists yet) — how the CLI folds the layout into the
        fingerprint before opening."""
        top = _read_root_manifest(root)
        return None if top is None else int(top["n_shards"])

    @classmethod
    def peek_index_spec(cls, root: str | os.PathLike) -> IndexSpec | None:
        """Read a lake's recorded index spec without opening the store
        (no fingerprint needed) — the spec is part of the fingerprint a
        warm open must expect."""
        raw = (_read_root_manifest(root) or {}).get("index_spec")
        return None if raw is None else IndexSpec.from_dict(raw)

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

    def _ordered_entries(self) -> list[tuple[Path, dict]]:
        """Every entry across all shards with its shard's root, in global
        insertion order."""
        indexed = [
            (entry["seq"], shard.root, entry)
            for shard in self.shards
            for entry in shard.entries()
        ]
        indexed.sort(key=lambda item: item[0])
        return [(root, entry) for _, root, entry in indexed]

    def load_all(self) -> Iterator[LakeTableRecord]:
        """Records in global insertion order — identical at every shard
        count, so warm loads are deterministic and layout-invariant; each
        archive is read once (:func:`_records_in_order`)."""
        return _records_in_order(self._ordered_entries())

    def remove_table(self, name: str) -> bool:
        """Forget one table: one manifest commit of its shard."""
        return self._shard_for(name).remove_table(name)

    # ------------------------------------------------------------------ #
    def reshard(self, n_shards: int, fingerprint: str) -> int:
        """Rewrite this store in place at ``n_shards`` shards under the new
        ``fingerprint`` (:func:`_rebuild`); returns how many tables were
        re-routed. Reopen the store afterwards: this object still
        describes the old one."""
        return _rebuild(
            self.root, self.load_all(), fingerprint, n_shards, self.index_spec()
        )

    # ------------------------------------------------------------------ #
    # The vector index: derived from the table archives
    # ------------------------------------------------------------------ #
    def save_index(self, index: KnnIndex, spec: IndexSpec) -> None:
        """Record ``spec`` (:meth:`record_index_spec`) and nothing else:
        the index itself is never persisted, as :meth:`load_index` derives
        it from the table archives. The benchmark replay still calls it."""
        self.record_index_spec(spec)

    def record_index_spec(self, spec: IndexSpec) -> None:
        """Record the index spec this lake is written under: configuration,
        not artifact, written as soon as a catalog attaches (before any slow
        embedding work) and part of the fingerprint; the top manifest is
        rewritten only when it changed. A spec for any index but the exact
        one is refused, so no store at this layout records one."""
        if spec.backend != "exact":
            raise UnsupportedIndexBackendError(self.root, spec.backend)
        raw = spec.to_dict()
        if self._top.get("index_spec") != raw:
            self._top["index_spec"] = raw
            self._flush_top()

    def index_spec(self) -> IndexSpec | None:
        raw = self._top.get("index_spec")
        return None if raw is None else IndexSpec.from_dict(raw)

    def load_index(self, dim: int, num_perm: int = 0) -> KnnIndex:
        """The one exact index over this store's tables, at any shard
        count, assembled from the rows their archives hold: the
        ``column_vectors``, and with ``num_perm`` slots each column's
        ``values_sig`` and ``n_values`` (:meth:`load_served`, less its
        records)."""
        return self.load_served(dim, num_perm)[0]

    def load_served(
        self, dim: int, num_perm: int
    ) -> tuple[KnnIndex, list[LakeTableRecord]]:
        """The exact index over this store's tables and their records in
        global insertion order, each served from the index
        (:meth:`LakeTableRecord.serve_from`): how a catalog opens warm.

        The index's rows are every table's columns in that order, which is
        the order the live index keeps (a replaced table's rows stay where
        they were: :meth:`TableSearcher.add_table
        <repro.search.tables.TableSearcher.add_table>`). Its buffers are
        sized from the manifests' column counts, and each archive's
        ``column_vectors``, ``values_sig`` and ``n_values`` are copied into
        them as that archive is read, so the open never holds those rows
        twice. :meth:`KnnIndex.restore` keeps the buffers as they are: no
        per-row insertion, no forward, nothing written. Each entry's
        ``(name, n_cols)`` is its table's block, so the index's table ->
        rows map is built in one pass over tables. ``num_perm`` must be the
        stored signatures' slot count for the records to read them.
        """
        spec = self.index_spec() or IndexSpec()
        ordered = self._ordered_entries()
        rows = _ColumnRows(ordered, dim, num_perm)
        records = list(_records_in_order(ordered, rows))
        keys = [ColumnEntry(r.name, c) for r in records for c in r.column_names]
        index = KnnIndex.restore(
            dim, keys, rows.vectors, signatures=rows.signatures, sizes=rows.sizes,
            blocks=[(r.name, len(r.column_names)) for r in records], **spec.params,
        )
        for record in records:
            record.serve_from(index)
        return index, records

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
            "layout": self._top["layout"],
            "n_shards": self.n_shards,
            "n_tables": sum(s["n_tables"] for s in shard_stats),
            "n_columns": sum(s["n_columns"] for s in shard_stats),
            "n_rows": sum(s["n_rows"] for s in shard_stats),
            "disk_bytes": sum(s["disk_bytes"] for s in shard_stats),
            "dead_bytes": sum(s["dead_bytes"] for s in shard_stats),
            "index_backend": spec.canonical() if spec is not None else None,
            "shard_tables": [s["n_tables"] for s in shard_stats],
        }


def _rebuild(
    root: Path,
    records: Iterable[LakeTableRecord],
    fingerprint: str,
    n_shards: int,
    spec: IndexSpec | None,
    parked: tuple[str, ...] = STORE_FILES,
) -> int:
    """Write ``records``, in order, as a new store at ``root`` in place of
    the files ``parked`` names there; returns how many tables it wrote.
    ``reshard`` and ``migrate`` (:mod:`repro.lake.legacy`) both come here.

    Records stream in chunks into a store staged under ``.reshard.tmp``
    (taking new ``seq`` numbers in the order given), never re-embedded. The
    swap parks the old files under ``.reshard.old``; the root manifest moves
    out first and in last, so a kill inside the swap window leaves no root
    manifest but a complete backup, which
    :func:`_recover_interrupted_reshard` rolls back.
    """
    staged_root = root / _RESHARD_STAGE
    if staged_root.exists():
        shutil.rmtree(staged_root)
    staged = LakeStore(staged_root, fingerprint, n_shards=n_shards)
    if spec is not None:  # part of the fingerprint: carry it over
        staged.record_index_spec(spec)
    records, n_tables = iter(records), 0
    while chunk := list(islice(records, RESHARD_CHUNK)):
        staged.save_tables(chunk)
        n_tables += len(chunk)
    backup = root / _RESHARD_BACKUP
    if backup.exists():
        shutil.rmtree(backup)
    backup.mkdir()
    for name in parked:
        if (root / name).exists():
            shutil.move(str(root / name), str(backup / name))
    for name in reversed(STORE_FILES):
        if (staged_root / name).exists():
            shutil.move(str(staged_root / name), str(root / name))
    shutil.rmtree(staged_root)
    shutil.rmtree(backup)
    return n_tables
